"""Two-stage training.

Stage one pre-trains on atom-annotated 1D shift data with per-modality
masked L1 losses, over-sampling the proton-bearing minority. Stage two
fine-tunes on unlabeled peak lists by alternating pseudo-annotation
(matching predictions to observations) with training on the matched
targets, until the assignments stop moving or the iteration cap hits.
Both stages train through one minibatch loop, ``_fit_epoch``, each with its
own per-sample loss. Without a validation set, the one annotation sweep
after each fine-tuning round both scores the trained weights (the matched
MAE is a function of the labels alone) and labels the next round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .assign import (
    MatchSettings,
    ObservedPeak,
    PseudoLabels,
    check_integer,
    check_real,
    pseudo_annotate,
)
from .autodiff import Adam, ComputeRecord, Tensor, backward
from .model import (
    CrossPeakModel,
    ModelConfig,
    Molecule,
    SolventClass,
    proton_outputs,
)

log = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    pass


@dataclass
class Sample1D:
    molecule: Molecule
    solvent: SolventClass
    c_targets: dict[int, float]
    h_targets: dict[int, float]

    def __post_init__(self) -> None:
        if not self.c_targets and not self.h_targets:
            raise ValueError(f"sample {self.molecule.smiles!r} has no shift targets")


@dataclass
class SampleHSQC:
    molecule: Molecule
    solvent: SolventClass
    peaks: list[ObservedPeak]
    saccharide: bool = False


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 4
    learning_rate: float = 1e-4
    oversample_factor: int = 8
    max_iterations: int = 5
    convergence_fraction: float = 0.01
    validation_split: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "oversample_factor", "max_iterations"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed, 0)
        check_real("learning_rate", self.learning_rate, positive=True)
        check_real("convergence_fraction", self.convergence_fraction)
        check_real("validation_split", self.validation_split)
        if not 0.0 < self.convergence_fraction <= 1.0:
            raise ValueError("convergence_fraction must lie in (0, 1]")
        if not 0.0 <= self.validation_split < 1.0:
            raise ValueError("validation_split must lie in [0, 1)")


@dataclass
class TrainResult:
    best_state: dict[str, np.ndarray]
    final_state: dict[str, np.ndarray]
    history: list[dict]
    best_metric: float
    best_epoch: int


def masked_mtt_loss(
    sample: Sample1D,
    predictions: tuple[dict[int, Tensor], dict[int, Tensor]],
    model: CrossPeakModel,
) -> Tensor:
    """Mean absolute error over the targets the sample actually carries.

    An absent modality contributes no term, hence no gradient to its head.
    A target atom without a prediction is a contract violation.
    """
    c_preds, h_preds = predictions
    terms: list[Tensor] = []
    targets: list[float] = []
    for idx, ppm in sorted(sample.c_targets.items()):
        if idx not in c_preds:
            raise ValueError(f"no prediction covers carbon target {idx}")
        terms.append(c_preds[idx])
        targets.append(model.normalize_c(ppm))
    for idx, ppm in sorted(sample.h_targets.items()):
        if idx not in h_preds:
            raise ValueError(f"no prediction covers proton target {idx}")
        terms.append(h_preds[idx])
        targets.append(model.normalize_h(ppm))
    return ad.mean_abs_error(terms, targets)


def _target_outputs(
    model: CrossPeakModel, sample: Sample1D
) -> tuple[dict[int, Tensor], dict[int, Tensor]]:
    """The model's raw outputs for the atoms the sample carries targets for."""
    return model.atom_shift_tensors(
        sample.molecule, sample.solvent, sorted(sample.c_targets), sorted(sample.h_targets)
    )


def _pretrain_loss(model: CrossPeakModel, sample: Sample1D) -> Tensor:
    return masked_mtt_loss(sample, _target_outputs(model, sample), model)


def _sample_errors(model: CrossPeakModel, sample: Sample1D) -> tuple[list, list]:
    """Absolute errors in ppm for one 1D sample, per modality."""
    c_preds, h_preds = _target_outputs(model, sample)
    c_err = [
        abs(model.ppm_c(c_preds[i].item()) - ppm)
        for i, ppm in sorted(sample.c_targets.items())
    ]
    h_err = [
        abs(model.ppm_h(h_preds[i].item()) - ppm)
        for i, ppm in sorted(sample.h_targets.items())
    ]
    return c_err, h_err


def dataset_mae(model: CrossPeakModel, dataset: list[Sample1D]) -> tuple[float, float]:
    """(carbon MAE, proton MAE) in ppm; NaN for an absent modality."""
    c_all: list[float] = []
    h_all: list[float] = []
    for sample in dataset:
        c_err, h_err = _sample_errors(model, sample)
        c_all.extend(c_err)
        h_all.extend(h_err)
    return _mae(c_all), _mae(h_all)


def _mae(errors: list[float]) -> float:
    """Mean of absolute errors; NaN for none."""
    return float(np.mean(errors)) if errors else float("nan")


def _selection_metric(mae_c: float, mae_h: float, config: ModelConfig) -> float:
    """Worst normalized modality error; checkpoints are selected on the
    weaker head so neither modality degrades unchecked."""
    c = 0.0 if np.isnan(mae_c) else mae_c / config.c_scale
    h = 0.0 if np.isnan(mae_h) else mae_h / config.h_scale
    return max(c, h)


def _fit_epoch(model: CrossPeakModel, optimizer: Adam, items: list, batch_size: int,
               loss_of) -> list[float]:
    """One pass over ``items`` in order, one optimizer step per minibatch.

    ``loss_of(model, item)`` gives an item's loss; each is scaled by
    1 / batch length, so a batch's gradient is the mean over its items.
    Returns the batch losses (sums of the scaled item losses), in order.
    """
    losses: list[float] = []
    for lo in range(0, len(items), batch_size):
        batch = items[lo : lo + batch_size]
        optimizer.zero_grad()
        batch_loss = 0.0
        for item in batch:
            with ComputeRecord() as record:
                loss = ad.scale(loss_of(model, item), 1.0 / len(batch))
            backward(loss, record)
            batch_loss += loss.item()
        optimizer.step()
        losses.append(batch_loss)
    return losses


def mtt_pretrain(
    dataset: list[Sample1D],
    config: TrainConfig,
    model_config: ModelConfig | None = None,
    init_state: dict[str, np.ndarray] | None = None,
    start_epoch: int = 0,
    log_fn=None,
) -> TrainResult:
    """Multi-task pre-training with masked losses and over-sampling.

    Proton-bearing samples are replicated ``oversample_factor`` times per
    epoch. The checkpoint with the best validation MAE is retained next to
    the final state; with no validation split the training MAE decides.
    """
    if not dataset:
        raise ValueError("empty pre-training dataset")
    model_config = model_config or ModelConfig()
    model = CrossPeakModel(model_config)
    if init_state is not None:
        model.load_state(init_state)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)

    split_rng = np.random.default_rng([config.seed, 101])
    perm = split_rng.permutation(len(dataset))
    val_n = int(round(len(dataset) * config.validation_split))
    val_idx = list(perm[:val_n])
    train_idx = list(perm[val_n:])
    if not train_idx:
        raise ValueError("validation split leaves no training samples")
    val_samples = [dataset[i] for i in val_idx]
    train_samples = [dataset[i] for i in train_idx]

    base_order: list[int] = []
    for i, sample in enumerate(train_samples):
        copies = config.oversample_factor if sample.h_targets else 1
        base_order.extend([i] * copies)

    history: list[dict] = []
    best_metric = float("inf")
    best_epoch = -1
    best_state = model.state_arrays()
    for epoch in range(start_epoch, start_epoch + config.epochs):
        rng = np.random.default_rng([config.seed, 7, epoch])
        order = [base_order[k] for k in rng.permutation(len(base_order))]
        batch_losses = _fit_epoch(
            model, optimizer, [train_samples[i] for i in order], config.batch_size,
            _pretrain_loss,
        )
        epoch_loss = 0.0
        for batch_loss in batch_losses:  # in order, as the batches ran
            epoch_loss += batch_loss
        eval_set = val_samples if val_samples else train_samples
        mae_c, mae_h = dataset_mae(model, eval_set)
        metric = _selection_metric(mae_c, mae_h, model.config)
        if metric < best_metric:
            best_metric = metric
            best_epoch = epoch
            best_state = model.state_arrays()
        line = {
            "stage": "pretrain",
            "epoch": epoch,
            "loss": epoch_loss / len(batch_losses),
            "first_batch_loss": batch_losses[0],
            "mae_c": mae_c,
            "mae_h": mae_h,
            "validation": bool(val_samples),
        }
        history.append(line)
        if log_fn is not None:
            log_fn(line)
    return TrainResult(
        best_state=best_state,
        final_state=model.state_arrays(),
        history=history,
        best_metric=best_metric,
        best_epoch=best_epoch,
    )


# ---------------------------------------------------------------------------
# Unsupervised fine-tuning
# ---------------------------------------------------------------------------


@dataclass
class FinetuneResult:
    best_state: dict[str, np.ndarray]
    final_state: dict[str, np.ndarray]
    history: list[dict]
    iterations_run: int
    converged: bool


def _finetune_loss(
    model: CrossPeakModel, sample: SampleHSQC, labels: PseudoLabels
) -> Tensor:
    """L1 loss of the sample's head outputs against its pseudo-labels.

    Labels address (carbon, slot); slot 2 present for a carbon means its
    two proton outputs were emitted separately at annotation time,
    otherwise the single label trains the slot mean. This keeps the loss
    well-defined even if the merge decision flips during the iteration.
    Residuals are taken in ppm, as the peaks were emitted, so labels equal
    to the model's own predictions give exactly zero loss and gradient.
    """
    entries = sorted(labels.entries, key=lambda e: (e.carbon_index, e.slot))
    carbons = sorted({e.carbon_index for e in entries})
    split = {e.carbon_index for e in entries if e.slot == 2}
    row = {carbon: r for r, carbon in enumerate(carbons)}
    rows = [row[e.carbon_index] for e in entries]
    raw_c, raw_h = model.head_outputs(sample.molecule, sample.solvent, carbons)
    protons = proton_outputs(
        raw_h, rows, [e.slot for e in entries], [e.carbon_index in split for e in entries]
    )
    cfg = model.config
    n = len(entries)
    return ad.mean_abs_error(
        [ad.gather(raw_c, rows), protons],
        [e.delta_c for e in entries] + [e.delta_h for e in entries],
        scale=np.repeat([cfg.c_scale, cfg.h_scale], n),
        center=np.repeat([cfg.c_center, cfg.h_center], n),
    )


def annotate_dataset(
    model: CrossPeakModel,
    dataset: list[SampleHSQC],
    settings: MatchSettings,
) -> list[PseudoLabels | None]:
    out = []
    for sample in dataset:
        preds = model.predict_cross_peaks(sample.molecule, sample.solvent)
        out.append(pseudo_annotate(sample.molecule, preds, sample.peaks, settings))
    return out


def _assignment_map(labels: list[PseudoLabels | None]) -> dict:
    return {
        (k, e.carbon_index, e.slot): e.obs_index
        for k, lab in enumerate(labels)
        if lab is not None
        for e in lab.entries
    }


def assignment_change_fraction(
    current: list[PseudoLabels | None], previous: list[PseudoLabels | None]
) -> float:
    cur = _assignment_map(current)
    prev = _assignment_map(previous)
    if not cur:
        return 0.0
    changed = sum(1 for key, obs in cur.items() if prev.get(key) != obs)
    return changed / len(cur)


def matched_mae(labels: list[PseudoLabels | None]) -> tuple[float, float]:
    """(carbon, proton) MAE in ppm between the matched predictions and the
    observed peaks they were assigned to; the label-free quality signal
    available on HSQC data."""
    c_err: list[float] = []
    h_err: list[float] = []
    for lab in labels:
        if lab is None:
            continue
        for entry in lab.entries:
            c_err.append(abs(entry.pred_delta_c - entry.delta_c))
            h_err.append(abs(entry.pred_delta_h - entry.delta_h))
    return _mae(c_err), _mae(h_err)


def finetune_unsupervised(
    init_state: dict[str, np.ndarray],
    dataset: list[SampleHSQC],
    valset: list[SampleHSQC] | None,
    config: TrainConfig,
    model_config: ModelConfig | None = None,
    match: MatchSettings | None = None,
    log_fn=None,
) -> FinetuneResult:
    """Iterative self-training on unlabeled peak lists.

    Each iteration pseudo-annotates every molecule with the current model,
    trains on the accepted labels, and stops once fewer than
    ``convergence_fraction`` of the assignments change between iterations
    (or at ``max_iterations``). The best-validation checkpoint is retained.
    Without a validation set, the sweep that scores an iteration's weights
    on the training set also gives the next iteration's labels, so N
    iterations take N + 1 sweeps; with one, the training set is labelled at
    the top of each iteration and the validation set is swept after it.
    """
    if not dataset:
        raise ValueError("empty fine-tuning dataset")
    model_config = model_config or ModelConfig()
    match = match or MatchSettings()
    model = CrossPeakModel(model_config)
    model.load_state(init_state)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)

    history: list[dict] = []
    best_metric = float("inf")
    best_state = model.state_arrays()
    labels: list[PseudoLabels | None] | None = None
    previous: list[PseudoLabels | None] | None = None
    converged = False
    iterations_run = 0

    for iteration in range(1, config.max_iterations + 1):
        if labels is None:
            labels = annotate_dataset(model, dataset, match)
        usable = [
            (sample, lab)
            for sample, lab in zip(dataset, labels)
            if lab is not None and not lab.rejected
        ]
        rejected = sum(1 for lab in labels if lab is not None and lab.rejected)
        if not usable:
            raise ConvergenceError(
                "every molecule was rejected by the cost threshold"
            )
        change = (
            assignment_change_fraction(labels, previous)
            if previous is not None
            else float("nan")
        )
        if previous is not None and change < config.convergence_fraction:
            converged = True
            line = {
                "stage": "finetune",
                "iteration": iteration,
                "label_change_fraction": change,
                "converged": True,
            }
            history.append(line)
            if log_fn is not None:
                log_fn(line)
            break
        previous = labels
        iterations_run = iteration

        initial_loss = float(
            np.mean([_finetune_loss(model, s, lab).item() for s, lab in usable])
        )
        for epoch in range(config.epochs):
            rng = np.random.default_rng([config.seed, 13, iteration, epoch])
            order = rng.permutation(len(usable))
            _fit_epoch(
                model, optimizer, [usable[k] for k in order], config.batch_size,
                lambda m, pair: _finetune_loss(m, *pair),
            )

        swept = annotate_dataset(model, valset or dataset, match)
        labels = None if valset else swept
        mae_c, mae_h = matched_mae(swept)
        metric = _selection_metric(mae_c, mae_h, model.config)
        if metric < best_metric:
            best_metric = metric
            best_state = model.state_arrays()
        line = {
            "stage": "finetune",
            "iteration": iteration,
            "initial_loss": initial_loss,
            "mae_c": mae_c,
            "mae_h": mae_h,
            "label_change_fraction": change,
            "rejected": rejected,
            "validation": bool(valset),
        }
        history.append(line)
        if log_fn is not None:
            log_fn(line)

    return FinetuneResult(
        best_state=best_state,
        final_state=model.state_arrays(),
        history=history,
        iterations_run=iterations_run,
        converged=converged,
    )
