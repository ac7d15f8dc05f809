"""Two-stage training.

Stage one pre-trains on atom-annotated 1D shift data with masked L1
losses (an absent modality adds no term), over-sampling the
proton-bearing minority. Stage two fine-tunes on unlabeled peak lists by
alternating pseudo-annotation (matching predictions to observations) with
training on the matched targets, until the assignments stop moving or the
iteration cap hits. Both stages train through one minibatch loop,
``_fit_epoch``, on items of one shape: a molecule, a solvent, the
model's ``ShiftReads`` of the targets and the target shifts in ppm (a
``Sample1D``, or a ``LabelTarget`` built from a molecule's pseudo-labels
once per iteration). One loss, ``_loss``, scores either: the L1 error
of the carbon and proton outputs the reads pick against those shifts
(``masked_mtt_loss``), a desk-scale step recording 20 tape entries.
Without a validation set, the one annotation sweep
after each fine-tuning round both scores the trained weights (the matched
MAE is a function of the labels alone) and labels the next round; the
iteration's initial loss is read from the labels too.

The sample record types live here: ``Sample1D``, ``SampleHSQC`` and the
expert-annotated ``AnnotatedTestRecord`` that wraps a ``SampleHSQC``.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

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
    C_PPM_CENTER, C_PPM_PER_UNIT, H_PPM_CENTER, H_PPM_PER_UNIT,
    CrossPeakModel, ModelConfig, Molecule, ShiftReads, SolventClass,
)

log = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class Sample1D:
    """A molecule's atom-annotated 1D shifts in one solvent. Construction
    checks the targets and builds, once, what every loss and MAE pass over
    the sample reads: the model's ``ShiftReads`` of the targets (each
    modality in atom order) and the target shifts as two ppm arrays. The
    target maps are read-only views of copies, so those arrays cannot go
    stale."""

    molecule: Molecule
    solvent: SolventClass
    c_targets: Mapping[int, float]
    h_targets: Mapping[int, float]
    reads: ShiftReads = field(init=False, repr=False, compare=False)
    c_ppm: np.ndarray = field(init=False, repr=False, compare=False)
    h_ppm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.c_targets and not self.h_targets:
            raise ValueError(f"sample {self.molecule.smiles!r} has no shift targets")
        c_atoms, h_atoms = sorted(self.c_targets), sorted(self.h_targets)
        for name, value in (
            ("reads", ShiftReads.of(self.molecule, c_atoms, h_atoms)),
            ("c_ppm", np.array([self.c_targets[idx] for idx in c_atoms], dtype=np.float64)),
            ("h_ppm", np.array([self.h_targets[idx] for idx in h_atoms], dtype=np.float64)),
            ("c_targets", MappingProxyType(dict(self.c_targets))),
            ("h_targets", MappingProxyType(dict(self.h_targets))),
        ):
            object.__setattr__(self, name, value)


@dataclass
class SampleHSQC:
    molecule: Molecule
    solvent: SolventClass
    peaks: list[ObservedPeak]
    saccharide: bool = False


@dataclass
class AnnotatedTestRecord:
    """A peak list plus the expert ground-truth assignment.

    ``expert`` maps each observed peak index to the C-H units it
    represents, each unit written (carbon index, slot)."""

    sample: SampleHSQC
    expert: dict[int, list[tuple[int, int]]]


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


@dataclass(eq=False)
class TrainResult:
    """A pre-training run's outcome. Instances compare by identity: the
    states hold numpy arrays, which no generated ``__eq__`` can compare."""

    best_state: dict[str, np.ndarray]
    final_state: dict[str, np.ndarray]
    history: list[dict]
    best_epoch: int


def masked_mtt_loss(sample: Sample1D | LabelTarget, predictions: tuple[Tensor, Tensor]) -> Tensor:
    """The L1 rule of both stages: mean |shift - target| over the raw carbon
    and proton outputs against the sample's ``c_ppm`` and ``h_ppm``, in
    output order.

    ``predictions`` are the raw (carbon, proton) outputs that
    ``atom_shift_tensors`` gives for the sample's reads. Residuals are taken
    in ppm and divided by the modality's ppm per output unit, so a target
    equal to the model's own prediction in ppm gives exactly zero loss and
    gradient. An absent modality contributes no term, hence no gradient to
    its head. A modality whose output and target counts differ raises
    ``DimensionError``.
    """
    counts = [len(sample.c_ppm), len(sample.h_ppm)]
    sizes = [out.values.size for out in predictions]
    if sizes != counts:
        raise ad.DimensionError(f"(carbon, proton) outputs {sizes} vs targets {counts}")
    return ad.mean_abs_error(
        list(predictions),
        np.concatenate([sample.c_ppm, sample.h_ppm]),
        scale=np.repeat([C_PPM_PER_UNIT, H_PPM_PER_UNIT], counts),
        center=np.repeat([C_PPM_CENTER, H_PPM_CENTER], counts),
    )


def _loss(model: CrossPeakModel, item: Sample1D | LabelTarget) -> Tensor:
    """The training loss of a ``Sample1D`` or a ``LabelTarget``."""
    outputs = model.atom_shift_tensors(item.molecule, item.solvent, item.reads)
    return masked_mtt_loss(item, outputs)


def dataset_mae(model: CrossPeakModel, dataset: list[Sample1D]) -> tuple[float, float]:
    """(carbon MAE, proton MAE) in ppm; NaN for an absent modality."""
    c_err: list[float] = []
    h_err: list[float] = []
    for sample in dataset:
        raw_c, raw_h = model.atom_shift_tensors(sample.molecule, sample.solvent, sample.reads)
        c_err.extend(np.abs(model.ppm_c(raw_c.values) - sample.c_ppm))
        h_err.extend(np.abs(model.ppm_h(raw_h.values) - sample.h_ppm))
    return _mae(c_err), _mae(h_err)


def _mae(errors: list[float]) -> float:
    """Mean of absolute errors; NaN for none."""
    return float(np.mean(errors)) if errors else float("nan")


def _selection_metric(mae_c: float, mae_h: float) -> float:
    """Worst modality error in output units; checkpoints are selected on
    the weaker head so neither modality degrades unchecked."""
    c = 0.0 if np.isnan(mae_c) else mae_c / C_PPM_PER_UNIT
    h = 0.0 if np.isnan(mae_h) else mae_h / H_PPM_PER_UNIT
    return max(c, h)


def _fit_epoch(model: CrossPeakModel, optimizer: Adam, items: list,
               batch_size: int) -> list[float]:
    """One pass over ``items`` in order, one optimizer step per minibatch.

    Each item's ``_loss`` is scaled by 1 / batch length, so a batch's
    gradient is the mean over its items. Returns the batch losses (sums of
    the scaled item losses), in order.
    """
    losses: list[float] = []
    for lo in range(0, len(items), batch_size):
        batch = items[lo : lo + batch_size]
        optimizer.zero_grad()
        batch_loss = 0.0
        for item in batch:
            with ComputeRecord() as record:
                loss = ad.scale(_loss(model, item), 1.0 / len(batch))
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
    model = CrossPeakModel(model_config, state=init_state)
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
            model, optimizer, [train_samples[i] for i in order], config.batch_size
        )
        epoch_loss = 0.0
        for batch_loss in batch_losses:  # in order, as the batches ran
            epoch_loss += batch_loss
        eval_set = val_samples if val_samples else train_samples
        mae_c, mae_h = dataset_mae(model, eval_set)
        metric = _selection_metric(mae_c, mae_h)
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
        best_epoch=best_epoch,
    )


# ---------------------------------------------------------------------------
# Unsupervised fine-tuning
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FinetuneResult:
    """A fine-tuning run's outcome. Instances compare by identity, as a
    ``TrainResult``'s do."""

    best_state: dict[str, np.ndarray]
    final_state: dict[str, np.ndarray]
    history: list[dict]
    iterations_run: int
    converged: bool


@dataclass(frozen=True)
class LabelTarget:
    """A molecule's pseudo-labels as a training item, the fields ``_loss``
    reads from a ``Sample1D``: the labels in (carbon, slot) order, their
    ``ShiftReads`` and their observed shifts in ppm.

    A slot-2 label for a carbon means its two proton outputs were emitted
    separately at annotation time, so each slot trains its own output;
    otherwise the single label trains the slot mean. This keeps the loss
    well-defined even if the merge decision flips during the iteration.
    """

    molecule: Molecule
    solvent: SolventClass
    reads: ShiftReads
    c_ppm: np.ndarray
    h_ppm: np.ndarray

    @classmethod
    def of(cls, sample: SampleHSQC, labels: PseudoLabels) -> "LabelTarget":
        entries = sorted(labels.entries, key=lambda e: (e.carbon_index, e.slot))
        carbons = [e.carbon_index for e in entries]
        split = {e.carbon_index for e in entries if e.slot == 2}
        reads = ShiftReads.at(sample.molecule, carbons, carbons, [e.slot for e in entries],
                              [carbon in split for carbon in carbons])
        return cls(sample.molecule, sample.solvent, reads,
                   np.array([e.delta_c for e in entries], dtype=np.float64),
                   np.array([e.delta_h for e in entries], dtype=np.float64))


def _label_loss(labels: PseudoLabels) -> float:
    """``_loss`` of the labels' ``LabelTarget`` at the weights that made
    ``labels``, bit for bit: each entry keeps the predicted shifts that loss
    reads, so the labels alone give its ppm residuals per output unit, in
    (carbon, slot) order."""
    entries = sorted(labels.entries, key=lambda e: (e.carbon_index, e.slot))
    c = [(e.pred_delta_c - e.delta_c) / C_PPM_PER_UNIT for e in entries]
    h = [(e.pred_delta_h - e.delta_h) / H_PPM_PER_UNIT for e in entries]
    return float(np.mean(np.abs(c + h)))


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
    model = CrossPeakModel(model_config, state=init_state)
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

        initial_loss = float(np.mean([_label_loss(lab) for _, lab in usable]))
        targets = [LabelTarget.of(sample, lab) for sample, lab in usable]
        for epoch in range(config.epochs):
            rng = np.random.default_rng([config.seed, 13, iteration, epoch])
            order = rng.permutation(len(targets))
            _fit_epoch(model, optimizer, [targets[k] for k in order], config.batch_size)

        swept = annotate_dataset(model, valset or dataset, match)
        labels = None if valset else swept
        mae_c, mae_h = matched_mae(swept)
        metric = _selection_metric(mae_c, mae_h)
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
