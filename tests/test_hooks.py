"""The public names benchmarks/tracing.py wraps to time each layer.

The traced benchmark replaces module and class attributes with timing
wrappers, so a call that stops going through one of these names (or a name
that disappears) silently zeroes a per-layer metric. Each test wraps the
names with counters and checks that the library's own calls reach them.
"""

from __future__ import annotations

import importlib

import numpy as np

from hsqcnet import assign, autodiff, dataio, model, train
from hsqcnet.assign import MatchSettings, ObservedPeak
from hsqcnet.model import CrossPeakModel, ModelConfig, ShiftReads, SolventClass, prepare_molecule
from hsqcnet.train import Sample1D, SampleHSQC, TrainConfig

# by import path: the package attribute ``hsqcnet.evaluate`` is the function
evaluate = importlib.import_module("hsqcnet.evaluate")

TINY = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5), seed=3)


def counting(monkeypatch, owner, name, calls: list, record=None):
    """Replace ``owner.name`` with a wrapper that appends one entry per call."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(record(args, kwargs) if record is not None else args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_every_traced_name_exists():
    for owner, name in [
        (model, "parse_smiles"), (dataio, "parse_smiles"),
        (model, "prepare_molecule"), (dataio, "prepare_molecule"),
        (model.CrossPeakModel, "encode_atoms"), (model.CrossPeakModel, "predict_cross_peaks"),
        (model.CrossPeakModel, "atom_shift_tensors"),
        (train, "backward"), (autodiff.Adam, "step"),
        (assign, "cost_matrix"), (assign, "hungarian"), (assign, "graduated_assignment"),
        (assign, "pseudo_annotate"), (train, "pseudo_annotate"), (evaluate, "pseudo_annotate"),
        (train, "annotate_dataset"), (train, "matched_mae"), (train, "dataset_mae"),
        (train, "mtt_pretrain"), (train, "finetune_unsupervised"),
        (dataio, "load_dataset"), (dataio, "load_checkpoint"), (dataio, "save_checkpoint"),
        (evaluate, "evaluate"),
    ]:
        assert callable(getattr(owner, name)), f"{owner.__name__}.{name}"


def test_encode_atoms_reached_from_prediction_and_1d_targets(monkeypatch):
    calls: list = []
    counting(monkeypatch, CrossPeakModel, "encode_atoms", calls)
    net = CrossPeakModel(TINY)
    molecule = prepare_molecule("CCO")
    net.predict_cross_peaks(molecule, SolventClass.DMSO)
    assert len(calls) == 1
    net.atom_shift_tensors(molecule, SolventClass.DMSO, ShiftReads.of(molecule, [0], [3]))
    assert len(calls) == 2


def test_pretraining_and_its_mae_pass_reach_atom_shift_tensors(monkeypatch):
    # model.atom_shift_share reads the time spent under this name
    calls: list = []
    counting(monkeypatch, CrossPeakModel, "atom_shift_tensors", calls)
    samples = [Sample1D(prepare_molecule("CCO"), SolventClass.UNKNOWN,
                        {0: 18.0, 1: 58.0}, {3: 1.2})]
    net = CrossPeakModel(TINY)
    train.dataset_mae(net, samples)
    assert len(calls) == 1
    config = TrainConfig(epochs=1, batch_size=1, oversample_factor=2, validation_split=0.0)
    train.mtt_pretrain(samples, config, model_config=TINY)
    assert len(calls) == 1 + 2 + 1  # two oversampled steps, then the epoch's MAE pass


def test_training_reaches_backward_and_adam_step(monkeypatch):
    tapes: list = []
    steps: list = []
    counting(monkeypatch, train, "backward", tapes, lambda a, k: a[1])
    counting(monkeypatch, autodiff.Adam, "step", steps)
    samples = [Sample1D(prepare_molecule("CCO"), SolventClass.UNKNOWN,
                        {0: 18.0, 1: 58.0}, {3: 1.2})]
    config = TrainConfig(epochs=1, batch_size=1, oversample_factor=2,
                         validation_split=0.0, max_iterations=1)
    pre = train.mtt_pretrain(samples, config, model_config=TINY)
    assert len(tapes) == 2 and len(steps) == 2
    hsqc = [SampleHSQC(prepare_molecule("CC"), SolventClass.UNKNOWN,
                       [ObservedPeak(7.0, 0.9, 0)])]
    train.finetune_unsupervised(pre.final_state, hsqc, None, config, model_config=TINY,
                                match=MatchSettings(reject_threshold=1e9))
    assert len(tapes) == 3 and len(steps) == 3
    for record in tapes:
        assert isinstance(record, autodiff.ComputeRecord)
        assert len(record) > 0  # the traced tape size


def test_pseudo_annotate_reaches_the_matchers(monkeypatch):
    costs: list = []
    exact: list = []
    graduated: list = []
    counting(monkeypatch, assign, "cost_matrix", costs)
    counting(monkeypatch, assign, "hungarian", exact)
    original = assign.graduated_assignment

    def traced(preds, observations, settings=None, on_sweep=None):
        sweeps: list = []
        graduated.append(sweeps)
        return original(preds, observations, settings, on_sweep=sweeps.append)

    monkeypatch.setattr(assign, "graduated_assignment", traced)
    net = CrossPeakModel(TINY)
    molecule = prepare_molecule("c1ccccc1")
    preds = net.predict_cross_peaks(molecule, SolventClass.UNKNOWN)
    assert len(preds) == 1
    assign.pseudo_annotate(molecule, preds, [ObservedPeak(128.0, 7.3, 0)])
    assert (len(costs), len(exact), len(graduated)) == (1, 1, 0)
    two = [ObservedPeak(128.0, 7.3, 0), ObservedPeak(120.0, 7.1, 1)]
    labels = assign.pseudo_annotate(molecule, preds, two)
    assert labels.provenance == "graduated"
    assert (len(costs), len(exact), len(graduated)) == (2, 1, 1)
    assert len(graduated[0]) > 0  # softassign sweeps reported through on_sweep


def test_graduated_reports_one_temperature_of_sweeps():
    # one softassign at one temperature: on_sweep fires once per sweep, so the
    # traced assign.softassign_sweeps count is ga.sweeps per call
    rng = np.random.default_rng(11)
    preds = [ObservedPeak(float(c), float(h), i)
             for i, (c, h) in enumerate(rng.uniform(0, 10, (9, 2)))]
    for match in (MatchSettings(), MatchSettings(ga=assign.GASettings(sweeps=7))):
        sweeps: list = []
        assign.graduated_assignment(preds, preds[:5], match, on_sweep=sweeps.append)
        assert len(sweeps) == match.ga.sweeps


def test_hungarian_solves_once_per_call(monkeypatch):
    # the tie-break works on the dual-tight edges of one optimum, so even a
    # tie-heavy matrix costs a single linear_sum_assignment call
    calls: list = []
    counting(monkeypatch, assign, "linear_sum_assignment", calls)
    rng = np.random.default_rng(5)
    for levels in (rng.integers(0, 3, size=(40, 40)), np.ones((40, 40))):
        before = len(calls)
        assign.hungarian(levels * 0.37)
        assert len(calls) == before + 1


def test_finetune_sweeps_the_training_set_once_per_iteration(monkeypatch):
    # without a validation set the sweep that scores iteration i also labels
    # iteration i + 1: two iterations that do not converge take three sweeps
    teacher = CrossPeakModel(ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4,
                                         mlp_hidden=(6, 5), seed=9))
    rng = np.random.default_rng(0)

    def peak_list(smiles):
        molecule = prepare_molecule(smiles)
        preds = teacher.predict_cross_peaks(molecule, SolventClass.UNKNOWN)
        order = rng.permutation(len(preds))
        return SampleHSQC(molecule, SolventClass.UNKNOWN, [
            ObservedPeak(preds[k].delta_c, preds[k].delta_h, j) for j, k in enumerate(order)
        ])

    samples = [peak_list(s) for s in ("CO", "CCO", "CC", "c1ccccc1", "CCC", "CC(C)O")]
    valset = [peak_list(s) for s in ("CCCC", "OCCO")]
    config = TrainConfig(epochs=1, batch_size=1, learning_rate=1e-2, max_iterations=2,
                         convergence_fraction=1e-9, seed=0)
    sweeps = {}
    for val in (None, valset):
        calls: list = []
        counting(monkeypatch, CrossPeakModel, "predict_cross_peaks", calls,
                 lambda a, k: a[1])
        result = train.finetune_unsupervised(
            CrossPeakModel(TINY).state_arrays(), samples, val, config, model_config=TINY,
            match=MatchSettings(reject_threshold=1e9),
        )
        monkeypatch.undo()
        assert not result.converged and result.iterations_run == 2
        sweeps[val is None] = tuple(
            sum(m is s.molecule for m in calls for s in group) / len(group)
            for group in (samples, valset)
        )
    assert sweeps[True] == (3, 0)
    assert sweeps[False] == (2, 2)  # training set at the top, valset after training


def test_finetune_loss_runs_only_on_the_tape(monkeypatch):
    # an iteration's initial loss is read from its labels, so every _loss
    # call is a training step: epochs x usable per iteration, and each one
    # reaches atom_shift_tensors, which model.atom_shift_share times
    calls: list = []
    shifts: list = []
    counting(monkeypatch, train, "_loss", calls, lambda a, k: bool(autodiff._ACTIVE))
    counting(monkeypatch, CrossPeakModel, "atom_shift_tensors", shifts,
             lambda a, k: bool(autodiff._ACTIVE))
    teacher = CrossPeakModel(TINY)
    samples = []
    for smiles in ("CO", "CCO", "CC", "c1ccccc1"):
        molecule = prepare_molecule(smiles)
        preds = teacher.predict_cross_peaks(molecule, SolventClass.UNKNOWN)
        samples.append(SampleHSQC(molecule, SolventClass.UNKNOWN, [
            ObservedPeak(p.delta_c, p.delta_h, j) for j, p in enumerate(preds)]))
    samples.append(SampleHSQC(prepare_molecule("CCC"), SolventClass.UNKNOWN,
                              [ObservedPeak(400.0, 40.0, 0)]))  # rejected
    config = TrainConfig(epochs=3, batch_size=2, learning_rate=1e-2, max_iterations=2,
                         convergence_fraction=1e-9, seed=0)
    result = train.finetune_unsupervised(teacher.state_arrays(), samples, None, config,
                                         model_config=TINY,
                                         match=MatchSettings(reject_threshold=10.0))
    usable = [len(samples) - line["rejected"] for line in result.history if "rejected" in line]
    assert usable == [4] * result.iterations_run
    assert len(calls) == config.epochs * sum(usable) and all(calls)
    assert shifts == calls
