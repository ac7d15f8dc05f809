from __future__ import annotations

from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsqcnet import autodiff as ad
from hsqcnet import train
from hsqcnet.dataio import Checkpoint
from hsqcnet.assign import MatchSettings, ObservedPeak, PseudoLabel, PseudoLabels
from hsqcnet.model import (
    C_PPM_PER_UNIT, H_PPM_PER_UNIT, CrossPeakModel, HeadRows, ModelConfig, ShiftReads,
    SolventClass, prepare_molecule,
)
from hsqcnet.train import (
    ConvergenceError,
    FinetuneResult,
    LabelTarget,
    Sample1D,
    SampleHSQC,
    TrainConfig,
    TrainResult,
    _loss,
    annotate_dataset,
    dataset_mae,
    finetune_unsupervised,
    masked_mtt_loss,
    matched_mae,
    mtt_pretrain,
)
from helpers import reference_heads, reference_label_reads

TINY = ModelConfig(num_layers=2, atom_dim=10, solvent_dim_h=4, mlp_hidden=(8, 6), seed=5)


def sample_1d(smiles, c, h, solvent=SolventClass.UNKNOWN):
    return Sample1D(prepare_molecule(smiles), solvent, c, h)


def tiny_dataset():
    return [
        sample_1d("CO", {0: 50.0}, {2: 3.3, 3: 3.3, 4: 3.3}),
        sample_1d("CC", {0: 6.5, 1: 6.5}, {}),
        sample_1d("CCO", {0: 18.0, 1: 58.0}, {6: 3.6, 7: 3.6}),
    ]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(convergence_fraction=0.0)
    TrainConfig(convergence_fraction=1.0)  # boundary allowed: one iteration
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    for bad in ({"epochs": 1.5}, {"batch_size": 2.5}, {"max_iterations": True},
                {"oversample_factor": 0}, {"seed": -1}, {"learning_rate": float("nan")},
                {"learning_rate": "x"}, {"convergence_fraction": "x"},
                {"validation_split": float("nan")}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)


def test_sample_requires_targets():
    with pytest.raises(ValueError):
        sample_1d("C", {}, {})


def test_masked_loss_hand_computed():
    model = CrossPeakModel(TINY)
    sample = sample_1d("CO", {0: 50.0}, {2: 3.3})
    preds = model.atom_shift_tensors(sample.molecule, sample.solvent, sample.reads)
    loss = masked_mtt_loss(sample, preds)
    c_raw, h_raw = preds[0].values[0], preds[1].values[0]
    expected = 0.5 * (
        abs(model.ppm_c(c_raw) - 50.0) / C_PPM_PER_UNIT
        + abs(model.ppm_h(h_raw) - 3.3) / H_PPM_PER_UNIT
    )
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_masked_loss_perfect_predictions_zero():
    # 1D targets equal to the model's own outputs in ppm are a fixed point,
    # as fine-tuning self-labels are: no residual, no gradient
    model = CrossPeakModel(TINY)
    for smiles in ("CO", "Cc1ccc(C)cc1"):
        molecule = prepare_molecule(smiles)
        carbons = [i for i, a in enumerate(molecule.graph.atoms) if a.element == "C"]
        hydrogens = [h for u in molecule.units for h in u.hydrogen_indices]
        reads = ShiftReads.of(molecule, carbons, hydrogens)
        raw_c, raw_h = model.atom_shift_tensors(molecule, SolventClass.DMSO, reads)
        sample = Sample1D(
            molecule, SolventClass.DMSO,
            dict(zip(carbons, model.ppm_c(raw_c.values).tolist())),
            dict(zip(hydrogens, model.ppm_h(raw_h.values).tolist())),
        )
        ad.zero_gradients(model.parameters())
        with ad.ComputeRecord() as rec:
            preds = model.atom_shift_tensors(molecule, sample.solvent, sample.reads)
            loss = masked_mtt_loss(sample, preds)
        ad.backward(loss, rec)
        assert loss.item() == 0.0, smiles
        assert all(not p.grad.any() for p in model.parameters()), smiles


def test_masked_loss_missing_prediction_is_contract_error():
    model = CrossPeakModel(TINY)
    sample = sample_1d("CO", {0: 50.0}, {2: 3.3})
    preds = model.atom_shift_tensors(sample.molecule, sample.solvent,
                                     ShiftReads.of(sample.molecule, [0], []))
    with pytest.raises(ad.DimensionError, match=r"outputs \[1, 0\] vs targets \[1, 1\]"):
        masked_mtt_loss(sample, preds)
    preds = model.atom_shift_tensors(sample.molecule, sample.solvent,
                                     ShiftReads.of(sample.molecule, [0, 0], [2]))
    with pytest.raises(ad.DimensionError):  # three outputs, three targets, split 2 + 1
        masked_mtt_loss(sample_1d("CO", {0: 50.0}, {2: 3.3, 3: 3.3}), preds)


def test_c_only_sample_gives_zero_h_head_gradient():
    model = CrossPeakModel(TINY)
    sample = sample_1d("CC", {0: 6.5, 1: 6.5}, {})
    ad.zero_gradients(model.parameters())
    with ad.ComputeRecord() as rec:
        preds = model.atom_shift_tensors(sample.molecule, sample.solvent, sample.reads)
        loss = masked_mtt_loss(sample, preds)
    ad.backward(loss, rec)
    for name, param in model.params.items():
        if name.startswith("h_head") or name.startswith("embed.solvent"):
            assert np.all(param.grad == 0.0), name
    assert np.any(model.params["c_head.w3"].grad != 0.0)


def test_h_only_sample_gives_zero_c_head_gradient():
    model = CrossPeakModel(TINY)
    sample = sample_1d("CO", {}, {2: 3.3, 3: 3.3})
    ad.zero_gradients(model.parameters())
    with ad.ComputeRecord() as rec:
        preds = model.atom_shift_tensors(sample.molecule, sample.solvent, sample.reads)
        loss = masked_mtt_loss(sample, preds)
    ad.backward(loss, rec)
    for name, param in model.params.items():
        if name.startswith("c_head"):
            assert np.all(param.grad == 0.0), name
    assert np.any(model.params["h_head.w3"].grad != 0.0)


def test_atom_shift_targets_validated():
    mol = prepare_molecule("CO")
    for carbon in (1, -6, 6):  # -6 names carbon 0 by Python indexing
        with pytest.raises(ValueError, match="not a carbon"):
            ShiftReads.of(mol, [carbon], [])
    for hydrogen in (0, -2, 6):
        with pytest.raises(ValueError, match="not a hydrogen"):
            ShiftReads.of(mol, [], [hydrogen])
    with pytest.raises(ValueError, match="not bonded to carbon"):
        ShiftReads.of(mol, [], [5])  # the OH proton


def _per_call_and_per_sample(model, sample):
    """Outputs, loss and parameter gradients of a sample's pre-training loss,
    first with the target arrays built in the call from the target maps, then
    with the ones the sample built once."""
    runs = []
    for per_call in (True, False):
        ad.zero_gradients(model.parameters())
        with ad.ComputeRecord() as rec:
            if per_call:
                c_atoms, h_atoms = sorted(sample.c_targets), sorted(sample.h_targets)
                outputs = model.atom_shift_tensors(
                    sample.molecule, sample.solvent,
                    ShiftReads.of(sample.molecule, c_atoms, h_atoms))
                targets = SimpleNamespace(
                    c_ppm=np.array([sample.c_targets[i] for i in c_atoms], dtype=np.float64),
                    h_ppm=np.array([sample.h_targets[i] for i in h_atoms], dtype=np.float64))
                loss = masked_mtt_loss(targets, outputs)
            else:
                outputs = model.atom_shift_tensors(sample.molecule, sample.solvent,
                                                   sample.reads)
                loss = _loss(model, sample)
        ad.backward(loss, rec)
        runs.append([outputs[0].values, outputs[1].values, loss.values,
                     *(p.grad.copy() for p in model.parameters())])
    return runs


def _assert_same_bits(runs):
    per_call, per_sample = runs
    for got, want in zip(per_sample, per_call, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_sample_arrays_equal_the_per_call_path_on_toy_1d(toy_1d_samples):
    model = CrossPeakModel(TINY)
    for sample in toy_1d_samples:
        _assert_same_bits(_per_call_and_per_sample(model, sample))


_DRAWN_MOLECULES = {smiles: prepare_molecule(smiles) for smiles in (
    "C[H]CO", "OC1.C[H]1", "CC(=O)OCc1ccccc1", "CCC(C)=O", "ClC(Cl)(Cl)C", "[C]")}


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sample_arrays_equal_the_per_call_path_on_drawn_targets(data):
    molecule = _DRAWN_MOLECULES[data.draw(st.sampled_from(sorted(_DRAWN_MOLECULES)))]
    carbons = [i for i, a in enumerate(molecule.graph.atoms) if a.element == "C"]
    hydrogens = sorted({h for u in molecule.units for h in u.hydrogen_indices})
    shifts = st.floats(-10.0, 250.0, allow_nan=False)
    c = data.draw(st.dictionaries(st.sampled_from(carbons), shifts))
    h = data.draw(st.dictionaries(st.sampled_from(hydrogens), shifts) if hydrogens
                  else st.just({}))
    assume(c or h)
    sample = Sample1D(molecule, data.draw(st.sampled_from(list(SolventClass))), c, h)
    _assert_same_bits(_per_call_and_per_sample(CrossPeakModel(TINY), sample))


def test_sample_rejects_bad_targets_with_the_per_call_messages():
    mol = prepare_molecule("CO")
    for c, h, message in (
        ({1: 50.0}, {}, "carbon target index 1 is not a carbon atom"),
        ({}, {0: 3.3}, "proton target index 0 is not a hydrogen atom"),
        ({0: 50.0}, {5: 3.3}, "no prediction covers hydrogen 5: not bonded to carbon"),
    ):
        with pytest.raises(ValueError, match=message):
            Sample1D(mol, SolventClass.UNKNOWN, c, h)
        with pytest.raises(ValueError, match=message):
            ShiftReads.of(mol, sorted(c), sorted(h))


def test_sample_arrays_cannot_go_stale():
    targets = {0: 50.0}
    sample = Sample1D(prepare_molecule("CO"), SolventClass.UNKNOWN, targets, {2: 3.3})
    targets[0] = 10.0  # the sample keeps a copy
    assert dict(sample.c_targets) == {0: 50.0} and sample.c_ppm.tolist() == [50.0]
    with pytest.raises(TypeError):
        sample.h_targets[3] = 3.3
    with pytest.raises(FrozenInstanceError):
        sample.c_targets = {0: 10.0}


def test_pretrain_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        mtt_pretrain([], TrainConfig())


def test_pretrain_tape_length_does_not_grow_with_targets(monkeypatch, desk_config):
    # one head evaluation, one carbon gather, one proton rule and one loss
    # op per sample, however many atoms carry targets
    tapes: list[int] = []
    original = train.backward

    def counting_backward(loss, record):
        tapes.append(len(record))
        original(loss, record)

    monkeypatch.setattr(train, "backward", counting_backward)
    methanol = sample_1d("CO", {0: 50.0}, {2: 3.3, 3: 3.3, 4: 3.3})
    xylene = prepare_molecule("Cc1ccc(C)cc1")
    targets = Sample1D(
        xylene, SolventClass.CHLOROFORM,
        {i: 100.0 for i, a in enumerate(xylene.graph.atoms) if a.element == "C"},
        {h: 4.0 for u in xylene.units for h in u.hydrogen_indices},
    )
    assert (len(targets.c_targets), len(targets.h_targets)) == (8, 10)
    mtt_pretrain([methanol, targets], TrainConfig(epochs=1, batch_size=1, oversample_factor=1,
                                                  validation_split=0.0),
                 model_config=desk_config)
    # 5 gathers, 5 message layers, 3 scales, 2 embeddings, 2 heads,
    # 2 segment sums and the loss
    assert tapes == [20, 20]


def _butyric_labels(shifts) -> PseudoLabels:
    """Labels of butyric acid's C-H carbons: methylene C1 split into two
    slots, methylene C2 merged into one, and the methyl; ``shifts`` gives
    each entry's observed (delta_c, delta_h)."""
    keys = [(0, 1), (1, 1), (1, 2), (2, 1)]
    return PseudoLabels(
        entries=[PseudoLabel(c, slot, k, dc, dh, dc, dh)
                 for k, ((c, slot), (dc, dh)) in enumerate(zip(keys, shifts))],
        provenance="hungarian", mean_cost=0.0, rejected=False,
    )


def _read_arrays(reads) -> list[np.ndarray]:
    heads, protons = reads.heads, reads.protons
    ids = [heads.carbons, heads.h_index, heads.h_row, *reads.carbon, *protons.index,
           protons.segments]
    return [*(i.array for i in ids), np.array([i.bound for i in ids]), heads.h_weight,
            protons.weight]


def test_label_target_reads_equal_the_hand_built_layout(toy_hsqc_samples):
    # ShiftReads.at lays pseudo-labels out as LabelTarget.of once did by
    # hand: a split and a merged methylene, the same labels in reverse
    # order, and the labels of the toy HSQC set
    butyric = prepare_molecule("CCCC(=O)O")
    labels = _butyric_labels([(14.0, 0.9), (18.0, 1.6), (18.0, 1.7), (36.0, 2.3)])
    backwards = replace(labels, entries=labels.entries[::-1])
    cases = [(butyric, labels), (butyric, backwards)]
    toy = annotate_dataset(CrossPeakModel(TINY), toy_hsqc_samples, MatchSettings())
    cases += [(s.molecule, lab) for s, lab in zip(toy_hsqc_samples, toy) if lab is not None]
    assert len(cases) > 10
    for molecule, lab in cases:
        got = LabelTarget.of(SampleHSQC(molecule, SolventClass.DMSO, []), lab).reads
        want = reference_label_reads(molecule, lab)
        for g, w in zip(_read_arrays(got), _read_arrays(want), strict=True):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def _read_leaves(value):
    """Every array a ``ShiftReads`` holds, through its nested records and
    tuples."""
    if isinstance(value, tuple):
        for part in value:
            yield from _read_leaves(part)
    elif is_dataclass(value):
        for f in fields(value):
            yield from _read_leaves(getattr(value, f.name))
    else:
        yield value


def test_reads_hold_their_index_arrays_as_ids():
    # checked once when built: every index array of a sample's or a label
    # target's reads is an Ids, bounded by the head rows or the targets;
    # the rest are the float weights
    sample = sample_1d("CCO", {0: 18.0, 1: 58.0}, {3: 1.2, 6: 3.6, 7: 3.6})
    labels = _butyric_labels([(14.0, 0.9), (18.0, 1.6), (18.0, 1.7), (36.0, 2.3)])
    target = LabelTarget.of(SampleHSQC(prepare_molecule("CCCC(=O)O"), SolventClass.DMSO, []),
                            labels)
    for item, head_rows in ((sample, 2), (target, 3)):
        reads = item.reads
        assert all(isinstance(leaf, ad.Ids) or leaf.dtype == np.float64
                   for leaf in _read_leaves(reads))
        (c_rows, c_column), (h_rows, h_column) = reads.carbon, reads.protons.index
        assert len(reads.heads.carbons.array) == head_rows
        assert (c_rows.bound, h_rows.bound, reads.heads.h_row.bound) == (head_rows,) * 3
        assert (c_column.bound, h_column.bound) == (1, 2)
        assert len(c_rows.array) == len(item.c_ppm)
        assert reads.protons.segments.bound == len(item.h_ppm)


def test_finetune_tape_length_equals_pretraining(monkeypatch, desk_config):
    # a label target reads the heads through the same reads and loss as a
    # 1D sample: one split and one merged methylene add no tape entry
    tapes: list[int] = []
    original = train.backward

    def counting_backward(loss, record):
        tapes.append(len(record))
        original(loss, record)

    monkeypatch.setattr(train, "backward", counting_backward)
    molecule = prepare_molecule("CCCC(=O)O")
    labels = _butyric_labels([(14.0, 0.9), (18.0, 1.6), (18.0, 1.7), (36.0, 2.3)])
    target = LabelTarget.of(SampleHSQC(molecule, SolventClass.DMSO, []), labels)
    model = CrossPeakModel(desk_config)
    train._fit_epoch(model, ad.Adam(model.parameters()), [target], 1)
    assert tapes == [20]


def test_label_loss_away_from_the_labelling_weights_matches_numpy():
    # the loss of a split and a merged methylene at weights that did not make
    # the labels: the joined-input heads in numpy, the slot's own proton
    # output for a split carbon and the pair mean for a merged one
    model = CrossPeakModel(replace(TINY, seed=11))
    molecule = prepare_molecule("CCCC(=O)O")
    for solvent in (SolventClass.DMSO, SolventClass.WATER):
        raw_c, raw_h = reference_heads(model, molecule, solvent, [0, 1, 2])
        proton = [raw_h[0].mean(), raw_h[1, 0], raw_h[1, 1], raw_h[2].mean()]
        # the split slots' targets lie outside their pair, where reading the
        # pair mean would give another L1 sum
        low, high = model.ppm_h(raw_h[1])
        shifts = [(14.0, 0.9), (18.0, low - 1.0), (18.0, high + 1.0), (36.0, 2.3)]
        labels = _butyric_labels(shifts)
        loss = _loss(model, LabelTarget.of(SampleHSQC(molecule, solvent, []), labels))
        residuals = [
            *(abs(model.ppm_c(raw_c[r, 0]) - dc) / C_PPM_PER_UNIT
              for r, (dc, _) in zip([0, 1, 1, 2], shifts)),
            *(abs(model.ppm_h(h) - dh) / H_PPM_PER_UNIT for h, (_, dh) in zip(proton, shifts)),
        ]
        want = np.mean(residuals)
        assert want > 0.0 and abs(loss.item() - want) <= 1e-12 * want


def test_oversample_factor_one_sees_each_sample_once():
    data = tiny_dataset()
    config = TrainConfig(epochs=1, batch_size=1, learning_rate=1e-4,
                         oversample_factor=1, validation_split=0.0, seed=0)
    result = mtt_pretrain(data, config, model_config=TINY)
    assert len(result.history) == 1
    # loss averages over exactly len(data) batches of size 1
    # (indirect check: a second epoch-less run is consistent)
    config8 = TrainConfig(epochs=1, batch_size=1, learning_rate=1e-4,
                          oversample_factor=3, validation_split=0.0, seed=0)
    result8 = mtt_pretrain(data, config8, model_config=TINY)
    assert result.history[0]["loss"] != result8.history[0]["loss"]


def test_pretrain_deterministic_trajectory():
    data = tiny_dataset()
    config = TrainConfig(epochs=3, batch_size=2, learning_rate=1e-3,
                         oversample_factor=2, validation_split=0.0, seed=9)
    a = mtt_pretrain(data, config, model_config=TINY)
    b = mtt_pretrain(data, config, model_config=TINY)
    assert [h["loss"] for h in a.history] == [h["loss"] for h in b.history]
    for name in a.final_state:
        assert np.array_equal(a.final_state[name], b.final_state[name])


def test_pretrain_best_metric_not_worse_than_final():
    data = tiny_dataset()
    config = TrainConfig(epochs=5, batch_size=1, learning_rate=5e-3,
                         oversample_factor=1, validation_split=0.0, seed=2)
    result = mtt_pretrain(data, config, model_config=TINY)
    model_best = CrossPeakModel(TINY)
    model_best.load_state(result.best_state)
    model_final = CrossPeakModel(TINY)
    model_final.load_state(result.final_state)
    c_b, h_b = dataset_mae(model_best, data)
    c_f, h_f = dataset_mae(model_final, data)
    metric = lambda c, h: max(c / C_PPM_PER_UNIT, h / H_PPM_PER_UNIT)
    assert metric(c_b, h_b) <= metric(c_f, h_f) + 1e-12


def test_resume_reproduces_next_epoch():
    data = tiny_dataset()
    base = dict(batch_size=2, learning_rate=1e-3, oversample_factor=2,
                validation_split=0.0, seed=4)
    full = mtt_pretrain(data, TrainConfig(epochs=3, **base), model_config=TINY)
    part = mtt_pretrain(data, TrainConfig(epochs=2, **base), model_config=TINY)
    resumed = mtt_pretrain(
        data,
        TrainConfig(epochs=1, **base),
        model_config=TINY,
        init_state=part.final_state,
        start_epoch=2,
    )
    # the next step's loss is a pure function of the restored parameters and
    # the seeded epoch order (the optimizer's moments intentionally restart)
    assert resumed.history[0]["first_batch_loss"] == pytest.approx(
        full.history[2]["first_batch_loss"], abs=1e-10
    )


def hsqc_from_model(model, smiles_list, solvent=SolventClass.UNKNOWN, shuffle_seed=0):
    rng = np.random.default_rng(shuffle_seed)
    samples = []
    truth = []
    for smiles in smiles_list:
        mol = prepare_molecule(smiles)
        preds = model.predict_cross_peaks(mol, solvent)
        order = list(rng.permutation(len(preds)))
        peaks = [None] * len(preds)
        mapping = {}
        for i, j in enumerate(order):
            peaks[j] = ObservedPeak(preds[i].delta_c, preds[i].delta_h)
            mapping[(preds[i].ch_unit.carbon_index, preds[i].peak_slot)] = j
        samples.append(SampleHSQC(mol, solvent, peaks))
        truth.append(mapping)
    return samples, truth


def test_finetune_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        finetune_unsupervised(CrossPeakModel(TINY).state_arrays(), [], None, TrainConfig())


def test_finetune_convergence_fraction_one_runs_single_iteration():
    model = CrossPeakModel(TINY)
    samples, _ = hsqc_from_model(model, ["CO", "CCO", "CC"])
    config = TrainConfig(epochs=1, batch_size=2, learning_rate=1e-4,
                         max_iterations=5, convergence_fraction=1.0, seed=1)
    result = finetune_unsupervised(model.state_arrays(), samples, None, config,
                                   model_config=TINY)
    assert result.iterations_run == 1
    assert result.converged


def test_finetune_all_rejected_is_convergence_error():
    model = CrossPeakModel(TINY)
    samples, _ = hsqc_from_model(model, ["CO", "CC"])
    config = TrainConfig(epochs=1, batch_size=1, learning_rate=1e-4, seed=1)
    impossible = MatchSettings(reject_threshold=-1.0)  # everything rejected
    with pytest.raises(ConvergenceError):
        finetune_unsupervised(model.state_arrays(), samples, None, config,
                              model_config=TINY, match=impossible)


def test_matched_mae_is_error_between_matched_predictions_and_peaks():
    model = CrossPeakModel(TINY)
    teacher = CrossPeakModel(replace(TINY, seed=9))
    samples, _ = hsqc_from_model(teacher, ["CO", "CCO", "c1ccccc1", "CC(C)O"])
    samples.append(SampleHSQC(prepare_molecule("CC"), SolventClass.UNKNOWN, []))
    labels = annotate_dataset(model, samples, MatchSettings(reject_threshold=0.0))
    assert labels[-1] is None and all(lab.rejected for lab in labels[:-1])
    c_err, h_err = [], []
    for sample, lab in zip(samples[:-1], labels):
        preds = model.predict_cross_peaks(sample.molecule, sample.solvent)
        by_key = {(p.ch_unit.carbon_index, p.peak_slot): p for p in preds}
        for entry in lab.entries:
            pred = by_key[(entry.carbon_index, entry.slot)]
            peak = sample.peaks[entry.obs_index]
            c_err.append(abs(pred.delta_c - peak.delta_c))
            h_err.append(abs(pred.delta_h - peak.delta_h))
    # rejected molecules still count: the MAE scores the weights, not the labels kept
    assert matched_mae(labels) == (np.mean(c_err), np.mean(h_err))
    assert np.isnan(matched_mae([None])).all()


def test_finetune_scores_iterations_on_the_validation_set():
    teacher = CrossPeakModel(replace(TINY, seed=9))
    samples, _ = hsqc_from_model(teacher, ["CO", "CCO", "CC", "c1ccccc1"])
    valset, _ = hsqc_from_model(teacher, ["CCC", "CC(C)O"], shuffle_seed=1)
    config = TrainConfig(epochs=1, batch_size=2, learning_rate=1e-2,
                         max_iterations=1, seed=3)
    match = MatchSettings(reject_threshold=1e9)
    result = finetune_unsupervised(CrossPeakModel(TINY).state_arrays(), samples, valset,
                                   config, model_config=TINY, match=match)
    trained = CrossPeakModel(TINY)
    trained.load_state(result.final_state)
    line = result.history[-1]
    assert line["validation"] is True
    on_valset = matched_mae(annotate_dataset(trained, valset, match))
    assert (line["mae_c"], line["mae_h"]) == on_valset
    assert on_valset != matched_mae(annotate_dataset(trained, samples, match))


@pytest.mark.parametrize("with_valset", [False, True])
def test_initial_loss_is_the_finetune_loss_at_the_labels_weights(monkeypatch, with_valset):
    # the labels carry the shifts they were matched with, so an iteration's
    # initial loss runs no forward pass; it must still equal the mean of
    # the loss of their LabelTargets over the usable molecules at the weights
    # that labelled them
    teacher = CrossPeakModel(replace(TINY, seed=9))
    samples, _ = hsqc_from_model(teacher, ["CO", "CCO", "CC", "c1ccccc1", "CCC"])
    samples.append(SampleHSQC(prepare_molecule("CC(C)O"), SolventClass.UNKNOWN,
                              [ObservedPeak(400.0, 40.0), ObservedPeak(390.0, 45.0)]))
    valset = hsqc_from_model(teacher, ["CCCC", "OCCO"], shuffle_seed=1)[0] if with_valset else None
    sweeps = []  # (weights, labels) of every training-set annotation, in order
    original = train.annotate_dataset

    def recording(model, dataset, settings):
        labels = original(model, dataset, settings)
        if dataset is samples:
            sweeps.append((model.state_arrays(), labels))
        return labels

    monkeypatch.setattr(train, "annotate_dataset", recording)
    config = TrainConfig(epochs=2, batch_size=2, learning_rate=1e-2, max_iterations=2,
                         convergence_fraction=1e-9, seed=4)
    result = finetune_unsupervised(CrossPeakModel(TINY).state_arrays(), samples, valset, config,
                                   model_config=TINY, match=MatchSettings(reject_threshold=10.0))
    lines = [line for line in result.history if "initial_loss" in line]
    assert len(lines) == result.iterations_run == 2
    for line, (state, labels) in zip(lines, sweeps):
        assert line["rejected"] == 1 and labels[-1].rejected  # the far-off peak list
        model = CrossPeakModel(TINY, state=state)
        usable = [(s, lab) for s, lab in zip(samples, labels) if not lab.rejected]
        want = float(np.mean([_loss(model, LabelTarget.of(s, lab)).item() for s, lab in usable]))
        assert line["initial_loss"] == want


def test_finetune_recovers_teacher_assignments():
    model = CrossPeakModel(TINY)
    samples, truth = hsqc_from_model(
        model, ["CO", "CCO", "CC", "c1ccccc1", "CCC"], shuffle_seed=3
    )
    config = TrainConfig(epochs=1, batch_size=2, learning_rate=1e-4,
                         max_iterations=3, convergence_fraction=0.01, seed=2)
    result = finetune_unsupervised(model.state_arrays(), samples, None, config,
                                   model_config=TINY)
    student = CrossPeakModel(TINY)
    student.load_state(result.final_state)
    labels = annotate_dataset(student, samples, MatchSettings())
    agree = total = 0
    for mapping, lab in zip(truth, labels):
        for entry in lab.entries:
            total += 1
            agree += mapping.get((entry.carbon_index, entry.slot)) == entry.obs_index
    assert total > 0
    assert agree / total >= 0.99


def test_finetune_label_change_logged():
    model = CrossPeakModel(TINY)
    samples, _ = hsqc_from_model(model, ["CO", "CCO"])
    config = TrainConfig(epochs=1, batch_size=1, learning_rate=1e-4,
                         max_iterations=2, convergence_fraction=1e-9, seed=0)
    result = finetune_unsupervised(model.state_arrays(), samples, None, config,
                                   model_config=TINY)
    assert any("label_change_fraction" in line for line in result.history)


def test_oversampling_never_mutates_targets():
    data = tiny_dataset()
    before = [(dict(s.c_targets), dict(s.h_targets)) for s in data]
    config = TrainConfig(epochs=2, batch_size=2, learning_rate=1e-3,
                         oversample_factor=4, validation_split=0.0, seed=0)
    mtt_pretrain(data, config, model_config=TINY)
    after = [(dict(s.c_targets), dict(s.h_targets)) for s in data]
    assert before == after


@pytest.mark.parametrize("merge_tolerance_h", [0.0, 1e9])
def test_one_head_path_for_prediction_1d_targets_and_finetuning(merge_tolerance_h):
    config = ModelConfig(num_layers=2, atom_dim=10, solvent_dim_h=4, mlp_hidden=(8, 6),
                         seed=5, merge_tolerance_h=merge_tolerance_h)
    model = CrossPeakModel(config)
    molecule = prepare_molecule("CCC(C)=O")  # carbon 1 is a methylene
    solvent = SolventClass.DMSO
    peaks = model.predict_cross_peaks(molecule, solvent)
    slots = {(p.ch_unit.carbon_index, p.peak_slot): p for p in peaks}
    assert ((1, 2) in slots) == (merge_tolerance_h == 0.0)

    carbons = [u.carbon_index for u in molecule.units if u.is_representative]
    methylene = next(u for u in molecule.units if u.carbon_index == 1)
    raw_c, raw_h = model.head_outputs(molecule, solvent, HeadRows.of(molecule, carbons))
    pair = raw_h.values[carbons.index(1)]
    slot_mean = (pair[0] + pair[1]) * 0.5
    c_out, h_out = model.atom_shift_tensors(
        molecule, solvent, ShiftReads.of(molecule, carbons, list(methylene.hydrogen_indices))
    )
    assert h_out.values.tolist() == [slot_mean] * len(methylene.hydrogen_indices)
    for row, carbon in enumerate(carbons):
        assert c_out.values[row] == raw_c.values[row, 0]
        assert slots[(carbon, 1)].delta_c == model.ppm_c(raw_c.values[row, 0])
    if (1, 2) in slots:
        assert slots[(1, 1)].delta_h == model.ppm_h(pair[0])
        assert slots[(1, 2)].delta_h == model.ppm_h(pair[1])
    else:
        assert slots[(1, 1)].delta_h == model.ppm_h(slot_mean)

    labels = PseudoLabels(
        entries=[PseudoLabel(p.ch_unit.carbon_index, p.peak_slot, k, p.delta_c, p.delta_h,
                             p.delta_c, p.delta_h)
                 for k, p in enumerate(peaks)],
        provenance="hungarian", mean_cost=0.0, rejected=False,
    )
    sample = SampleHSQC(molecule, solvent, [])
    ad.zero_gradients(model.parameters())
    with ad.ComputeRecord() as record:
        loss = _loss(model, LabelTarget.of(sample, labels))
    ad.backward(loss, record)
    assert loss.item() == 0.0
    # a self-label is a fixed point: rounding in ppm conversions adds no gradient
    assert all(np.all(p.grad == 0.0) for p in model.parameters())


def test_results_and_checkpoints_compare_by_identity():
    # their states hold numpy arrays: a generated __eq__ raised numpy's
    # "truth value of an array is ambiguous" on two equal states
    config = ModelConfig(seed=0)
    states = [CrossPeakModel(config).state_arrays() for _ in range(2)]
    pairs = [
        [TrainResult(state, state, [], 0) for state in states],
        [FinetuneResult(state, state, [], 1, True) for state in states],
        [Checkpoint(config, state, {}) for state in states],
    ]
    for x, y in pairs:
        assert x == x and x != y
