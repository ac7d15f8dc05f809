"""Acceptance criteria, one test per criterion, tolerances pinned.

Each runs at desk scale on the bundled toy corpora; the conftest summary
hook prints one PASS/FAIL line per criterion at the end of the session.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from hsqcnet import autodiff as ad
from hsqcnet.assign import (
    MatchSettings,
    ObservedPeak,
    cost_matrix,
    graduated_assignment,
    hungarian,
)
from hsqcnet.dataio import load_checkpoint, save_checkpoint
from hsqcnet.model import CrossPeakModel, SolventClass, prepare_molecule
from hsqcnet.molgraph import relabel_atoms
from hsqcnet.smiles import SmilesParseError, parse_smiles
from hsqcnet.train import (
    SampleHSQC,
    TrainConfig,
    annotate_dataset,
    dataset_mae,
    finetune_unsupervised,
    masked_mtt_loss,
    mtt_pretrain,
)

from helpers import automorphism_orbits

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


def test_criterion_01_gradient_check(desk_config):
    """Analytic vs central finite-difference gradients, relative 1e-4,
    20 sampled parameters, one molecule, under 30 s."""
    from hsqcnet.train import Sample1D

    start = time.monotonic()
    model = CrossPeakModel(desk_config)
    molecule = prepare_molecule("Cc1ccc(C)cc1")
    solvent = SolventClass.CHLOROFORM
    rng = np.random.default_rng(2024)
    targets_c = {u.carbon_index: rng.uniform(10, 150)
                 for u in molecule.units if u.is_representative}
    targets_h = {h: rng.uniform(0.5, 9.0)
                 for u in molecule.units if u.is_representative
                 for h in u.hydrogen_indices[:1]}

    sample = Sample1D(molecule, solvent, targets_c, targets_h)

    def loss() -> ad.Tensor:
        preds = model.atom_shift_tensors(molecule, solvent, sample.reads)
        return masked_mtt_loss(sample, preds)

    def loss_value() -> float:
        return loss().item()

    ad.zero_gradients(model.parameters())
    with ad.ComputeRecord() as record:
        total = loss()
    ad.backward(total, record)

    names = list(model.params)
    step = 1e-5
    checked = 0
    while checked < 20:
        name = names[int(rng.integers(len(names)))]
        param = model.params[name]
        flat_index = int(rng.integers(param.values.size))
        index = np.unravel_index(flat_index, param.values.shape)
        analytic = param.grad[index]
        original = param.values[index]
        param.values[index] = original + step
        up = loss_value()
        param.values[index] = original - step
        down = loss_value()
        param.values[index] = original
        numeric = (up - down) / (2 * step)
        # floor the denominator: near-zero true gradients drown in the
        # finite-difference rounding noise (~1e-11 for unit-scale losses)
        relative = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
        assert relative < 1e-4, f"{name}{index}: {analytic} vs {numeric}"
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_02_hungarian_exhaustive():
    """100 random matrices per size 2..7; total cost equals the exhaustive
    permutation minimum exactly; under 10 s."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for n in range(2, 8):
        for _ in range(100):
            cost = rng.uniform(0.0, 1.0, size=(n, n))
            assignment = hungarian(cost)
            total = float((assignment * cost).sum())
            best = min(
                sum(cost[i, perm[i]] for i in range(n))
                for perm in itertools.permutations(range(n))
            )
            assert total == pytest.approx(best, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"hungarian oracle sweep took {elapsed:.1f}s"


class _Peak:
    def __init__(self, delta_c, delta_h, carbon, slot=1):
        self.delta_c, self.delta_h, self.peak_slot = delta_c, delta_h, slot

        class _U:
            carbon_index = carbon

        self.ch_unit = _U()


def test_criterion_03_graduated_assignment_consistency():
    """Well-separated equal-cardinality instances match the exact matcher;
    constructed symmetric N>M instances cover every row with duplicates
    sharing a column; under 10 s."""
    start = time.monotonic()
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        centers = [(30.0 * i + rng.uniform(0, 5), 1.5 * i + rng.uniform(0, 0.2))
                   for i in range(n)]
        preds = [_Peak(c + rng.normal(0, 0.02), h + rng.normal(0, 0.002), i)
                 for i, (c, h) in enumerate(centers)]
        order = rng.permutation(n)
        obs = [ObservedPeak(centers[k][0], centers[k][1]) for k in order]
        soft = graduated_assignment(preds, obs)
        exact = hungarian(cost_matrix(preds, obs))
        assert np.array_equal(soft, exact)
    for trial in range(10):
        # two identical predicted rows, one observation: both must land on it
        base_c, base_h = 40.0 + trial, 2.0 + 0.1 * trial
        preds = [_Peak(base_c, base_h, 0), _Peak(base_c, base_h, 1),
                 _Peak(base_c + 60, base_h + 3, 2)]
        obs = [ObservedPeak(base_c, base_h), ObservedPeak(base_c + 60, base_h + 3)]
        assignment = graduated_assignment(preds, obs)
        assert np.all(assignment.sum(axis=1) == 1)
        assert assignment[0, 0] == 1 and assignment[1, 0] == 1
        assert assignment[2, 1] == 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"graduated assignment sweep took {elapsed:.1f}s"


def test_criterion_04_symmetry_collapse(desk_config):
    """Benzene and methane emit exactly one peak; para-xylene emits as many
    peaks as its hydrogen-bearing carbon orbits (brute-force oracle)."""
    model = CrossPeakModel(desk_config)
    assert len(model.predict_cross_peaks(prepare_molecule("c1ccccc1"),
                                         SolventClass.UNKNOWN)) == 1
    assert len(model.predict_cross_peaks(prepare_molecule("C"),
                                         SolventClass.UNKNOWN)) == 1
    heavy = parse_smiles("Cc1ccc(C)cc1")
    orbits = automorphism_orbits(heavy)
    ch_orbits = {
        orbits[i]
        for i, atom in enumerate(heavy.atoms)
        if atom.element == "C" and atom.implicit_h > 0
    }
    peaks = model.predict_cross_peaks(prepare_molecule("Cc1ccc(C)cc1"),
                                      SolventClass.UNKNOWN)
    assert len(peaks) == len(ch_orbits) == 2


def test_criterion_05_permutation_equivariance(desk_config):
    """Peak multisets identical to 1e-12 under random relabelings:
    4 trials on each of 5 molecules."""
    model = CrossPeakModel(desk_config)
    molecules = ["CCO", "Cc1ccccc1", "CC(C)O", "c1ccncc1", "CC(=O)OC"]
    rng = np.random.default_rng(31)
    trials = 0
    for smiles in molecules:
        graph = parse_smiles(smiles)
        base = model.predict_cross_peaks(prepare_molecule(smiles),
                                         SolventClass.DMSO)
        base_multiset = sorted((p.delta_c, p.delta_h) for p in base)
        for _ in range(4):
            perm = list(rng.permutation(len(graph.atoms)))
            relabeled = relabel_atoms(graph, perm)
            peaks = model.predict_cross_peaks(prepare_molecule(relabeled),
                                              SolventClass.DMSO)
            multiset = sorted((p.delta_c, p.delta_h) for p in peaks)
            assert len(multiset) == len(base_multiset)
            for (c1, h1), (c2, h2) in zip(base_multiset, multiset):
                assert abs(c1 - c2) < 1e-12 and abs(h1 - h2) < 1e-12
            trials += 1
    assert trials == 20


def test_criterion_06_overfit_sanity(overfit_run, toy_1d_samples, desk_config):
    """Bundled 10-molecule 1D toy set, desk config, 200 epochs:
    train MAE_H <= 0.05 ppm and MAE_C <= 0.5 ppm, under 5 minutes."""
    result, elapsed = overfit_run
    model = CrossPeakModel(desk_config)
    model.load_state(result.best_state)
    mae_c, mae_h = dataset_mae(model, toy_1d_samples)
    assert mae_h <= 0.05, f"train MAE_H {mae_h:.4f} ppm exceeds 0.05"
    assert mae_c <= 0.5, f"train MAE_C {mae_c:.3f} ppm exceeds 0.5"
    assert elapsed < 300.0, f"pre-training took {elapsed:.0f}s"


def test_criterion_07_teacher_student(overfit_run, parser_corpus, desk_config):
    """A frozen teacher generates shuffled peak lists for 50 molecules;
    fine-tuning recovers >= 99% of the teacher's assignments within the
    5-iteration cap, under 10 minutes."""
    start = time.monotonic()
    result, _ = overfit_run
    teacher = CrossPeakModel(desk_config)
    teacher.load_state(result.best_state)

    smiles_pool = [e["smiles"] for e in parser_corpus["molecules"]]
    smiles_pool += ["CCOC(=O)C", "CC(C)CO", "CCc1ccccc1"]
    molecules = []
    for smiles in smiles_pool:
        mol = prepare_molecule(smiles)
        if any(u.is_representative for u in mol.units):
            molecules.append(mol)
        if len(molecules) == 50:
            break
    assert len(molecules) == 50

    rng = np.random.default_rng(404)
    dataset = []
    truth = []
    for mol in molecules:
        preds = teacher.predict_cross_peaks(mol, SolventClass.CHLOROFORM)
        order = list(rng.permutation(len(preds)))
        peaks = [None] * len(preds)
        mapping = {}
        for i, j in enumerate(order):
            peaks[j] = ObservedPeak(preds[i].delta_c, preds[i].delta_h)
            mapping[(preds[i].ch_unit.carbon_index, preds[i].peak_slot)] = j
        dataset.append(SampleHSQC(mol, SolventClass.CHLOROFORM, peaks))
        truth.append(mapping)

    # gentle rate: the pseudo-labels are already near-exact, and some peak
    # pairs sit ~0.002 cost units apart, so large steps would swap them
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=3e-5,
                         max_iterations=5, convergence_fraction=0.01, seed=12)
    outcome = finetune_unsupervised(result.best_state, dataset, None, config,
                                    model_config=desk_config)
    assert outcome.iterations_run <= 5
    student = CrossPeakModel(desk_config)
    student.load_state(outcome.final_state)
    labels = annotate_dataset(student, dataset, MatchSettings())
    agree = total = 0
    for mapping, lab in zip(truth, labels):
        assert lab is not None
        for entry in lab.entries:
            total += 1
            agree += mapping.get((entry.carbon_index, entry.slot)) == entry.obs_index
    assert total >= 50
    recovery = agree / total
    assert recovery >= 0.99, f"assignment recovery {recovery:.3f} < 0.99"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"teacher-student run took {elapsed:.0f}s"


def test_criterion_08_masked_loss_exactness(desk_config):
    """Single-modality batches give identically zero gradients in the
    inactive head's private parameters."""
    from hsqcnet.train import Sample1D

    model = CrossPeakModel(desk_config)
    carbon_batch = [
        Sample1D(prepare_molecule("CC(=O)O"), SolventClass.UNKNOWN,
                 {0: 20.8, 1: 178.1}, {}),
        Sample1D(prepare_molecule("CC#N"), SolventClass.UNKNOWN,
                 {0: 1.9, 1: 118.0}, {}),
    ]
    proton_only = Sample1D(prepare_molecule("CO"), SolventClass.UNKNOWN,
                           {}, {2: 3.34, 3: 3.34})
    ad.zero_gradients(model.parameters())
    for sample in carbon_batch:
        with ad.ComputeRecord() as record:
            preds = model.atom_shift_tensors(sample.molecule, sample.solvent, sample.reads)
            loss = masked_mtt_loss(sample, preds)
        ad.backward(loss, record)
    for name, param in model.params.items():
        if name.startswith("h_head") or name.startswith("embed.solvent"):
            assert np.all(param.grad == 0.0), name
    ad.zero_gradients(model.parameters())
    for sample in (proton_only, proton_only):
        with ad.ComputeRecord() as record:
            preds = model.atom_shift_tensors(sample.molecule, sample.solvent, sample.reads)
            loss = masked_mtt_loss(sample, preds)
        ad.backward(loss, record)
    for name, param in model.params.items():
        if name.startswith("c_head"):
            assert np.all(param.grad == 0.0), name


def test_criterion_09_checkpoint_round_trip(tmp_path, toy_1d_samples, desk_config):
    """Save/load is value-exact and resuming reproduces the next training
    step's loss to 1e-10."""
    base = dict(batch_size=2, learning_rate=1e-3, oversample_factor=1,
                validation_split=0.0, seed=21)
    two = mtt_pretrain(toy_1d_samples, TrainConfig(epochs=2, **base),
                       model_config=desk_config)
    path = tmp_path / "resume.ckpt"
    save_checkpoint(two.final_state, desk_config,
                    {"stage": "pretrain", "epoch": 1, "seed": 21}, path)
    loaded = load_checkpoint(path)
    assert loaded.config == desk_config
    for name, array in two.final_state.items():
        assert np.array_equal(loaded.arrays[name], array)

    three = mtt_pretrain(toy_1d_samples, TrainConfig(epochs=3, **base),
                         model_config=desk_config)
    resumed = mtt_pretrain(
        toy_1d_samples,
        TrainConfig(epochs=1, **base),
        model_config=desk_config,
        init_state=loaded.arrays,
        start_epoch=int(loaded.provenance["epoch"]) + 1,
    )
    assert resumed.history[0]["first_batch_loss"] == pytest.approx(
        three.history[2]["first_batch_loss"], abs=1e-10
    )


def test_criterion_10_solvent_head_separation(desk_config):
    """Changing the solvent class moves proton predictions and leaves the
    carbon predictions bit-identical (no carbon solvent embedding)."""
    model = CrossPeakModel(desk_config)
    molecule = prepare_molecule("CC(C)O")
    reference = model.predict_cross_peaks(molecule, SolventClass.CHLOROFORM)
    changed_h = False
    for solvent in SolventClass:
        peaks = model.predict_cross_peaks(molecule, solvent)
        for a, b in zip(peaks, reference):
            assert a.delta_c == b.delta_c  # bit-identical, no tolerance
        if any(a.delta_h != b.delta_h for a, b in zip(peaks, reference)):
            changed_h = True
    assert changed_h


def test_criterion_11_parser_corpus(parser_corpus):
    """All 50 bundled structures parse with the hand-verified counts; the
    3 malformed fixtures raise the specified errors."""
    molecules = parser_corpus["molecules"]
    assert len(molecules) == 50
    for entry in molecules:
        graph = parse_smiles(entry["smiles"])
        got = (
            len(graph.atoms),
            len(graph.bonds),
            sum(a.implicit_h for a in graph.atoms),
        )
        assert got == (entry["atoms"], entry["bonds"], entry["implicit_h"]), entry["smiles"]
    malformed = parser_corpus["malformed"]
    assert len(malformed) == 3
    for entry in malformed:
        with pytest.raises(SmilesParseError, match=entry["error_contains"]):
            parse_smiles(entry["smiles"])


def test_criterion_12_end_to_end_cli(tmp_path):
    """pretrain -> finetune -> predict -> assign -> eval -> export on the
    bundled toy data, every step exit 0, under 15 minutes; the final SVG
    carries the expected glyph and link counts."""
    start = time.monotonic()
    env_cwd = str(REPO)
    config_path = tmp_path / "desk.json"
    config_path.write_text(json.dumps({
        "train": {"epochs": 6, "batch_size": 2, "learning_rate": 1e-3,
                  "oversample_factor": 2, "validation_split": 0.2,
                  "max_iterations": 2, "convergence_fraction": 0.5, "seed": 5},
        # a briefly trained smoke model predicts loosely; keep every molecule
        "match": {"reject_threshold": 1000.0},
    }))

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "hsqcnet", *args],
            capture_output=True, text=True, cwd=env_cwd,
        )
        assert proc.returncode == 0, f"{args}: {proc.stderr}\n{proc.stdout[-500:]}"
        return proc

    pre_ckpt = tmp_path / "pretrained.ckpt"
    fine_ckpt = tmp_path / "finetuned.ckpt"
    run("--quiet", "--config", str(config_path), "pretrain",
        "--data", str(DATA / "toy_1d.jsonl"), "--checkpoint-out", str(pre_ckpt))
    run("--quiet", "--config", str(config_path), "finetune",
        "--data", str(DATA / "toy_hsqc.jsonl"),
        "--val", str(DATA / "toy_hsqc.jsonl"),
        "--checkpoint", str(pre_ckpt), "--checkpoint-out", str(fine_ckpt))
    predict = run("--quiet", "predict", "c1ccccc1",
                  "--checkpoint", str(fine_ckpt), "--solvent", "CDCl3")
    peaks = json.loads(predict.stdout)
    assert len(peaks) == 1  # benzene collapses to a single cross peak
    run("--quiet", "assign", "CCO", "--checkpoint", str(fine_ckpt),
        "--solvent", "CDCl3", "--peaks", json.dumps([[18.3, 1.18], [57.8, 3.65]]))
    run("--quiet", "eval", "--checkpoint", str(fine_ckpt),
        "--test", str(DATA / "toy_expert.jsonl"), "--solvent-mode", "true")
    overlay = tmp_path / "benzene.svg"
    run("--quiet", "export", "c1ccccc1", "--checkpoint", str(fine_ckpt),
        "--solvent", "CDCl3", "--peaks", json.dumps([[128.4, 7.34]]),
        "--out", str(overlay))
    root = ET.fromstring(overlay.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    pred_glyphs = [e for e in root.iter(f"{ns}circle") if e.get("class") == "pred"]
    obs_glyphs = [e for e in root.iter(f"{ns}rect") if e.get("class") == "obs"]
    links = [e for e in root.iter(f"{ns}line") if e.get("class") == "link"]
    assert len(pred_glyphs) == 1 and len(obs_glyphs) == 1 and len(links) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"pipeline took {elapsed:.0f}s"
