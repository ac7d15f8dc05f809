from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from hsqcnet.dataio import load_dataset
from hsqcnet.model import ModelConfig
from hsqcnet.train import TrainConfig, mtt_pretrain

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"

ACCEPTANCE_DESCRIPTIONS = {
    1: "gradient correctness vs central finite differences",
    2: "one-to-one matcher equals exhaustive permutation minimum",
    3: "graduated assignment consistency and one-to-many coverage",
    4: "symmetry collapse peak counts (benzene, methane, para-xylene)",
    5: "permutation equivariance of predicted peak multisets",
    6: "overfit sanity on the bundled 10-molecule 1D toy set",
    7: "teacher-student fine-tuning recovers assignments",
    8: "masked-loss exactness for single-modality batches",
    9: "checkpoint round-trip and resume reproducibility",
    10: "solvent head separation (proton moves, carbon bit-identical)",
    11: "parser corpus counts and malformed fixtures",
    12: "end-to-end CLI pipeline smoke with overlay counts",
}


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def parser_corpus() -> dict:
    return json.loads((DATA / "parser_corpus.json").read_text())


@pytest.fixture(scope="session")
def large_smiles() -> dict[str, str]:
    """name -> SMILES of the benchmark's seven large molecules (21-141 peaks),
    read from ``benchmarks/inputs.py`` so the two never drift apart."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_inputs", REPO / "benchmarks" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclasses look their module up
    spec.loader.exec_module(inputs)
    return inputs.large_molecules()


@pytest.fixture(scope="session")
def toy_1d_samples():
    return load_dataset(DATA / "toy_1d.jsonl", "1d")


@pytest.fixture(scope="session")
def toy_hsqc_samples():
    return load_dataset(DATA / "toy_hsqc.jsonl", "hsqc")


@pytest.fixture(scope="session")
def desk_config() -> ModelConfig:
    return ModelConfig()


@pytest.fixture(scope="session")
def tiny_config() -> ModelConfig:
    # small dims keep unit tests fast; the acceptance suite uses desk scale
    return ModelConfig(num_layers=2, atom_dim=12, solvent_dim_h=6, mlp_hidden=(10, 8), seed=7)


@pytest.fixture(scope="session")
def overfit_run(toy_1d_samples, desk_config):
    """The full desk-scale overfit run shared by several acceptance criteria.

    Returns (TrainResult, wall seconds)."""
    config = TrainConfig(
        epochs=200,
        batch_size=1,
        learning_rate=3e-4,
        oversample_factor=8,
        validation_split=0.0,
        seed=3,
    )
    start = time.monotonic()
    result = mtt_pretrain(toy_1d_samples, config, model_config=desk_config)
    elapsed = time.monotonic() - start
    return result, elapsed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            number = int(nodeid.split("test_criterion_")[1].split("_")[0].split("[")[0])
            verdict = "PASS" if status == "passed" else "FAIL"
            lines[number] = verdict
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_DESCRIPTIONS):
        verdict = lines.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {number:2d}: {verdict} — {ACCEPTANCE_DESCRIPTIONS[number]}"
        )
