from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hsqcnet import cli
from hsqcnet.dataio import save_checkpoint
from hsqcnet.model import CrossPeakModel, ModelConfig
from helpers import BAD_CHECKPOINT_HEADERS, rewrite_checkpoint_header

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "hsqcnet", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


TINY = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5))


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    model = CrossPeakModel(TINY)
    save_checkpoint(model.state_arrays(), TINY, {"stage": "test", "seed": 0}, path)
    return path


def test_parse_outputs_graph_json():
    proc = run_cli("--quiet", "parse", "CCO")
    assert proc.returncode == 0
    dump = json.loads(proc.stdout)
    assert dump["num_atoms"] == 9  # hydrogens materialized
    assert dump["canonical_smiles"] == "CCO"
    assert len(dump["ch_units"]) == 2


def test_parse_error_is_data_exit_code():
    proc = run_cli("--quiet", "parse", "C(")
    assert proc.returncode == 2
    assert "parenthesis" in proc.stderr


def test_usage_error_exit_code():
    proc = run_cli("--quiet", "frobnicate")
    assert proc.returncode == 1
    proc = run_cli("--quiet", "pretrain")  # missing required flags
    assert proc.returncode == 1


def test_validate_data_reports_each_record(tmp_path):
    data = tmp_path / "d.jsonl"
    data.write_text(
        '{"smiles": "C", "c_shifts": {"0": 1.0}}\n'
        '{"smiles": "C(", "c_shifts": {"0": 1.0}}\n'
    )
    proc = run_cli("--quiet", "validate-data", "--data", str(data), "--kind", "1d")
    assert proc.returncode == 0
    assert '"status": "ok"' in proc.stdout
    assert '"status": "skipped"' in proc.stdout


def test_validate_data_malformed_line_fails(tmp_path):
    data = tmp_path / "d.jsonl"
    data.write_text("{nope}\n")
    proc = run_cli("--quiet", "validate-data", "--data", str(data), "--kind", "1d")
    assert proc.returncode == 2
    assert "malformed" in proc.stderr


def test_predict_json(tiny_checkpoint):
    proc = run_cli("--quiet", "predict", "c1ccccc1",
                   "--checkpoint", str(tiny_checkpoint), "--solvent", "CDCl3")
    assert proc.returncode == 0
    peaks = json.loads(proc.stdout)
    assert len(peaks) == 1
    assert set(peaks[0]) == {"unit", "delta_c", "delta_h"}


def test_predict_missing_checkpoint_is_data_error(tmp_path):
    proc = run_cli("--quiet", "predict", "C", "--checkpoint", str(tmp_path / "no.ckpt"))
    assert proc.returncode == 2


def test_assign_json_and_text(tiny_checkpoint, tmp_path):
    peaks = json.dumps([[128.0, 7.3]])
    proc = run_cli("--quiet", "assign", "c1ccccc1",
                   "--checkpoint", str(tiny_checkpoint), "--peaks", peaks)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["matcher"] == "hungarian"
    assert payload["assignments"][0]["observed_peak"] == 0
    proc = run_cli("--quiet", "assign", "c1ccccc1",
                   "--checkpoint", str(tiny_checkpoint), "--peaks", peaks,
                   "--format", "text")
    assert proc.returncode == 0
    assert "matcher: hungarian" in proc.stdout


def test_assign_reads_match_section_of_config(tiny_checkpoint, tmp_path):
    config = tmp_path / "match.json"
    config.write_text(json.dumps({"match": {"c_scale": 1000}}))
    peaks = json.dumps([[128.0, 7.3]])
    costs = []
    for extra in ((), ("--config", str(config))):
        proc = run_cli("--quiet", *extra, "assign", "c1ccccc1",
                       "--checkpoint", str(tiny_checkpoint), "--peaks", peaks,
                       "--format", "json")
        assert proc.returncode == 0, proc.stderr
        costs.append(json.loads(proc.stdout)["mean_cost"])
    assert costs[0] != costs[1]
    # a misspelled key, removed settings (the iteration counter, the carbon
    # weight outside match, the annealing schedule) and a bad temperature
    for bad, key in (({"c_scal": 1000}, "c_scal"), ({"iteration": 2}, "iteration"),
                     ({"ga": {"c_scale": 3.0}}, "c_scale"), ({"ga": {"beta0": 1.0}}, "beta0"),
                     ({"ga": {"beta_max": 0.5}}, "beta_max"), ({"ga": {"beta": 0}}, "beta"),
                     ({"ga": {"beta": 1e303}}, "beta")):
        config.write_text(json.dumps({"match": bad}))
        proc = run_cli("--quiet", "--config", str(config), "assign", "c1ccccc1",
                       "--checkpoint", str(tiny_checkpoint), "--peaks", peaks)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert key in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("raw, message", [
    ({"model": {"mlp_hidden": 5}}, "mlp_hidden"),
    ([1, 2], "JSON object"),
    ({"match": 5}, "'match'"),
    ({"mach": {"c_scale": 1000}}, "'mach'"),
    ({"train": {"epochs": 1.5}}, "epochs"),
    ({"train": {"batch_size": 2.5}}, "batch_size"),
    ({"train": {"learning_rate": float("nan")}}, "learning_rate"),
    ({"model": {"atom_dim": 8.5}}, "atom_dim"),
    ({"model": {"num_layers": True}}, "num_layers"),
    ({"model": {"c_scale": 0}}, "c_scale"),
    ({"model": {"merge_tolerance_h": "x"}}, "merge_tolerance_h"),
    ({"match": {"c_scale": "x"}}, "c_scale"),
    ({"match": {"reject_threshold": "x"}}, "reject_threshold"),
])
def test_malformed_config_is_usage_error(tiny_checkpoint, tmp_path, raw, message):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    proc = run_cli("--quiet", "--config", str(config), "assign", "c1ccccc1",
                   "--checkpoint", str(tiny_checkpoint), "--peaks", "[[128.0, 7.3]]")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_HEADERS))
def test_bad_checkpoint_header_is_data_error(tiny_checkpoint, tmp_path, case):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(tiny_checkpoint.read_bytes())
    rewrite_checkpoint_header(path, BAD_CHECKPOINT_HEADERS[case])
    proc = run_cli("--quiet", "predict", "CCO", "--checkpoint", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_finetune_verifies_the_checkpoint_once(tiny_checkpoint, tmp_path, monkeypatch):
    calls: list = []
    original = cli.verify_checkpoint_config

    def counted(checkpoint, config):
        calls.append(config)
        return original(checkpoint, config)

    monkeypatch.setattr(cli, "verify_checkpoint_config", counted)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "model": TINY.to_dict(),
        "train": {"epochs": 1, "batch_size": 2, "max_iterations": 1},
        "match": {"reject_threshold": 1000.0},  # the untrained model matches badly
    }))
    out = tmp_path / "tuned.ckpt"
    for resume in ((), ("--resume",)):  # a fresh start, then a resume from ``out``
        calls.clear()
        assert cli.main(["--quiet", "--config", str(config), "finetune", *resume,
                         "--data", str(REPO / "data" / "toy_hsqc.jsonl"),
                         "--checkpoint", str(tiny_checkpoint),
                         "--checkpoint-out", str(out)]) == 0
        assert calls == [TINY]


def test_assign_accepts_peaks_file(tiny_checkpoint, tmp_path):
    peaks_file = tmp_path / "peaks.json"
    peaks_file.write_text(json.dumps([[18.0, 1.2], [58.0, 3.6]]))
    proc = run_cli("--quiet", "assign", "CCO",
                   "--checkpoint", str(tiny_checkpoint), "--peaks", str(peaks_file))
    assert proc.returncode == 0


@pytest.mark.parametrize("peaks", ["[1.0]", "[[1.0]]", "[[1,2,3]]"])
def test_assign_malformed_peaks_is_usage_error(tiny_checkpoint, peaks):
    proc = run_cli("--quiet", "assign", "CCO",
                   "--checkpoint", str(tiny_checkpoint), "--peaks", peaks)
    assert proc.returncode == 1
    assert "observed peak 0" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("peaks", ["[[1e400, 1]]", "[[1, " + "9" * 401 + "]]"],
                         ids=["1e400", "401 digits"])
def test_assign_non_finite_peak_is_numeric_error(tiny_checkpoint, capsys, peaks):
    code = cli.main(["--quiet", "assign", "CCO", "--checkpoint", str(tiny_checkpoint),
                     "--peaks", peaks])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: non-finite observed peak")


def test_assign_accepts_inline_peaks_longer_than_a_file_name(tiny_checkpoint, capsys):
    peaks = json.dumps([[18.0 + k / 7, 1.2 + k / 70] for k in range(12)])
    assert len(peaks) > 255
    code = cli.main(["--quiet", "assign", "CCCCCCCCCCCC", "--checkpoint", str(tiny_checkpoint),
                     "--peaks", peaks])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["matcher"] in ("hungarian", "graduated")


NESTED = "[" * 100_000  # deeper than the JSON parser can recurse


def test_deeply_nested_dataset_line_is_data_error(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    data.write_text('{"smiles": "C", "c_shifts": {"0": 1.0}}\n' + NESTED + "\n")
    code = cli.main(["--quiet", "validate-data", "--data", str(data), "--kind", "1d"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_checkpoint_header_is_data_error(tiny_checkpoint, tmp_path, capsys):
    header = NESTED.encode()
    path = tmp_path / "nested.ckpt"
    path.write_bytes(tiny_checkpoint.read_bytes()[:8] + len(header).to_bytes(4, "little")
                     + header)
    code = cli.main(["--quiet", "predict", "CCO", "--checkpoint", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_config_is_usage_error(tiny_checkpoint, tmp_path, capsys):
    config = tmp_path / "nested.json"
    config.write_text(NESTED)
    code = cli.main(["--quiet", "--config", str(config), "assign", "CCO",
                     "--checkpoint", str(tiny_checkpoint), "--peaks", "[[18.0, 1.2]]"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("where", ["file", "inline"])
def test_deeply_nested_peaks_is_usage_error(tiny_checkpoint, tmp_path, capsys, where):
    peaks = NESTED
    if where == "file":
        peaks = tmp_path / "peaks.json"
        peaks.write_text(NESTED)
    code = cli.main(["--quiet", "assign", "CCO", "--checkpoint", str(tiny_checkpoint),
                     "--peaks", str(peaks)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("smiles", ["", ".", ".."])
def test_predict_without_atoms_is_data_error(tiny_checkpoint, capsys, smiles):
    code = cli.main(["--quiet", "predict", smiles, "--checkpoint", str(tiny_checkpoint)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_non_finite_prediction_is_numeric_error(tmp_path, capsys):
    state = CrossPeakModel(TINY).state_arrays()
    state["c_head.b3"][0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(state, TINY, {"stage": "test", "seed": 0}, path)
    code = cli.main(["--quiet", "predict", "OCC", "--checkpoint", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite prediction for carbon 1" in err


def test_export_svg(tiny_checkpoint, tmp_path):
    out = tmp_path / "overlay.svg"
    proc = run_cli("--quiet", "export", "c1ccccc1",
                   "--checkpoint", str(tiny_checkpoint),
                   "--peaks", json.dumps([[128.0, 7.3]]), "--out", str(out))
    assert proc.returncode == 0
    assert out.exists()
    assert 'class="pred"' in out.read_text()


def test_eval_smoke(tiny_checkpoint):
    proc = run_cli("--quiet", "eval", "--checkpoint", str(tiny_checkpoint),
                   "--test", str(REPO / "data" / "toy_expert.jsonl"),
                   "--solvent-mode", "unknown")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert "mae_c" in report and "segments" in report


def test_resume_with_changed_config_rejected(tmp_path):
    data = REPO / "data" / "toy_1d.jsonl"
    out = tmp_path / "model.ckpt"
    cfg_a = tmp_path / "a.json"
    cfg_a.write_text(json.dumps({
        "model": {"num_layers": 1, "atom_dim": 8, "solvent_dim_h": 4, "mlp_hidden": [6, 5]},
        "train": {"epochs": 1, "batch_size": 2, "oversample_factor": 1},
    }))
    proc = run_cli("--quiet", "--config", str(cfg_a), "pretrain",
                   "--data", str(data), "--checkpoint-out", str(out))
    assert proc.returncode == 0, proc.stderr
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps({
        "model": {"num_layers": 1, "atom_dim": 8, "solvent_dim_h": 4,
                  "mlp_hidden": [6, 5], "merge_tolerance_h": 0.5},
        "train": {"epochs": 1, "batch_size": 2, "oversample_factor": 1},
    }))
    proc = run_cli("--quiet", "--config", str(cfg_b), "pretrain", "--resume",
                   "--data", str(data), "--checkpoint-out", str(out))
    assert proc.returncode == 2
    assert "cannot resume" in proc.stderr


def test_resume_continues_training(tmp_path):
    data = REPO / "data" / "toy_1d.jsonl"
    out = tmp_path / "model.ckpt"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "model": {"num_layers": 1, "atom_dim": 8, "solvent_dim_h": 4, "mlp_hidden": [6, 5]},
        "train": {"epochs": 1, "batch_size": 2, "oversample_factor": 1},
    }))
    for _ in range(2):
        proc = run_cli("--quiet", "--config", str(cfg), "pretrain", "--resume",
                       "--data", str(data), "--checkpoint-out", str(out))
        assert proc.returncode == 0, proc.stderr
