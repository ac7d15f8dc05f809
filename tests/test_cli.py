from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hsqcnet import cli
from hsqcnet.dataio import load_checkpoint, save_checkpoint
from hsqcnet.model import CrossPeakModel, ModelConfig
from helpers import (
    BAD_CHECKPOINT_HEADERS, BAD_CHECKPOINT_MESSAGES, rewrite_checkpoint_header, v1_header,
)

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
    # the usage line alone does not say what was wrong
    proc = run_cli("--quiet", "predict", "CCO")
    assert proc.returncode == 1
    assert "error: the following arguments are required: --checkpoint" in proc.stderr
    proc = run_cli("--quiet", "assign", "CCO", "--checkpoint", "x", "--peaks", "[]",
                   "--format", "xml")
    assert proc.returncode == 1
    assert "error: argument --format: invalid choice: 'xml'" in proc.stderr


def test_pretrain_rejects_a_validation_file():
    # pre-training splits its validation set off the training file
    # (train.validation_split); it once accepted --val and never read it
    proc = run_cli("--quiet", "pretrain", "--data", "data/toy_1d.jsonl",
                   "--checkpoint-out", "unused.ckpt", "--val", "data/toy_1d.jsonl")
    assert proc.returncode == 1
    assert "error: unrecognized arguments: --val" in proc.stderr
    assert not (REPO / "unused.ckpt").exists()


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


# a C locale without UTF-8 mode or locale coercion: open() would read ASCII
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_dataset_reads_as_utf8_under_an_ascii_locale(tmp_path):
    data = tmp_path / "d.jsonl"
    data.write_text('{"smiles": "CCO", "solvent": "D\u2082O", "c_shifts": {"0": 18.0}}\n',
                    encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "hsqcnet", "--quiet", "validate-data", "--data", str(data),
         "--kind", "1d"],
        capture_output=True, text=True, cwd=REPO, env={**os.environ, **ASCII_LOCALE},
    )
    assert proc.returncode == 0, proc.stderr
    assert '"status": "ok"' in proc.stdout


def test_dataset_byte_that_is_not_utf8_is_data_error_naming_its_line(tmp_path):
    data = tmp_path / "d.jsonl"
    data.write_bytes(b'{"smiles": "C", "c_shifts": {"0": 1.0}}\n'
                     b'{"smiles": "CCO", "solvent": "D\xb2O", "c_shifts": {"0": 18.0}}\n')
    proc = run_cli("--quiet", "validate-data", "--data", str(data), "--kind", "1d")
    assert proc.returncode == 2
    assert proc.stderr == f"error: {data}:2: byte 0xb2 at column 32 is not UTF-8\n"


def test_checkpoint_header_that_is_not_utf8_is_data_error(tiny_checkpoint, tmp_path):
    blob = bytearray(tiny_checkpoint.read_bytes())
    header_len = int.from_bytes(blob[8:12], "little")
    blob[12 + header_len // 2] = 0xFF
    path = tmp_path / "bad.ckpt"
    path.write_bytes(bytes(blob))
    proc = run_cli("--quiet", "predict", "CCO", "--checkpoint", str(path))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: corrupt header\n"


@pytest.mark.parametrize("name, kind", [("toy_1d.jsonl", "1d"), ("toy_hsqc.jsonl", "hsqc"),
                                        ("toy_expert.jsonl", "annotated")])
def test_validate_data_writes_json_lines(capsys, name, kind):
    code = cli.main(["--quiet", "validate-data", "--data", str(REPO / "data" / name),
                     "--kind", kind])
    assert code == 0
    *records, summary = map(_strict_json, capsys.readouterr().out.splitlines())
    assert summary == {"usable": summary["usable"], "records": len(records)}
    assert summary["usable"] == sum(record["status"] == "ok" for record in records) > 0
    assert [record["line"] for record in records] == sorted(record["line"] for record in records)


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
    ({"match": {"ga": [1]}}, "'match.ga'"),
    ({"model": {"foo": 1}}, "['foo'] in section 'model'"),
    ({"train": {"bogus": 2}}, "['bogus'] in section 'train'"),
    ({"match": {"ga": {"sweep": 3}}}, "['sweep'] in section 'match.ga'"),
    ({"model": {"solvent_dim_c": 0}}, "['solvent_dim_c'] in section 'model'"),
    ({"model": {"h_center": 4.0}}, "['h_center'] in section 'model'"),
])
def test_malformed_config_is_usage_error(tiny_checkpoint, tmp_path, raw, message):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    proc = run_cli("--quiet", "--config", str(config), "assign", "c1ccccc1",
                   "--checkpoint", str(tiny_checkpoint), "--peaks", "[[128.0, 7.3]]")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    for internal in ("Traceback", "__init__", "argument after"):
        assert internal not in proc.stderr


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_HEADERS))
def test_bad_checkpoint_header_is_data_error(tiny_checkpoint, tmp_path, case):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(tiny_checkpoint.read_bytes())
    rewrite_checkpoint_header(path, BAD_CHECKPOINT_HEADERS[case])
    proc = run_cli("--quiet", "predict", "CCO", "--checkpoint", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    for internal in ("Traceback", "__init__", "argument after"):
        assert internal not in proc.stderr
    assert BAD_CHECKPOINT_MESSAGES.get(case, "") in proc.stderr


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
    # a fresh start checks --checkpoint; a resume from ``out`` compares configs
    # instead, and ``out`` was checked against its stored config on load
    for resume, checked in (((), [TINY]), (("--resume",), [])):
        calls.clear()
        assert cli.main(["--quiet", "--config", str(config), "finetune", *resume,
                         "--data", str(REPO / "data" / "toy_hsqc.jsonl"),
                         "--checkpoint", str(tiny_checkpoint),
                         "--checkpoint-out", str(out)]) == 0
        assert calls == checked


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


# an integer literal past the digits ``int`` converts (sys.get_int_max_str_digits)
LONG_INT = "1" + "0" * (sys.get_int_max_str_digits() + 700)
TOO_LONG = f"integer of more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("command", ["validate-data", "pretrain"])
def test_dataset_integer_past_the_digit_limit_is_a_malformed_line(tmp_path, capsys, command):
    data, out = tmp_path / "d.jsonl", tmp_path / "unused.ckpt"
    data.write_text('{"smiles": "C", "c_shifts": {"0": 1.0}}\n'
                    f'{{"smiles": "C", "c_shifts": {{"0": {LONG_INT}}}}}\n')
    rest = ["--kind", "1d"] if command == "validate-data" else ["--checkpoint-out", str(out)]
    assert cli.main(["--quiet", command, "--data", str(data), *rest]) == 2
    assert capsys.readouterr().err == f"error: {data}:2: malformed JSON line ({TOO_LONG})\n"
    assert not out.exists()


@pytest.mark.parametrize("where", ["file", "inline"])
def test_peaks_integer_past_the_digit_limit_is_bad_json(tiny_checkpoint, tmp_path, capsys,
                                                        where):
    peaks, named = f"[[{LONG_INT}, 1.0]]", "bad JSON input"
    if where == "file":
        path = tmp_path / "peaks.json"
        path.write_text(peaks)
        peaks, named = str(path), f"{path}: bad JSON"
    code = cli.main(["--quiet", "assign", "CCO", "--checkpoint", str(tiny_checkpoint),
                     "--peaks", peaks])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {named} ({TOO_LONG}")


def _json_file_argv(flag, path, checkpoint):
    """An assign command reading ``path`` as its --peaks or --config file."""
    if flag == "--peaks":
        return ["--quiet", "assign", "CCO", "--checkpoint", str(checkpoint), "--peaks", str(path)]
    return ["--quiet", "--config", str(path), "assign", "CCO", "--checkpoint", str(checkpoint),
            "--peaks", "[[18.0, 1.2]]"]


@pytest.mark.parametrize("flag, text", [("--peaks", b"[[18.0, 1.2]]"),
                                        ("--config", b'{"match": {"c_scale": 10.0}}')],
                         ids=["peaks", "config"])
def test_json_file_byte_that_is_not_utf8_names_the_file(tiny_checkpoint, tmp_path, capsys,
                                                        flag, text):
    path = tmp_path / "in.json"
    path.write_bytes(text + b"\xff")
    assert cli.main(_json_file_argv(flag, path, tiny_checkpoint)) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: byte 0xff at position {len(text)} is not UTF-8\n")


@pytest.mark.parametrize("flag, text", [("--peaks", "[[18.0, 1.2]"), ("--config", '{"match"}')],
                         ids=["peaks", "config"])
def test_json_file_malformed_names_the_file(tiny_checkpoint, tmp_path, capsys, flag, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert cli.main(_json_file_argv(flag, path, tiny_checkpoint)) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: bad JSON (")


@pytest.mark.parametrize("flag, text, message", [
    ("--peaks", '[["\u00e9", 1.2]]', "observed peak 0 is not a [delta_c, delta_h] pair"),
    ("--config", '{"match": {"c_scal\u00e9": 1.0}}', "in.json: unknown key(s) ['c_scal"),
], ids=["peaks", "config"])
def test_json_files_read_as_utf8_under_an_ascii_locale(tiny_checkpoint, tmp_path, flag, text,
                                                       message):
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "hsqcnet", *_json_file_argv(flag, path, tiny_checkpoint)],
        capture_output=True, text=True, cwd=REPO, env={**os.environ, **ASCII_LOCALE},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr, proc.stderr


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


def _strict_json(text):
    """``json.loads`` that rejects the NaN and Infinity tokens RFC 8259 lacks."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_eval_output_is_strict_json(tiny_checkpoint, capsys):
    # toy_expert has only small non-saccharides: three buckets are empty
    code = cli.main(["--quiet", "eval", "--checkpoint", str(tiny_checkpoint),
                     "--test", str(REPO / "data" / "toy_expert.jsonl")])
    assert code == 0
    report = _strict_json(capsys.readouterr().out)
    empty = [report["segments"][name] for name in ("medium", "large", "saccharide")]
    assert all(bucket["count"] == 0 for bucket in empty)
    assert [v for bucket in empty for k, v in bucket.items() if k != "count"] == [None] * 9


def test_pretrain_progress_is_strict_json(tmp_path, capsys):
    # carbon targets only: the proton MAE of every epoch is NaN
    data = tmp_path / "carbons.jsonl"
    data.write_text("\n".join(json.dumps({"smiles": smiles, "solvent": "CDCl3",
                                          "c_shifts": shifts, "h_shifts": {}})
                              for smiles, shifts in (("CC(=O)O", {"0": 20.8, "1": 178.1}),
                                                     ("CC#N", {"0": 1.9, "1": 118.0}))))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "model": {"num_layers": 1, "atom_dim": 8, "solvent_dim_h": 4, "mlp_hidden": [6, 5]},
        "train": {"epochs": 2, "batch_size": 2, "oversample_factor": 1,
                  "validation_split": 0.0},
    }))
    code = cli.main(["--config", str(cfg), "pretrain", "--data", str(data),
                     "--checkpoint-out", str(tmp_path / "model.ckpt")])
    assert code == 0
    *progress, wrote = capsys.readouterr().out.splitlines()
    assert wrote.startswith("wrote ")
    lines = [_strict_json(line) for line in progress]
    assert [line["epoch"] for line in lines] == [0, 1]
    assert all(line["mae_h"] is None and line["mae_c"] >= 0.0 for line in lines)


@pytest.mark.parametrize("smiles, peaks", [("CCO", "[]"), ("O", "[[50.0, 3.3]]")],
                         ids=["no observed peaks", "no C-H peaks"])
def test_assign_and_export_fail_alike_on_an_empty_match(tiny_checkpoint, tmp_path, capsys,
                                                       smiles, peaks):
    outcomes = []
    for extra in (["assign"], ["export", "--out", str(tmp_path / "x.svg")]):
        code = cli.main(["--quiet", extra[0], smiles, "--checkpoint", str(tiny_checkpoint),
                         "--peaks", peaks, *extra[1:]])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        outcomes.append((code, errors))
    assert outcomes == [(3, ["error: nothing to assign (no peaks)"])] * 2
    assert not (tmp_path / "x.svg").exists()


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
    assert "merge_tolerance_h (checkpoint 0.01, run 0.5)" in proc.stderr
    assert "atom_dim" not in proc.stderr


@pytest.mark.parametrize("epoch", [None, [1], True, "x"])
def test_resume_with_a_bad_provenance_epoch_is_data_error(tmp_path, capsys, epoch):
    out = tmp_path / "model.ckpt"
    save_checkpoint(CrossPeakModel(TINY).state_arrays(), TINY,
                    {"stage": "pretrain", "epoch": epoch, "seed": 0}, out)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": TINY.to_dict(), "train": {"epochs": 1}}))
    code = cli.main(["--quiet", "--config", str(config), "pretrain", "--resume",
                     "--data", str(REPO / "data" / "toy_1d.jsonl"), "--checkpoint-out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, stored, data", [
    ("pretrain", "finetune", "toy_1d.jsonl"),
    ("finetune", "pretrain", "toy_hsqc.jsonl"),
])
def test_resume_from_the_other_stage_is_data_error(tiny_checkpoint, tmp_path, capsys, command,
                                                   stored, data):
    out = tmp_path / "model.ckpt"
    save_checkpoint(CrossPeakModel(TINY).state_arrays(), TINY,
                    {"stage": stored, "epoch": 0, "iteration": 1, "seed": 0}, out)
    before = out.read_bytes()
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": TINY.to_dict(), "train": {"epochs": 1}}))
    start = ["--checkpoint", str(tiny_checkpoint)] if command == "finetune" else []
    code = cli.main(["--quiet", "--config", str(config), command, "--resume", *start,
                     "--data", str(REPO / "data" / data), "--checkpoint-out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"cannot resume {command} from {out}: it holds a {stored!r} checkpoint" in err
    assert out.read_bytes() == before


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


def test_pretrain_resumes_from_a_checkpoint_with_the_retired_config_fields(tmp_path):
    out = tmp_path / "model.ckpt"
    save_checkpoint(CrossPeakModel(TINY).state_arrays(), TINY,
                    {"stage": "pretrain", "epoch": 0, "seed": 0}, out)
    rewrite_checkpoint_header(out, v1_header)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": TINY.to_dict(), "train": {"epochs": 1}}))
    assert cli.main(["--quiet", "--config", str(config), "pretrain", "--resume",
                     "--data", str(REPO / "data" / "toy_1d.jsonl"),
                     "--checkpoint-out", str(out)]) == 0
    resumed = load_checkpoint(out)
    assert resumed.config == TINY
    assert resumed.provenance["epoch"] == 1 and "config_hash" not in resumed.provenance
