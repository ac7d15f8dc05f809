from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqcnet import dataio
from hsqcnet.dataio import (
    KINDS,
    Checkpoint,
    CheckpointError,
    DataFormatError,
    config_hash,
    load_checkpoint,
    load_dataset,
    normalize_solvent,
    save_checkpoint,
    scan_dataset,
    verify_checkpoint_config,
)
from hsqcnet.model import CrossPeakModel, ModelConfig, SolventClass
from helpers import BAD_CHECKPOINT_HEADERS, rewrite_checkpoint_header


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("CDCl3", SolventClass.CHLOROFORM),
        ("chloroform-d", SolventClass.CHLOROFORM),
        ("DMSO-d6", SolventClass.DMSO),
        ("dImEtHyL SuLfOxIdE", SolventClass.DMSO),
        ("D2O", SolventClass.WATER),
        ("CD3OD", SolventClass.METHANOL),
        ("C6D6", SolventClass.BENZENE),
        ("acetic acid", SolventClass.ACIDS),
        ("TFA", SolventClass.ACIDS),
        ("pyridine-d5", SolventClass.PYRIDINE),
        ("Acetone-d6", SolventClass.ACETONE),
        (None, SolventClass.UNKNOWN),
        ("liquid ammonia", SolventClass.UNKNOWN),
        ("  cdcl3  ", SolventClass.CHLOROFORM),
    ],
)
def test_normalize_solvent(raw, expected):
    assert normalize_solvent(raw) is expected


@given(st.sampled_from(["CDCl3", "DMSO-d6", "D2O", "acetone-d6", "pyridine-d5"]),
       st.randoms())
@settings(max_examples=20, deadline=None)
def test_normalize_solvent_case_insensitive(name, rnd):
    scrambled = "".join(
        ch.upper() if rnd.random() < 0.5 else ch.lower() for ch in name
    )
    assert normalize_solvent(scrambled) is normalize_solvent(name)


def test_toy_datasets_cover_synonym_table(data_dir):
    for path, kind in [("toy_1d.jsonl", "1d"), ("toy_hsqc.jsonl", "hsqc")]:
        for line in (data_dir / path).read_text().splitlines():
            raw = json.loads(line).get("solvent")
            if raw is not None:
                assert normalize_solvent(raw) is not SolventClass.UNKNOWN, raw


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_load_1d_dataset_order_and_dedup(tmp_path):
    records = [
        {"smiles": "CO", "solvent": "CDCl3", "c_shifts": {"0": 50.0}},
        {"smiles": "CCO", "solvent": None, "c_shifts": {"0": 18.0, "1": 58.0}},
        {"smiles": "CO", "solvent": "CDCl3", "c_shifts": {"0": 50.0}},  # duplicate
        {"smiles": "CC", "solvent": "D2O", "c_shifts": {"0": 6.0, "1": 6.0}},
    ]
    path = tmp_path / "d.jsonl"
    write_jsonl(path, records)
    samples, diagnostics = scan_dataset(path, "1d")
    assert [s.molecule.smiles for s in samples] == ["CO", "CCO", "CC"]
    assert [d.status for d in diagnostics] == ["ok", "ok", "duplicate", "ok"]
    assert samples[1].solvent is SolventClass.UNKNOWN


def test_same_molecule_different_solvent_not_duplicate(tmp_path):
    records = [
        {"smiles": "CO", "solvent": "CDCl3", "c_shifts": {"0": 50.0}},
        {"smiles": "CO", "solvent": "D2O", "c_shifts": {"0": 50.0}},
    ]
    path = tmp_path / "d.jsonl"
    write_jsonl(path, records)
    assert len(load_dataset(path, "1d")) == 2


def test_dedup_uses_canonical_smiles(tmp_path):
    records = [
        {"smiles": "OCC", "solvent": None, "peaks": [[18.0, 1.2]]},
        {"smiles": "CCO", "solvent": None, "peaks": [[18.0, 1.2]]},
    ]
    path = tmp_path / "d.jsonl"
    write_jsonl(path, records)
    assert len(load_dataset(path, "hsqc")) == 1


def test_empty_file_warns(tmp_path, caplog):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    import logging

    with caplog.at_level(logging.WARNING):
        assert load_dataset(path, "1d") == []
    assert "no usable records" in caplog.text


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"smiles": "C", "c_shifts": {"0": 1.0}}\n{oops}\n')
    with pytest.raises(DataFormatError, match=":2:"):
        load_dataset(path, "1d")


def test_bad_smiles_skipped_with_reason(tmp_path):
    records = [
        {"smiles": "C(", "c_shifts": {"0": 1.0}},
        {"smiles": "C", "c_shifts": {"0": 1.0}},
    ]
    path = tmp_path / "d.jsonl"
    write_jsonl(path, records)
    samples, diagnostics = scan_dataset(path, "1d")
    assert len(samples) == 1
    assert diagnostics[0].status == "skipped"
    assert "parenthesis" in diagnostics[0].reason


def test_hsqc_empty_peaks_skipped(tmp_path):
    records = [
        {"smiles": "C", "solvent": None, "peaks": []},
        {"smiles": "CC", "solvent": None, "peaks": [[6.0, 0.9]]},
    ]
    path = tmp_path / "d.jsonl"
    write_jsonl(path, records)
    samples, diagnostics = scan_dataset(path, "hsqc")
    assert len(samples) == 1
    assert diagnostics[0].status == "skipped"


@pytest.mark.parametrize("bad", [[6.0], [6.0, 0.9, 1.0], ["6.0", "0.9"], 6.0])
def test_hsqc_malformed_peak_skipped_with_index(tmp_path, bad):
    records = [
        {"smiles": "CC", "solvent": None, "peaks": [[6.0, 0.9], bad]},
        {"smiles": "C", "solvent": None, "peaks": [[-2.0, 0.2]]},
    ]
    path = tmp_path / "d.jsonl"
    write_jsonl(path, records)
    samples, diagnostics = scan_dataset(path, "hsqc")
    assert len(samples) == 1
    assert diagnostics[0].status == "skipped"
    assert "observed peak 1" in diagnostics[0].reason


@pytest.mark.parametrize("kind, bad, reason", [
    ("1d", {"smiles": "CCO", "c_shifts": {"0": None}}, "not a finite number"),
    ("1d", {"smiles": "CCO", "c_shifts": {"0": True}}, "not a finite number"),
    ("1d", {"smiles": "CCO", "c_shifts": {"0": "18.3"}}, "not a finite number"),
    ("1d", {"smiles": "CCO", "h_shifts": {"3": [1.2]}}, "not a finite number"),
    ("annotated", {"smiles": "C", "peaks": [[-2.0, 0.2]], "expert": {"0": 5}},
     "not a list of [carbon, slot] pairs"),
    ("annotated", {"smiles": "C", "peaks": [[-2.0, 0.2]], "expert": {"0": [[0, None]]}},
     "not [carbon, slot]"),
    ("annotated", {"smiles": "C", "peaks": [[-2.0, 0.2]], "expert": {"0": [[0, True]]}},
     "not [carbon, slot]"),
])
def test_malformed_values_skipped_with_reason(tmp_path, kind, bad, reason):
    good = ({"smiles": "CC", "c_shifts": {"0": 6.0}} if kind == "1d" else
            {"smiles": "CC", "peaks": [[6.0, 0.9]], "expert": {"0": [[0, 1]]}})
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [bad, good])
    samples, diagnostics = scan_dataset(path, kind)
    assert len(samples) == 1
    assert diagnostics[0].status == "skipped" and reason in diagnostics[0].reason


@pytest.mark.parametrize("kind", ["1d", "hsqc", "annotated"])
@pytest.mark.parametrize("line", ["[1, 2]", "3.5", '"CCO"', "null", "true"])
def test_non_object_record_skipped_with_reason(tmp_path, kind, line):
    good = ({"smiles": "CC", "c_shifts": {"0": 6.0}} if kind == "1d" else
            {"smiles": "CC", "peaks": [[6.0, 0.9]], "expert": {"0": [[0, 1]]}})
    path = tmp_path / "d.jsonl"
    path.write_text(line + "\n" + json.dumps(good) + "\n")
    samples, diagnostics = scan_dataset(path, kind)
    assert len(samples) == 1
    assert diagnostics[0].status == "skipped" and diagnostics[0].smiles == ""
    assert "not a JSON object" in diagnostics[0].reason


# fields whose JSON type the schema does not allow: (kind, field, reason)
OFF_SCHEMA_FIELDS = [
    *((kind, {"solvent": value}, "solvent is not a string or null")
      for kind in KINDS for value in (5, ["x"])),
    *((kind, {"saccharide": "false"}, "saccharide flag is not a boolean")
      for kind in ("hsqc", "annotated")),
]


@pytest.mark.parametrize("kind, field, reason", OFF_SCHEMA_FIELDS)
def test_off_schema_field_skipped_with_reason(tmp_path, capsys, kind, field, reason):
    from hsqcnet import cli

    good = ({"smiles": "CC", "c_shifts": {"0": 6.0}} if kind == "1d" else
            {"smiles": "CC", "peaks": [[6.0, 0.9]], "expert": {"0": [[0, 1]]}})
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{**good, **field}, good])
    samples, diagnostics = scan_dataset(path, kind)
    assert len(samples) == 1
    assert diagnostics[0].status == "skipped" and reason in diagnostics[0].reason
    assert cli.main(["--quiet", "validate-data", "--kind", kind, "--data", str(path)]) == 0
    assert reason in capsys.readouterr().out


# index keys that int() reads but that are not canonical decimals: each
# would alias another key or a different atom
NON_CANONICAL_KEYS = [
    ("1d", {"c_shifts": {"0": 18.0, "00": 99.0}}, "00"),
    ("1d", {"c_shifts": {" 1": 58.0}}, " 1"),
    ("1d", {"c_shifts": {"1_0": 58.0}}, "1_0"),
    ("1d", {"c_shifts": {"+1": 58.0}}, "+1"),
    ("1d", {"h_shifts": {"\u0663": 1.2}}, "\u0663"),  # ARABIC-INDIC DIGIT THREE
    ("annotated", {"expert": {"0": [[0, 1]], "00": [[1, 1]]}}, "00"),
    ("annotated", {"expert": {"0 ": [[0, 1]]}}, "0 "),
]


@pytest.mark.parametrize("kind, field, key", NON_CANONICAL_KEYS)
def test_non_canonical_index_key_skipped_with_reason(tmp_path, capsys, kind, field, key):
    from hsqcnet import cli

    good = ({"smiles": "CCO", "c_shifts": {"0": 18.0}} if kind == "1d" else
            {"smiles": "CC", "peaks": [[6.0, 0.9]], "expert": {"0": [[0, 1]]}})
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{**good, **field}, good])
    samples, diagnostics = scan_dataset(path, kind)
    assert len(samples) == 1
    reason = f"key {key!r} is not a canonical index"
    assert diagnostics[0].status == "skipped" and reason in diagnostics[0].reason
    assert cli.main(["--quiet", "validate-data", "--kind", kind, "--data", str(path)]) == 0
    assert json.dumps(reason)[1:-1] in capsys.readouterr().out  # as the JSON report escapes it


@pytest.mark.parametrize("name, kind, usable", [
    ("toy_1d.jsonl", "1d", 10), ("toy_hsqc.jsonl", "hsqc", 13),
    ("toy_expert.jsonl", "annotated", 5),
])
def test_bundled_datasets_keep_their_usable_counts(data_dir, name, kind, usable):
    samples, diagnostics = scan_dataset(data_dir / name, kind)
    assert len(samples) == usable
    assert all(d.status == "ok" for d in diagnostics)


def test_validate_data_skips_non_object_line(tmp_path, capsys):
    from hsqcnet import cli

    path = tmp_path / "d.jsonl"
    path.write_text("[1,2]\n")
    assert cli.main(["--quiet", "validate-data", "--kind", "1d", "--data", str(path)]) == 0
    assert "not a JSON object" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["NaN", "1e400", "1" + "0" * 400],
                         ids=["NaN", "1e400", "401 digits"])
def test_non_finite_shift_skipped(tmp_path, value):
    # JSON reads NaN and 1e400 as non-finite floats, and the 401-digit
    # integer has no float at all
    path = tmp_path / "d.jsonl"
    path.write_text(f'{{"smiles": "CCO", "c_shifts": {{"0": {value}}}}}\n')
    samples, diagnostics = scan_dataset(path, "1d")
    assert not samples and diagnostics[0].status == "skipped"


def test_out_of_range_target_skipped(tmp_path):
    records = [{"smiles": "C", "c_shifts": {"7": 1.0}}]
    path = tmp_path / "d.jsonl"
    write_jsonl(path, records)
    samples, diagnostics = scan_dataset(path, "1d")
    assert not samples
    assert "out of range" in diagnostics[0].reason


def test_annotated_records_load(data_dir):
    records = load_dataset(data_dir / "toy_expert.jsonl", "annotated")
    assert records
    first = records[0]
    assert first.expert
    assert first.sample.peaks


def test_checkpoint_round_trip_bit_exact(tmp_path):
    config = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5))
    model = CrossPeakModel(config)
    state = model.state_arrays()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, config, {"stage": "test", "seed": 1}, path)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    assert loaded.provenance["stage"] == "test"
    assert loaded.provenance["config_hash"] == config_hash(config)
    assert set(loaded.arrays) == set(state)
    for name in state:
        assert np.array_equal(loaded.arrays[name], state[name])
        assert loaded.arrays[name].dtype == np.float64


def test_checkpoint_truncated_rejected(tmp_path):
    config = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5))
    model = CrossPeakModel(config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.state_arrays(), config, {}, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"hello world")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_unknown_version(tmp_path):
    config = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5))
    model = CrossPeakModel(config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.state_arrays(), config, {}, path)
    blob = bytearray(path.read_bytes())
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(bytes(blob[12 : 12 + header_len]))
    header["version"] = 99
    new_header = json.dumps(header).encode()
    rebuilt = blob[:8] + len(new_header).to_bytes(4, "little") + new_header + blob[12 + header_len:]
    path.write_bytes(rebuilt)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch_names_parameter(tmp_path):
    small = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5))
    big = ModelConfig(num_layers=1, atom_dim=16, solvent_dim_h=4, mlp_hidden=(6, 5))
    model = CrossPeakModel(small)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.state_arrays(), small, {}, path)
    loaded = load_checkpoint(path)
    with pytest.raises(CheckpointError, match="embed.element"):
        verify_checkpoint_config(loaded, big)


def test_config_hash_stable_and_sensitive():
    a = ModelConfig()
    assert config_hash(a) == config_hash(ModelConfig())
    assert config_hash(a) != config_hash(ModelConfig(atom_dim=32))
    assert config_hash(a) == "f9f29a69044a37f781530d1a29d284547f6db31cd3dd0aad9398378824bb187e"


def test_checkpoint_header_lists_the_config_fields_in_order(tmp_path):
    config = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5))
    path = tmp_path / "model.ckpt"
    save_checkpoint(CrossPeakModel(config).state_arrays(), config, {"stage": "test"}, path)
    blob = path.read_bytes()
    header = blob[12 : 12 + int.from_bytes(blob[8:12], "little")].decode()
    assert header.startswith(
        '{"version": 1, "config": {"num_layers": 1, "atom_dim": 8, "solvent_dim_h": 4, '
        '"solvent_dim_c": 0, "mlp_hidden": [6, 5], "merge_tolerance_h": 0.01, "seed": 0, '
        '"c_center": 70.0, "c_scale": 30.0, "h_center": 4.0, "h_scale": 3.0}, '
        '"provenance": {"stage": "test", "config_hash": "'
    )


@pytest.mark.parametrize("edit, message", [
    (lambda state: state.pop("embed.element"), r"missing \['embed.element'\]"),
    (lambda state: state.update({"embed.element": np.zeros((2, 8))}),
     r"shape mismatch for embed.element: checkpoint \(2, 8\)"),
    (lambda state: state.update({"extra.w": np.zeros(3)}), r"unexpected \['extra.w'\]"),
], ids=["missing", "shape", "extra"])
def test_one_state_check_for_models_and_checkpoints(edit, message):
    config = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5))
    state = CrossPeakModel(config).state_arrays()
    edit(state)
    with pytest.raises(ValueError, match=message) as caught:
        CrossPeakModel(config).load_state(state)
    assert type(caught.value) is ValueError
    with pytest.raises(CheckpointError, match=message):
        verify_checkpoint_config(Checkpoint(config, state, {}), config)


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_HEADERS))
def test_checkpoint_bad_header_rejected(tmp_path, case):
    config = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5))
    path = tmp_path / "model.ckpt"
    save_checkpoint(CrossPeakModel(config).state_arrays(), config, {}, path)
    rewrite_checkpoint_header(path, BAD_CHECKPOINT_HEADERS[case])
    with pytest.raises(CheckpointError, match=str(path)):
        load_checkpoint(path)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    config = ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4, mlp_hidden=(6, 5))
    path = tmp_path / "model.ckpt"
    old = CrossPeakModel(config).state_arrays()
    save_checkpoint(old, config, {"stage": "old"}, path)
    blob = path.read_bytes()

    class FailingFile:
        """Writes the first 300 bytes, then fails: a disk that fills mid-file."""

        def __init__(self, fh):
            self.fh, self.room = fh, 300

        def write(self, data):
            if len(data) > self.room:
                self.fh.write(data[: self.room])
                raise OSError("no space left on device")
            self.room -= len(data)
            return self.fh.write(data)

    writer = dataio._write_checkpoint
    monkeypatch.setattr(dataio, "_write_checkpoint",
                        lambda fh, *args: writer(FailingFile(fh), *args))
    new = CrossPeakModel(replace(config, seed=5)).state_arrays()
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(new, config, {"stage": "new"}, path)
    assert path.read_bytes() == blob
    loaded = load_checkpoint(path)
    assert loaded.provenance["stage"] == "old"
    assert all(np.array_equal(loaded.arrays[name], old[name]) for name in old)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]  # no temp file left
    monkeypatch.undo()
    save_checkpoint(new, config, {"stage": "new"}, path)
    assert load_checkpoint(path).provenance["stage"] == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
