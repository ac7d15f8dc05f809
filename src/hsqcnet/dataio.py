"""Dataset ingestion, solvent-string normalization, and checkpoints.

Datasets are line-delimited JSON (one record per line); see the schema
files under data/. Checkpoints are a single binary container: magic bytes,
a JSON header (format version, model config, provenance, parameter
manifest), then raw little-endian float64 parameter blocks. A checkpoint
is written to a temporary file beside the target and renamed over it, so
a failed write leaves the previous file as it was.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import struct
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .assign import config_from_json, ingest_peaks, is_finite_real, is_integer
from .model import (
    C_PPM_CENTER, C_PPM_PER_UNIT, H_PPM_CENTER, H_PPM_PER_UNIT,
    CrossPeakModel, ModelConfig, SolventClass, check_state, prepare_molecule,
)
from .smiles import SmilesParseError, canonical_smiles
from .smiles import parse_smiles  # noqa: F401  (benchmarks/tracing.py wraps dataio.parse_smiles)
from .train import AnnotatedTestRecord, Sample1D, SampleHSQC

log = logging.getLogger(__name__)


class DataFormatError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Solvent normalization
# ---------------------------------------------------------------------------


def _load_synonyms() -> dict[str, SolventClass]:
    table: dict[str, SolventClass] = {}
    raw = json.loads(
        resources.files("hsqcnet.data").joinpath("solvents.json").read_text()
    )
    for class_name, names in raw.items():
        solvent = SolventClass(class_name)
        for name in names:
            table[name] = solvent
    return table


_SYNONYMS = _load_synonyms()


def parse_json(text: str | bytes):
    """``json.loads``, with input nested too deeply for the parser's
    recursion reported as malformed JSON (a ``json.JSONDecodeError``)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", "", 0) from None


def normalize_solvent(raw: str | None) -> SolventClass:
    """Map a free-text solvent name onto one of the nine classes.

    Case-insensitive, whitespace-tolerant, total: anything unrecognized
    (including null) lands in UNKNOWN with a logged note.
    """
    if raw is None:
        return SolventClass.UNKNOWN
    key = " ".join(raw.strip().lower().split())
    if key in _SYNONYMS:
        return _SYNONYMS[key]
    log.info("unrecognized solvent %r treated as unknown", raw)
    return SolventClass.UNKNOWN


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------

KINDS = ("1d", "hsqc", "annotated")


@dataclass
class RecordDiagnostic:
    line: int
    status: str  # ok | skipped | duplicate
    reason: str
    smiles: str


def scan_dataset(path: str | Path, kind: str) -> tuple[list, list[RecordDiagnostic]]:
    """Parse and validate a JSONL dataset.

    Returns (samples, per-record diagnostics). Records with unusable
    content (a JSON value that is not an object, bad SMILES, a solvent that
    is not a string or null, a saccharide flag that is not a boolean, empty
    peak lists, index keys that are not canonical decimals, out-of-range
    target indices, shifts that are not finite numbers, malformed expert
    maps) are skipped and reported; duplicates (same canonical SMILES,
    solvent, and targets) are dropped and reported; a malformed JSON line
    is an error, not a skip.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    path = Path(path)
    samples: list = []
    diagnostics: list[RecordDiagnostic] = []
    seen: set = set()
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = parse_json(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: malformed JSON line ({exc.msg})"
                ) from exc
            smiles = record.get("smiles", "") if isinstance(record, dict) else ""
            try:
                sample, key = _build_sample(record, kind)
            except (SmilesParseError, DataFormatError, ValueError, OverflowError) as exc:
                diagnostics.append(
                    RecordDiagnostic(lineno, "skipped", str(exc), smiles)
                )
                continue
            if key in seen:
                diagnostics.append(
                    RecordDiagnostic(lineno, "duplicate", "identical record", smiles)
                )
                continue
            seen.add(key)
            samples.append(sample)
            diagnostics.append(RecordDiagnostic(lineno, "ok", "", smiles))
    dropped = sum(1 for d in diagnostics if d.status == "duplicate")
    skipped = sum(1 for d in diagnostics if d.status == "skipped")
    if dropped:
        log.info("%s: dropped %d duplicate record(s)", path, dropped)
    if skipped:
        log.info("%s: skipped %d unusable record(s)", path, skipped)
    if not samples:
        log.warning("%s: no usable records", path)
    return samples, diagnostics


def load_dataset(path: str | Path, kind: str) -> list:
    """Samples from a JSONL file, in file order, duplicates dropped."""
    samples, _ = scan_dataset(path, kind)
    return samples


def _build_sample(record, kind: str):
    if not isinstance(record, dict):
        raise DataFormatError("record is not a JSON object")
    smiles = record.get("smiles")
    if not isinstance(smiles, str) or not smiles:
        raise DataFormatError("record has no smiles field")
    solvent_raw = record.get("solvent")
    if solvent_raw is not None and not isinstance(solvent_raw, str):
        raise DataFormatError(f"solvent is not a string or null: {solvent_raw!r}")
    molecule = prepare_molecule(smiles)
    solvent = normalize_solvent(solvent_raw)
    canon = canonical_smiles(molecule.graph)

    if kind == "1d":
        # Sample1D checks that each target names an atom the model can read
        c_targets = _shift_map(record.get("c_shifts"), molecule, "C")
        h_targets = _shift_map(record.get("h_shifts"), molecule, "H")
        sample = Sample1D(molecule, solvent, c_targets, h_targets)
        key = (
            canon,
            solvent.value,
            tuple(sorted(c_targets.items())),
            tuple(sorted(h_targets.items())),
        )
        return sample, key

    peaks_raw = record.get("peaks")
    if not isinstance(peaks_raw, list) or not peaks_raw:
        raise DataFormatError("record has no peaks")
    peaks = ingest_peaks(peaks_raw)
    saccharide = record.get("saccharide")
    if saccharide is None:
        saccharide = False
        if kind == "annotated":
            log.info("record %r lacks a saccharide flag; counted as non-saccharide",
                     smiles)
    elif not isinstance(saccharide, bool):
        raise DataFormatError(f"saccharide flag is not a boolean: {saccharide!r}")
    sample = SampleHSQC(molecule, solvent, peaks, saccharide=saccharide)
    key = (
        canon,
        solvent.value,
        tuple(sorted((p.delta_c, p.delta_h) for p in peaks)),
    )
    if kind == "hsqc":
        return sample, key

    expert_raw = record.get("expert")
    if not isinstance(expert_raw, dict) or not expert_raw:
        raise DataFormatError("annotated record has no expert map")
    expert: dict[int, list[tuple[int, int]]] = {}
    for obs_key, units in expert_raw.items():
        obs_index = _index_key(obs_key, "expert map")
        if not 0 <= obs_index < len(peaks):
            raise DataFormatError(f"expert map names missing peak {obs_index}")
        if not isinstance(units, list):
            raise DataFormatError(
                f"expert entry for peak {obs_index} is not a list of [carbon, slot] pairs"
            )
        for unit in units:
            if not (isinstance(unit, list) and len(unit) == 2
                    and all(is_integer(v) for v in unit)):
                raise DataFormatError(f"expert unit {unit!r} is not [carbon, slot]")
        expert[obs_index] = [(unit[0], unit[1]) for unit in units]
    return AnnotatedTestRecord(sample, expert), key


def _index_key(key: str, where: str) -> int:
    """An index written as a JSON key: "0", or ASCII digits with no leading zero."""
    if not re.fullmatch("0|[1-9][0-9]*", key):
        raise DataFormatError(f"{where} key {key!r} is not a canonical index")
    return int(key)


def _shift_map(raw, molecule, element: str) -> dict[int, float]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise DataFormatError(f"{element} shift map is not an object")
    out: dict[int, float] = {}
    for key, value in raw.items():
        idx = _index_key(key, f"{element} shift map")
        if not 0 <= idx < len(molecule.graph.atoms):
            raise DataFormatError(f"shift target index {idx} out of range")
        if not is_finite_real(value):
            raise DataFormatError(f"shift of atom {idx} is not a finite number: {value!r}")
        out[idx] = float(value)
    return out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"HSQCCKPT"
FORMAT_VERSION = 1
# config fields that files written before they were retired still carry,
# each with the one value the model now fixes
_RETIRED_CONFIG = {"solvent_dim_c": 0, "c_center": C_PPM_CENTER, "c_scale": C_PPM_PER_UNIT,
                   "h_center": H_PPM_CENTER, "h_scale": H_PPM_PER_UNIT}


@dataclass(eq=False)
class Checkpoint:
    """A loaded checkpoint. Instances compare by identity: ``arrays`` holds
    numpy arrays, which no generated ``__eq__`` can compare."""

    config: ModelConfig
    arrays: dict[str, np.ndarray]
    provenance: dict

    def build_model(self) -> CrossPeakModel:
        return CrossPeakModel(self.config, state=self.arrays)


def save_checkpoint(
    arrays: dict[str, np.ndarray],
    config: ModelConfig,
    provenance: dict,
    path: str | Path,
) -> None:
    manifest = [
        {"name": name, "shape": list(np.asarray(a).shape)}
        for name, a in arrays.items()
    ]
    header = json.dumps(
        {
            "version": FORMAT_VERSION,
            "config": config.to_dict(),
            "provenance": provenance,
            "params": manifest,
        }
    ).encode()
    path = Path(path)
    # a crash mid-write leaves the previous file whole: write a sibling,
    # then rename it over the target in one step
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb") as fh:
            _write_checkpoint(fh, header, arrays)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_checkpoint(fh, header: bytes, arrays: dict[str, np.ndarray]) -> None:
    fh.write(_MAGIC)
    fh.write(struct.pack("<I", len(header)))
    fh.write(header)
    for name in arrays:
        fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(_MAGIC) + 4 or blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file")
    (header_len,) = struct.unpack_from("<I", blob, len(_MAGIC))
    start = len(_MAGIC) + 4
    if start + header_len > len(blob):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = parse_json(blob[start : start + header_len])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: corrupt header") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    raw_config = header.get("config")
    if isinstance(raw_config, dict):
        for name, fixed in _RETIRED_CONFIG.items():
            value = raw_config.pop(name, fixed)
            if not (is_finite_real(value) and value == fixed):
                raise CheckpointError(f"{path}: retired model config field {name!r} is "
                                      f"{value!r}; this build reads only {fixed!r}")
    try:
        config = config_from_json(ModelConfig, raw_config, "config")
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad model config in header ({exc})") from exc
    provenance = header.get("provenance")
    manifest = header.get("params")
    if not isinstance(provenance, dict) or not isinstance(manifest, list):
        raise CheckpointError(f"{path}: header lacks a provenance object or a params list")
    arrays: dict[str, np.ndarray] = {}
    offset = start + header_len
    for entry in manifest:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _is_shape(entry.get("shape"))):
            raise CheckpointError(f"{path}: malformed parameter manifest entry {entry!r}")
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise CheckpointError(
                f"{path}: truncated parameter block for {entry['name']}"
            )
        arrays[entry["name"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    checkpoint = Checkpoint(config=config, arrays=arrays, provenance=provenance)
    try:
        verify_checkpoint_config(checkpoint, config)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: arrays do not fit the stored config: {exc}") from exc
    return checkpoint


def _is_shape(shape) -> bool:
    return isinstance(shape, list) and all(is_integer(n) and n >= 0 for n in shape)


def verify_checkpoint_config(checkpoint: Checkpoint, config: ModelConfig) -> None:
    """Raise CheckpointError unless the stored arrays are exactly the
    parameters of ``config`` in their shapes (resume guard)."""
    try:
        check_state(config, checkpoint.arrays)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
