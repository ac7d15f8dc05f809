"""Metrics against expert-annotated peak lists, segmentation analyses, the
solvent-ablation harness, and overlay export (SVG scatter or CSV)."""

from __future__ import annotations

import csv
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .assign import MatchSettings, MatchingError, ObservedPeak, pseudo_annotate, shift_cost
from .model import (
    NAMED_SOLVENTS,
    CrossPeakModel,
    PredictedPeak,
    SolventClass,
)
from .molgraph import molecular_weight
from .train import AnnotatedTestRecord, _mae

log = logging.getLogger(__name__)

SOLVENT_MODES = ("true", "random", "unknown")
MW_BOUNDS = (500.0, 1000.0)  # the segment report's small/medium/large cuts, Da


@dataclass
class RecordEval:
    smiles: str
    mw: float
    saccharide: bool
    solvent: SolventClass
    c_errors: list[float]
    h_errors: list[float]
    all_correct: bool
    peaks_total: int
    peaks_agreeing: int


@dataclass
class EvalReport:
    solvent_mode: str
    seed: int
    mae_c: float
    mae_h: float
    molecules_total: int
    molecules_evaluated: int
    molecules_all_correct: int
    all_correct_fraction: float
    peak_agreement_on_disagreeing: float
    rejected: list[tuple[int, str]]
    per_solvent: dict
    segments: dict

    def to_dict(self) -> dict:
        out = asdict(self)
        out["rejected"] = [{"record": i, "reason": r} for i, r in self.rejected]
        return out


def _pick_solvent(
    record: AnnotatedTestRecord, mode: str, rng: np.random.Generator
) -> SolventClass:
    if mode == "true":
        return record.sample.solvent
    if mode == "unknown":
        return SolventClass.UNKNOWN
    candidates = [s for s in NAMED_SOLVENTS if s is not record.sample.solvent]
    return candidates[int(rng.integers(len(candidates)))]


def _validate_expert(record: AnnotatedTestRecord) -> str | None:
    sample = record.sample
    rep_units = {u.carbon_index: u for u in sample.molecule.units if u.is_representative}
    for obs, units in record.expert.items():
        if not 0 <= obs < len(sample.peaks):
            return f"expert map names missing peak {obs}"
        if not units:
            return f"expert map has no unit for peak {obs}"
        for carbon, slot in units:
            unit = rep_units.get(carbon)
            if unit is None:
                return f"expert unit carbon {carbon} is not a representative C-H unit"
            if slot not in (1, 2) or slot > unit.max_peaks:
                return f"expert slot {slot} invalid for carbon {carbon}"
    return None


def evaluate(
    model: CrossPeakModel,
    testset: list[AnnotatedTestRecord],
    solvent_mode: str = "true",
    seed: int = 0,
    match: MatchSettings | None = None,
) -> EvalReport:
    """Score predictions and algorithmic assignments against expert ones.

    MAEs accumulate over the expert-assigned pairs. A molecule counts as
    all-correct when the algorithmic assignment reproduces the expert map
    exactly; among the remaining molecules the peak-level agreement
    fraction is pooled. ``random`` solvent mode draws uniformly (seeded)
    from the eight named classes excluding the true one.
    """
    if solvent_mode not in SOLVENT_MODES:
        raise ValueError(f"solvent_mode must be one of {SOLVENT_MODES}")
    if not testset:
        raise ValueError("empty test set")
    match = match or MatchSettings()
    rows: list[RecordEval] = []
    rejected: list[tuple[int, str]] = []
    for index, record in enumerate(testset):
        problem = _validate_expert(record)
        if problem is not None:
            log.warning("record %d rejected: %s", index, problem)
            rejected.append((index, problem))
            continue
        rng = np.random.default_rng([seed, index])
        solvent = _pick_solvent(record, solvent_mode, rng)
        sample = record.sample
        preds = model.predict_cross_peaks(sample.molecule, solvent)
        by_key: dict[tuple[int, int], PredictedPeak] = {
            (p.ch_unit.carbon_index, p.peak_slot): p for p in preds
        }
        c_errors: list[float] = []
        h_errors: list[float] = []
        for obs_index, units in sorted(record.expert.items()):
            obs = sample.peaks[obs_index]
            for carbon, slot in units:
                pred = by_key.get((carbon, slot)) or by_key.get((carbon, 1))
                c_errors.append(abs(pred.delta_c - obs.delta_c))
                h_errors.append(abs(pred.delta_h - obs.delta_h))
        labels = pseudo_annotate(sample.molecule, preds, sample.peaks, match)
        algorithmic: dict[int, set[tuple[int, int]]] = {}
        if labels is not None:
            for entry in labels.entries:
                algorithmic.setdefault(entry.obs_index, set()).add(
                    (entry.carbon_index, entry.slot)
                )
        agree = 0
        for obs_index in range(len(sample.peaks)):
            expert_units = set(record.expert.get(obs_index, []))
            if algorithmic.get(obs_index, set()) == expert_units:
                agree += 1
        all_correct = agree == len(sample.peaks)
        rows.append(
            RecordEval(
                smiles=sample.molecule.smiles,
                mw=molecular_weight(sample.molecule.graph),
                saccharide=sample.saccharide,
                solvent=sample.solvent,
                c_errors=c_errors,
                h_errors=h_errors,
                all_correct=all_correct,
                peaks_total=len(sample.peaks),
                peaks_agreeing=agree,
            )
        )
    overall = _subreport(rows)
    disagreeing = [r for r in rows if not r.all_correct]
    if disagreeing:
        pooled = sum(r.peaks_agreeing for r in disagreeing) / sum(
            r.peaks_total for r in disagreeing
        )
    else:
        pooled = 1.0
    return EvalReport(
        solvent_mode=solvent_mode,
        seed=seed,
        mae_c=overall["mae_c"],
        mae_h=overall["mae_h"],
        molecules_total=len(testset),
        molecules_evaluated=len(rows),
        molecules_all_correct=sum(r.all_correct for r in rows),
        all_correct_fraction=overall["all_correct_fraction"],
        peak_agreement_on_disagreeing=pooled,
        rejected=rejected,
        per_solvent={
            solvent.value: _subreport([r for r in rows if r.solvent is solvent])
            for solvent in SolventClass
            if any(r.solvent is solvent for r in rows)
        },
        segments=segment_report(rows),
    )


def _subreport(rows: list[RecordEval]) -> dict:
    c = [e for r in rows for e in r.c_errors]
    h = [e for r in rows for e in r.h_errors]
    return {
        "count": len(rows),
        "mae_c": _mae(c),
        "mae_h": _mae(h),
        "all_correct_fraction": (
            sum(r.all_correct for r in rows) / len(rows) if rows else float("nan")
        ),
    }


def segment_report(rows: list[RecordEval]) -> dict:
    """Per-segment metrics: three molecular-weight buckets (boundaries are
    [low, high) as in 'small < 500 <= medium < 1000 <= large', ``MW_BOUNDS``),
    the saccharide split, and an equal-weight aggregate over non-empty MW
    buckets."""
    low, high = MW_BOUNDS
    buckets = {
        "small": [r for r in rows if r.mw < low],
        "medium": [r for r in rows if low <= r.mw < high],
        "large": [r for r in rows if r.mw >= high],
    }
    out = {name: _subreport(members) for name, members in buckets.items()}
    out["saccharide"] = _subreport([r for r in rows if r.saccharide])
    out["non_saccharide"] = _subreport([r for r in rows if not r.saccharide])
    nonempty = [out[name] for name in ("small", "medium", "large") if out[name]["count"]]
    out["overall_equal_weight"] = {
        "mae_c": _mae([b["mae_c"] for b in nonempty]),
        "mae_h": _mae([b["mae_h"] for b in nonempty]),
        "buckets_counted": len(nonempty),
    }
    return out


# ---------------------------------------------------------------------------
# Overlay export
# ---------------------------------------------------------------------------


def export_overlay(
    predictions: list[PredictedPeak],
    observations: list[ObservedPeak],
    path: str | Path,
    fmt: str = "svg",
    match: MatchSettings | None = None,
) -> Path:
    """Write a prediction/observation overlay.

    SVG: scatter with proton shifts horizontal and carbon shifts vertical,
    both reversed (descending ppm), predictions and observations drawn as
    distinct glyphs, matched pairs linked. CSV: one row per matched pair
    with full-precision values. Pairs come from the standard router,
    ``pseudo_annotate``. The CSV cost column weighs carbon differences by
    ``match.c_scale``.
    """
    if fmt not in ("svg", "csv"):
        raise ValueError(f"format must be svg or csv, got {fmt!r}")
    if not predictions or not observations:
        raise MatchingError("nothing to assign (no peaks)")
    match = match or MatchSettings()
    labels = pseudo_annotate(None, predictions, observations, match)
    # one entry per prediction, in prediction order
    pairs = [(pred, observations[e.obs_index]) for pred, e in zip(predictions, labels.entries)]
    path = Path(path)
    if fmt == "csv":
        _write_csv(pairs, path, match.c_scale)
    else:
        _write_svg(predictions, observations, pairs, path)
    return path


def _write_csv(pairs, path: Path, c_scale) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["unit", "pred_delta_c", "pred_delta_h", "obs_delta_c", "obs_delta_h", "cost"]
        )
        for pred, obs in pairs:
            writer.writerow(
                [
                    f"C{pred.ch_unit.carbon_index}.{pred.peak_slot}",
                    repr(pred.delta_c),
                    repr(pred.delta_h),
                    repr(obs.delta_c),
                    repr(obs.delta_h),
                    repr(shift_cost(pred, obs, c_scale)),
                ]
            )


def _write_svg(predictions, observations, pairs, path: Path) -> None:
    width, height = 640.0, 480.0
    margin = 56.0
    all_h = [p.delta_h for p in predictions] + [o.delta_h for o in observations]
    all_c = [p.delta_c for p in predictions] + [o.delta_c for o in observations]
    h_lo, h_hi = _padded(min(all_h), max(all_h))
    c_lo, c_hi = _padded(min(all_c), max(all_c))

    def x(h: float) -> float:  # descending ppm left to right -> high field right
        return margin + (h_hi - h) / (h_hi - h_lo) * (width - 2 * margin)

    def y(c: float) -> float:  # low carbon ppm at the top, NMR convention
        return margin + (c - c_lo) / (c_hi - c_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}" '
        f'data-h-min="{h_lo!r}" data-h-max="{h_hi!r}" '
        f'data-c-min="{c_lo!r}" data-c-max="{c_hi!r}">',
        '<rect x="0" y="0" width="640" height="480" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
        f'font-size="12">&#948;H (ppm, {h_hi:.2f} &#8594; {h_lo:.2f})</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.1f})">'
        f'&#948;C (ppm, {c_lo:.1f} &#8594; {c_hi:.1f})</text>',
    ]
    for pred, obs in pairs:
        parts.append(
            f'<line class="link" x1="{x(pred.delta_h):.2f}" y1="{y(pred.delta_c):.2f}" '
            f'x2="{x(obs.delta_h):.2f}" y2="{y(obs.delta_c):.2f}" '
            'stroke="#888888" stroke-dasharray="3,3"/>'
        )
    for obs in observations:
        cx, cy = x(obs.delta_h), y(obs.delta_c)
        parts.append(
            f'<rect class="obs" x="{cx - 4:.2f}" y="{cy - 4:.2f}" width="8" height="8" '
            'fill="none" stroke="#1f5fbf" stroke-width="1.6"/>'
        )
    for pred in predictions:
        parts.append(
            f'<circle class="pred" cx="{x(pred.delta_h):.2f}" cy="{y(pred.delta_c):.2f}" '
            'r="4" fill="#e07b20" fill-opacity="0.85"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def _padded(lo: float, hi: float, fraction: float = 0.06) -> tuple[float, float]:
    span = hi - lo
    pad = span * fraction if span > 0 else max(abs(hi), 1.0) * fraction
    return lo - pad, hi + pad
