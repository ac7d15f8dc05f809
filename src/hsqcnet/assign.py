"""Alignment of predicted cross peaks with observed peak lists.

Equal cardinalities go through an exact one-to-one assignment (minimum
total cost, deterministic lexicographic tie-break). Mismatched
cardinalities go through graduated assignment: an annealed softassign with
alternating row/column normalization, hardened row by row into a
one-to-many matching where every predicted peak lands on some observed peak.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

log = logging.getLogger(__name__)

DEFAULT_C_SCALE = 10.0  # carbon/proton resolution ratio: 0.1 ppm vs 0.01 ppm


class MatchingError(ValueError):
    pass


@dataclass(frozen=True)
class ObservedPeak:
    delta_c: float
    delta_h: float
    index: int


def ingest_peaks(pairs) -> list[ObservedPeak]:
    """Build ObservedPeaks from [delta_c, delta_h] pairs.

    Values outside the loose plausibility windows (carbon 0..250, proton
    -2..14) are kept but logged; non-finite values are rejected.
    """
    peaks = []
    for i, (dc, dh) in enumerate(pairs):
        dc, dh = float(dc), float(dh)
        if not (np.isfinite(dc) and np.isfinite(dh)):
            raise MatchingError(f"non-finite observed peak at index {i}")
        if not 0.0 <= dc <= 250.0 or not -2.0 <= dh <= 14.0:
            log.warning(
                "observed peak %d (%.2f, %.2f) outside the usual shift range",
                i, dc, dh,
            )
        peaks.append(ObservedPeak(dc, dh, i))
    return peaks


def shift_cost(pred, obs, c_scale: float = DEFAULT_C_SCALE) -> float:
    """|proton difference| + |carbon difference| / c_scale."""
    if c_scale <= 0:
        raise ValueError("c_scale must be positive")
    return abs(pred.delta_h - obs.delta_h) + abs(pred.delta_c - obs.delta_c) / c_scale


def _shifts(peaks) -> tuple[np.ndarray, np.ndarray]:
    """(proton, carbon) shift arrays of a peak list."""
    pairs = np.array([(p.delta_h, p.delta_c) for p in peaks], dtype=np.float64)
    pairs = pairs.reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def cost_matrix(preds, observations, c_scale: float = DEFAULT_C_SCALE) -> np.ndarray:
    """``shift_cost`` of every (prediction, observation) pair."""
    if c_scale <= 0:
        raise ValueError("c_scale must be positive")
    pred_h, pred_c = _shifts(preds)
    obs_h, obs_c = _shifts(observations)
    mat = (
        np.abs(pred_h[:, None] - obs_h[None, :])
        + np.abs(pred_c[:, None] - obs_c[None, :]) / c_scale
    )
    if not np.all(np.isfinite(mat)):
        raise MatchingError("non-finite entries in cost matrix")
    return mat


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost one-to-one assignment of a square cost matrix.

    Returns the binary assignment matrix. Among equal-cost optima the
    lexicographically smallest row-to-column mapping wins, found by fixing
    rows in order to the smallest column that preserves optimality.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise MatchingError(
            f"one-to-one assignment needs a square matrix, got {cost.shape}; "
            "use graduated_assignment for mismatched cardinalities"
        )
    if not np.all(np.isfinite(cost)):
        raise MatchingError("non-finite entries in cost matrix")
    n = cost.shape[0]

    def optimum(mat: np.ndarray) -> float:
        if mat.size == 0:
            return 0.0
        rows, cols = linear_sum_assignment(mat)
        return float(mat[rows, cols].sum())

    best = optimum(cost)
    tol = 1e-9 * max(1.0, abs(best))
    remaining_cols = list(range(n))
    assignment = np.zeros((n, n), dtype=np.int8)
    fixed = 0.0
    for row in range(n):
        sub_rows = list(range(row + 1, n))
        for col in remaining_cols:
            rest_cols = [c for c in remaining_cols if c != col]
            rest = cost[np.ix_(sub_rows, rest_cols)] if sub_rows else np.empty((0, 0))
            total = fixed + cost[row, col] + optimum(rest)
            if total <= best + tol:
                assignment[row, col] = 1
                fixed += cost[row, col]
                remaining_cols.remove(col)
                break
        else:  # numerically impossible, but fail loudly rather than silently
            raise MatchingError("tie-break search failed to extend the assignment")
    return assignment


@dataclass(frozen=True)
class GASettings:
    epsilon: float = 1e-6
    beta0: float = 1.0
    rate: float = 1.5
    beta_max: float = 200.0
    sweeps: int = 30
    c_scale: float = DEFAULT_C_SCALE


def similarity(cost: np.ndarray, epsilon: float) -> np.ndarray:
    return 1.0 / (cost + epsilon)


def _log_normalize(log_q: np.ndarray, axis: int) -> np.ndarray:
    peak = log_q.max(axis=axis, keepdims=True)
    return log_q - (peak + np.log(np.exp(log_q - peak).sum(axis=axis, keepdims=True)))


def softassign_rounds(sim: np.ndarray, settings: GASettings, on_sweep=None):
    """Yield (beta, soft matrix) after each annealing round.

    Each round starts from exp(beta * sim) and applies ``sweeps`` rounds of
    row-then-column normalization (in log space for stability). ``on_sweep``
    receives the matrix after every column normalization when given.
    """
    beta = settings.beta0
    while beta < settings.beta_max:
        log_q = beta * sim
        for _ in range(settings.sweeps):
            log_q = _log_normalize(log_q, axis=1)
            log_q = _log_normalize(log_q, axis=0)
            if on_sweep is not None:
                on_sweep(np.exp(log_q))
        yield beta, np.exp(log_q)
        beta *= settings.rate


def graduated_assignment(
    preds, observations, settings: GASettings = GASettings(), on_sweep=None
) -> np.ndarray:
    """One-to-many matching of N predicted peaks onto M observed peaks.

    Every predicted row is assigned exactly once, to its most confident
    column of the final soft matrix; observed columns may take several
    rows, which is what symmetry collapse and signal overlap produce.
    """
    if len(observations) == 0:
        raise MatchingError("no observed peaks to match against")
    if len(preds) == 0:
        raise MatchingError("no predicted peaks to match")
    cost = cost_matrix(preds, observations, settings.c_scale)
    sim = similarity(cost, settings.epsilon)
    soft = None
    for _beta, soft in softassign_rounds(sim, settings, on_sweep=on_sweep):
        pass
    assert soft is not None  # beta0 < beta_max by construction
    assignment = np.zeros(soft.shape, dtype=np.int8)
    assignment[np.arange(soft.shape[0]), np.argmax(soft, axis=1)] = 1
    return assignment


@dataclass(frozen=True)
class PseudoLabel:
    carbon_index: int
    slot: int
    obs_index: int
    delta_c: float
    delta_h: float


@dataclass
class PseudoLabels:
    """Per-molecule matching outcome used as fine-tuning supervision."""

    entries: list[PseudoLabel]
    provenance: str
    iteration: int
    mean_cost: float
    rejected: bool


@dataclass(frozen=True)
class MatchSettings:
    c_scale: float = DEFAULT_C_SCALE
    reject_threshold: float = 1.0
    ga: GASettings = field(default_factory=GASettings)
    iteration: int = 0


def pseudo_annotate(
    molecule, predictions, observations, settings: MatchSettings = MatchSettings()
) -> PseudoLabels | None:
    """Match predictions to observations and emit training targets.

    Equal counts route through the exact matcher, anything else through
    graduated assignment. A molecule whose mean matched cost exceeds the
    rejection threshold is flagged (kept, but skipped by the next training
    round). Empty observation lists skip the molecule with a warning.
    """
    if not observations:
        log.warning(
            "skipping %s: no observed peaks", getattr(molecule, "smiles", "molecule")
        )
        return None
    if not predictions:
        log.warning(
            "skipping %s: no predicted peaks", getattr(molecule, "smiles", "molecule")
        )
        return None
    n, m = len(predictions), len(observations)
    ga = replace(settings.ga, c_scale=settings.c_scale)
    if n == m:
        provenance = "hungarian"
        assignment = hungarian(cost_matrix(predictions, observations, settings.c_scale))
    else:
        provenance = "graduated"
        assignment = graduated_assignment(predictions, observations, ga)
    entries = []
    total = 0.0
    for i, pred in enumerate(predictions):
        j = int(np.argmax(assignment[i]))
        obs = observations[j]
        total += shift_cost(pred, obs, settings.c_scale)
        entries.append(
            PseudoLabel(
                carbon_index=pred.ch_unit.carbon_index,
                slot=pred.peak_slot,
                obs_index=obs.index,
                delta_c=obs.delta_c,
                delta_h=obs.delta_h,
            )
        )
    mean_cost = total / n
    return PseudoLabels(
        entries=entries,
        provenance=provenance,
        iteration=settings.iteration,
        mean_cost=mean_cost,
        rejected=mean_cost > settings.reject_threshold,
    )
