"""Alignment of predicted cross peaks with observed peak lists.

Equal cardinalities go through an exact one-to-one assignment (minimum
total cost, deterministic lexicographic tie-break): one
``linear_sum_assignment`` solve, optimal dual potentials from shortest
paths on its residual graph, and a tie-break confined to the
zero-reduced-cost edges, whose perfect matchings are exactly the optimal
assignments (Jonker & Volgenant 1987): rows that tie over the same
columns take them in order, and an alternating-path search settles the
rest. Mismatched
cardinalities go through graduated assignment: a softassign at one
temperature (alternating row/column normalization of exp(beta * similarity)),
hardened row by row into a one-to-many matching where every predicted peak
lands on some observed peak. The cost is linear, so annealing (Gold &
Rangarajan 1996) would have nothing to carry between temperatures.

On a large list almost every soft entry lies hundreds of nats below its row
or column maximum, where ``exp`` rounds to exactly 0.0 but numpy spends up
to twenty times longer per entry; softassign evaluates ``exp`` only above
that cut, so its output is bit-identical to evaluating it everywhere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, is_dataclass
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

DEFAULT_C_SCALE = 10.0  # carbon/proton resolution ratio: 0.1 ppm vs 0.01 ppm


class MatchingError(ValueError):
    pass


@dataclass(frozen=True)
class ObservedPeak:
    delta_c: float
    delta_h: float
    index: int


def is_finite_real(value) -> bool:
    """True for a real number that is not a bool and is finite as a float;
    an integer too large for a float counts as non-finite."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_integer(value) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_integer(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``low``."""
    if not (is_integer(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name: str, value, positive: bool = False) -> None:
    """Raise ValueError unless ``value`` is a finite real number (not a
    bool), and greater than 0 when ``positive``."""
    if not (is_finite_real(value) and (value > 0 or not positive)):
        kind = "positive finite" if positive else "finite"
        raise ValueError(f"{name} must be a {kind} number, got {value!r}")


def config_from_json(cls, raw, section: str, **overrides):
    """``cls(**raw, **overrides)`` for a config dataclass read from a JSON
    object. A non-object and an unknown key raise ValueError naming
    ``section``; a field whose default is a config class (``MatchSettings.ga``)
    reads its own object, as section ``<section>.<field>``."""
    if not isinstance(raw, dict):
        raise ValueError(f"section {section!r} must be a JSON object, got {type(raw).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in section {section!r}; "
                         f"expected some of {list(known)}")
    kwargs = {**raw, **overrides}
    for name, value in raw.items():
        nested = known[name].default_factory
        if is_dataclass(nested):
            kwargs[name] = config_from_json(nested, value, f"{section}.{name}")
    return cls(**kwargs)


def ingest_peaks(pairs) -> list[ObservedPeak]:
    """Build ObservedPeaks from [delta_c, delta_h] pairs.

    Values outside the loose plausibility windows (carbon 0..250, proton
    -2..14) are kept but logged; an entry that is not a pair of numbers is a
    ``ValueError`` and a non-finite value a ``MatchingError``.
    """
    if not isinstance(pairs, (list, tuple, np.ndarray)):
        raise ValueError(
            f"observed peaks must be a list of [delta_c, delta_h] pairs, got {pairs!r}"
        )
    peaks = []
    for i, entry in enumerate(pairs):
        try:
            dc, dh = entry
        except (TypeError, ValueError):
            dc = dh = None
        if not all(isinstance(v, Real) and not isinstance(v, bool) for v in (dc, dh)):
            raise ValueError(
                f"observed peak {i} is not a [delta_c, delta_h] pair of numbers: {entry!r}"
            )
        if not (is_finite_real(dc) and is_finite_real(dh)):
            raise MatchingError(f"non-finite observed peak at index {i}")
        dc, dh = float(dc), float(dh)
        if not 0.0 <= dc <= 250.0 or not -2.0 <= dh <= 14.0:
            log.warning(
                "observed peak %d (%.2f, %.2f) outside the usual shift range",
                i, dc, dh,
            )
        peaks.append(ObservedPeak(dc, dh, i))
    return peaks


def _pair_cost(pred_h, pred_c, obs_h, obs_c, c_scale):
    """|proton difference| + |carbon difference| / c_scale, of numbers or
    of arrays that broadcast: the one cost rule of the matchers."""
    if c_scale <= 0:
        raise ValueError("c_scale must be positive")
    return abs(pred_h - obs_h) + abs(pred_c - obs_c) / c_scale


def shift_cost(pred, obs, c_scale: float = DEFAULT_C_SCALE) -> float:
    """The cost of one (prediction, observation) pair."""
    return _pair_cost(pred.delta_h, pred.delta_c, obs.delta_h, obs.delta_c, c_scale)


def _shifts(peaks) -> tuple[np.ndarray, np.ndarray]:
    """(proton, carbon) shift arrays of a peak list."""
    return (np.fromiter((p.delta_h for p in peaks), np.float64, len(peaks)),
            np.fromiter((p.delta_c for p in peaks), np.float64, len(peaks)))


def cost_matrix(preds, observations, c_scale: float = DEFAULT_C_SCALE) -> np.ndarray:
    """``shift_cost`` of every (prediction, observation) pair."""
    pred_h, pred_c = _shifts(preds)
    obs_h, obs_c = _shifts(observations)
    mat = _pair_cost(pred_h[:, None], pred_c[:, None], obs_h[None, :], obs_c[None, :], c_scale)
    if not np.all(np.isfinite(mat)):
        raise MatchingError("non-finite entries in cost matrix")
    return mat


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's ``linear_sum_assignment``, imported on the first call:
    importing ``scipy.optimize`` costs about 0.5 s, which a process that
    never solves an exact assignment of two or more rows need not pay."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost one-to-one assignment of a square cost matrix.

    Returns the binary assignment matrix. Among equal-cost optima the
    lexicographically smallest row-to-column mapping wins. One
    ``linear_sum_assignment`` solve gives an optimum; shortest paths over
    its columns give optimal dual potentials, and by complementary slackness
    the optimal assignments are exactly the perfect matchings inside the
    tight edges (reduced cost at most tol = 1e-9 * max(1, |optimum|),
    so costs closer than that tie). The tie-break gives each group of rows
    that owns its tight columns those columns in order, and moves the other
    rows, in order, to smaller tight columns along alternating paths.
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
    if n <= 1:
        return np.ones((n, n), dtype=np.int8)
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))
    cols = _lexicographic_first(_reduced_costs(cost, cols, tol) <= tol, cols)
    assignment = np.zeros((n, n), dtype=np.int8)
    assignment[rows, cols] = 1
    return assignment


def _reduced_costs(cost: np.ndarray, cols: np.ndarray, tol: float) -> np.ndarray:
    """Reduced costs of every edge under dual potentials of the optimum ``cols``.

    The column potentials are shortest-path distances on the residual graph:
    moving row i from column cols[i] to column j costs
    cost[i, j] - cost[i, cols[i]]. Each move gets a slack of tol / 4n so a
    cycle that is negative only by rounding cannot stall the relaxation;
    the reduced costs are then at least -tol / 4n, zero on ``cols``.
    """
    n = len(cols)
    move = cost - cost[np.arange(n), cols][:, None]
    step = move + tol / (4 * n)
    dist = np.zeros(n)
    for _ in range(n):
        relaxed = np.minimum(dist, (dist[cols][:, None] + step).min(axis=0))
        if np.array_equal(relaxed, dist):
            return move + dist[cols][:, None] - dist[None, :]
        dist = relaxed
    raise MatchingError("dual relaxation did not converge: the assignment is not optimal")


def _lexicographic_first(tight: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching inside ``tight``,
    starting from the perfect matching ``cols``.

    Rows are grouped by their smallest tight column. A group whose rows all
    have the tight columns of its first row, as many as the group has rows,
    owns those columns in every perfect matching (no other row can take
    one), so its rows take them in ascending order. Every complete
    bipartite component of the tight graph is such a group. Each other
    row, in order, moves to the smallest tight column j below its own
    whose owner can pass its column on, along tight edges of rows after
    it, until one takes its old column; the path is then rotated.
    """
    n = len(cols)
    edge_row, edge_col = np.nonzero(tight)  # each row's columns ascending
    if len(edge_row) == n:  # one tight edge per row: ``cols`` is the only matching
        return cols
    degree = np.bincount(edge_row, minlength=n)
    first_edge = np.cumsum(degree) - degree
    smallest = edge_col[first_edge]
    size = np.bincount(smallest, minlength=n)
    by_group = np.argsort(smallest, kind="stable")
    group_start = (np.cumsum(size) - size)[smallest[by_group]]
    leader = np.empty(n, dtype=np.intp)
    leader[by_group] = by_group[group_start]
    rank = np.empty(n, dtype=np.intp)
    rank[by_group] = np.arange(n) - group_start
    # each edge against the edge at the same offset in its group's first row
    # (out of range only where the degrees differ, which fails the group anyway)
    same = edge_col == edge_col[np.minimum(
        first_edge[leader[edge_row]] + np.arange(len(edge_row)) - first_edge[edge_row],
        len(edge_row) - 1,
    )]
    fits = degree == size[smallest]
    fits[edge_row[~same]] = False
    closed = np.ones(n, dtype=bool)
    closed[smallest[~fits]] = False
    closed = closed[smallest]
    cols = cols.copy()
    cols[closed] = edge_col[first_edge[leader[closed]] + rank[closed]]
    owner = np.empty(n, dtype=np.intp)
    owner[cols] = np.arange(n)
    for r in np.flatnonzero(~closed & (degree > 1)):
        below = np.flatnonzero(tight[r, : cols[r]])
        below = below[owner[below] > r]
        if below.size == 0:
            continue
        # Search backwards from r's column: a row reaches it when it has a
        # tight edge to it or to the column of a row that reaches it.
        target = np.full(n, -1)  # per reaching row, the column it moves to
        open_rows = np.arange(n) > r
        frontier = cols[r : r + 1]
        while frontier.size:
            hits = tight[:, frontier] & open_rows[:, None]
            reached = np.flatnonzero(hits.any(axis=1))
            target[reached] = frontier[hits[reached].argmax(axis=1)]
            open_rows[reached] = False
            frontier = cols[reached]
        below = below[target[owner[below]] >= 0]
        if below.size == 0:
            continue
        j = below[0]
        row, freed = owner[j], cols[r]
        cols[r], owner[j] = j, r
        while True:
            col = target[row]
            nxt = owner[col]
            cols[row], owner[col] = col, row
            if col == freed:
                break
            row = nxt
    return cols


@dataclass(frozen=True)
class GASettings:
    """Softassign at temperature ``beta`` over the similarity
    1 / (cost + epsilon), normalized ``sweeps`` times."""

    epsilon: float = 1e-6
    beta: float = 1.5**13
    sweeps: int = 30

    def __post_init__(self) -> None:
        check_real("ga.beta", self.beta, positive=True)
        check_real("ga.epsilon", self.epsilon, positive=True)
        # the largest softassign logit, at zero cost; inf there turns the
        # whole soft matrix into NaN
        if not math.isfinite(self.beta * (1.0 / (0.0 + self.epsilon))):
            raise ValueError(
                f"ga.beta / ga.epsilon must be finite, got {self.beta!r} / {self.epsilon!r}"
            )
        check_integer("ga.sweeps", self.sweeps, 1)


# exp(x) rounds to exactly 0.0 for x below about -745.133 (half the smallest
# subnormal), and numpy takes a slow path on every such entry.
_EXP_ZERO_BELOW = -745.2
# Skipping those entries costs four numpy calls per normalization; on
# fewer entries than this the calls cost more than the slow path they skip.
_MASK_MIN_ENTRIES = 1024


def _exp(x: np.ndarray, out: np.ndarray, live: np.ndarray | None) -> np.ndarray:
    """np.exp(x) into ``out``, bit for bit. With a boolean work array
    ``live``, exp runs only where x is not at or below ``_EXP_ZERO_BELOW``
    (NaN included) and ``out`` holds the exact 0.0 elsewhere."""
    if live is None:
        return np.exp(x, out)
    np.logical_not(np.less_equal(x, _EXP_ZERO_BELOW, live), live)
    out.fill(0.0)
    return np.exp(x, out, where=live)


def softassign(cost: np.ndarray, settings: GASettings, on_sweep=None) -> np.ndarray:
    """Soft matrix after ``settings.sweeps`` row-then-column normalizations
    of exp(beta / (cost + epsilon)), in log space for stability.
    ``on_sweep`` receives the matrix after every column normalization.

    Each normalization is log_q - (peak + log(sum(exp(log_q - peak)))) along
    the axis, evaluated in place on work arrays allocated once per call. On a
    matrix of at least ``_MASK_MIN_ENTRIES`` entries, exp skips the entries
    more than 745.2 below their peak: their exp is exactly 0.0, and writing
    that 0.0 in place leaves every sum, and so every bit, unchanged.
    """
    log_q = settings.beta * (1.0 / (cost + settings.epsilon))
    shifted = np.empty_like(log_q)
    weights = np.empty_like(log_q)
    live = np.empty(log_q.shape, dtype=bool) if log_q.size >= _MASK_MIN_ENTRIES else None
    for _ in range(settings.sweeps):
        for axis in (1, 0):
            # out arrays are positional: keywords cost more than a small
            # matrix's arithmetic
            peak = np.maximum.reduce(log_q, axis, keepdims=True)
            _exp(np.subtract(log_q, peak, shifted), weights, live)
            total = np.add.reduce(weights, axis, keepdims=True)
            np.add(peak, np.log(total, total), total)
            np.subtract(log_q, total, log_q)
        if on_sweep is not None:
            on_sweep(_exp(log_q, np.empty_like(log_q), live))
    return _exp(log_q, np.empty_like(log_q), live)


class PseudoLabel(NamedTuple):
    """One matched (carbon, slot): the observed peak it is assigned to and
    the predicted shifts that were matched. An immutable record that
    compares and hashes by value."""

    carbon_index: int
    slot: int
    obs_index: int
    delta_c: float
    delta_h: float
    pred_delta_c: float
    pred_delta_h: float


@dataclass
class PseudoLabels:
    """Per-molecule matching outcome used as fine-tuning supervision."""

    entries: list[PseudoLabel]
    provenance: str
    mean_cost: float
    rejected: bool


@dataclass(frozen=True)
class MatchSettings:
    c_scale: float = DEFAULT_C_SCALE
    reject_threshold: float = 1.0
    ga: GASettings = field(default_factory=GASettings)

    def __post_init__(self) -> None:
        check_real("c_scale", self.c_scale, positive=True)
        check_real("reject_threshold", self.reject_threshold)
        if not isinstance(self.ga, GASettings):
            raise ValueError(f"ga must be GASettings, got {self.ga!r}")


def graduated_assignment(
    preds, observations, settings: MatchSettings = MatchSettings(), on_sweep=None
) -> np.ndarray:
    """One-to-many matching of N predicted peaks onto M observed peaks.

    Costs weigh carbon differences by ``settings.c_scale``; the softassign
    temperature and sweeps are ``settings.ga``. Every predicted row is
    assigned exactly once, to its most confident column of the soft matrix;
    observed columns may take several rows, which is what symmetry collapse
    and signal overlap produce.
    """
    if len(observations) == 0:
        raise MatchingError("no observed peaks to match against")
    if len(preds) == 0:
        raise MatchingError("no predicted peaks to match")
    cost = cost_matrix(preds, observations, settings.c_scale)
    soft = softassign(cost, settings.ga, on_sweep)
    assignment = np.zeros(soft.shape, dtype=np.int8)
    assignment[np.arange(soft.shape[0]), np.argmax(soft, axis=1)] = 1
    return assignment


def pseudo_annotate(
    molecule, predictions, observations, settings: MatchSettings = MatchSettings()
) -> PseudoLabels | None:
    """Match predictions to observations and emit training targets.

    Equal counts route through the exact matcher, anything else through
    graduated assignment. A molecule whose mean matched cost exceeds the
    rejection threshold is flagged (kept, but skipped by the next training
    round). An empty list of either skips the molecule with a warning.
    """
    if not observations or not predictions:
        log.warning("skipping %s: no %s peaks", getattr(molecule, "smiles", "molecule"),
                    "predicted" if observations else "observed")
        return None
    n, m = len(predictions), len(observations)
    if n == m:
        provenance = "hungarian"
        assignment = hungarian(cost_matrix(predictions, observations, settings.c_scale))
    else:
        provenance = "graduated"
        assignment = graduated_assignment(predictions, observations, settings)
    picked = [observations[j] for j in assignment.argmax(axis=1).tolist()]
    pred_h, pred_c = _shifts(predictions)
    obs_h, obs_c = _shifts(picked)
    # the cost of every matched pair, added left to right as a running float
    # would add them: np.sum adds pairwise
    costs = _pair_cost(pred_h, pred_c, obs_h, obs_c, settings.c_scale)
    mean_cost = float(np.add.accumulate(costs)[-1]) / n
    entries = list(map(
        PseudoLabel, [p.ch_unit.carbon_index for p in predictions],
        [p.peak_slot for p in predictions], [o.index for o in picked],
        obs_c.tolist(), obs_h.tolist(), pred_c.tolist(), pred_h.tolist(),
    ))
    return PseudoLabels(
        entries=entries,
        provenance=provenance,
        mean_cost=mean_cost,
        rejected=mean_cost > settings.reject_threshold,
    )
