from __future__ import annotations

import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsqcnet.assign import (
    GASettings,
    MatchSettings,
    MatchingError,
    ObservedPeak,
    PseudoLabel,
    cost_matrix,
    graduated_assignment,
    hungarian,
    ingest_peaks,
    is_finite_real,
    pseudo_annotate,
    shift_cost,
    softassign,
)
from helpers import (
    annealed_graduated_assignment,
    final_temperature,
    lexicographic_optimum,
    reference_pseudo_annotate,
    reference_softassign,
    searched_tie_break,
)
from hsqcnet.model import PredictedPeak
from hsqcnet.molgraph import CHUnit


class FakePeak:
    def __init__(self, delta_c, delta_h, carbon=0, slot=1):
        self.delta_c = delta_c
        self.delta_h = delta_h
        self.peak_slot = slot

        class Unit:
            carbon_index = carbon

        self.ch_unit = Unit()


def brute_force_min(cost: np.ndarray) -> float:
    n = cost.shape[0]
    return min(
        sum(cost[i, perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def test_shift_cost_examples():
    a = FakePeak(100.0, 5.0)
    assert shift_cost(a, ObservedPeak(100.0, 5.0, 0)) == 0.0
    assert shift_cost(FakePeak(110.0, 5.0), ObservedPeak(100.0, 5.0, 0)) == pytest.approx(1.0)
    assert shift_cost(FakePeak(102.0, 5.3), ObservedPeak(100.0, 5.0, 0)) == pytest.approx(0.5)


def test_shift_cost_requires_positive_scale():
    with pytest.raises(ValueError):
        shift_cost(FakePeak(1, 1), ObservedPeak(1, 1, 0), c_scale=0.0)


# finite shifts whose differences, over any drawn c_scale, stay finite
_SHIFTS = st.floats(-1e300, 1e300, allow_nan=False)


@given(st.lists(st.tuples(_SHIFTS, _SHIFTS), min_size=1, max_size=4),
       st.lists(st.tuples(_SHIFTS, _SHIFTS), min_size=1, max_size=4),
       st.floats(1e-6, 1e6))
@settings(max_examples=200, deadline=None, derandomize=True)
@example([(0.1, 1e300)], [(-0.2, -1e300)], 1e-6)
def test_cost_matrix_entries_are_shift_cost_bit_for_bit(preds, observed, c_scale):
    preds = [FakePeak(c, h) for c, h in preds]
    observed = [ObservedPeak(c, h, k) for k, (c, h) in enumerate(observed)]
    got = cost_matrix(preds, observed, c_scale)
    assert [[v.hex() for v in row] for row in got.tolist()] == [
        [shift_cost(p, o, c_scale).hex() for o in observed] for p in preds]


@pytest.mark.parametrize("big", [2**53, 10**30])
def test_shift_cost_keeps_integer_arithmetic(big):
    # as floats, big + 1 and big are one number; as integers they differ by 1
    assert shift_cost(FakePeak(big + 1, 0), ObservedPeak(big, 0, 0)) == 0.1
    assert shift_cost(FakePeak(0, big + 1), ObservedPeak(0, big, 0), c_scale=3.0) == 1


def test_ingest_peaks_warns_but_keeps_out_of_range(caplog):
    with caplog.at_level(logging.WARNING):
        peaks = ingest_peaks([[300.0, 5.0], [100.0, 5.0]])
    assert len(peaks) == 2
    assert "outside" in caplog.text
    with pytest.raises(MatchingError):
        ingest_peaks([[float("nan"), 1.0]])


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan"), 10**400, -(10**400)],
                         ids=["inf", "-inf", "nan", "401 digits", "-401 digits"])
def test_ingest_peaks_non_finite_is_matching_error(value):
    # an integer too large for a float is non-finite, not an OverflowError
    assert not is_finite_real(value)
    for pair in ([value, 1.0], [1.0, value]):
        with pytest.raises(MatchingError, match="non-finite observed peak at index 0"):
            ingest_peaks([pair])


def test_finite_real_rule():
    assert is_finite_real(1) and is_finite_real(-2.5) and is_finite_real(np.float32(3.0))
    assert is_finite_real(10**300) and is_finite_real(np.int64(7))
    for value in (True, False, None, "1.0", [1.0], 1j, float("nan")):
        assert not is_finite_real(value), value


@pytest.mark.parametrize("pairs, where", [
    (5.0, "list of"), ({"a": [1, 2]}, "list of"), ([[1.0, 2.0], [3.0]], "observed peak 1"),
    ([[True, 2.0]], "observed peak 0"), ([["1", "2"]], "observed peak 0"),
])
def test_ingest_peaks_rejects_malformed_input(pairs, where):
    with pytest.raises(ValueError, match=where) as info:
        ingest_peaks(pairs)
    assert not isinstance(info.value, MatchingError)


def test_hungarian_zero_diagonal_identity():
    cost = np.full((4, 4), 9.0)
    np.fill_diagonal(cost, 0.0)
    assignment = hungarian(cost)
    assert np.array_equal(assignment, np.eye(4, dtype=np.int8))


def test_hungarian_all_equal_tie_breaks_to_identity():
    assignment = hungarian(np.ones((5, 5)))
    assert np.array_equal(assignment, np.eye(5, dtype=np.int8))


def test_hungarian_lexicographic_tie_break():
    # two optimal assignments; the row0->col0 branch must win
    cost = np.array([[1.0, 1.0], [1.0, 1.0]])
    assignment = hungarian(cost)
    assert assignment[0, 0] == 1 and assignment[1, 1] == 1


def test_hungarian_rejects_non_square():
    with pytest.raises(MatchingError, match="square"):
        hungarian(np.zeros((2, 3)))


def test_hungarian_rejects_non_finite():
    cost = np.ones((2, 2))
    cost[0, 1] = np.inf
    with pytest.raises(MatchingError):
        hungarian(cost)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_hungarian_matches_exhaustive(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        cost = rng.uniform(0.0, 1.0, size=(n, n))
        assignment = hungarian(cost)
        assert assignment.sum() == n
        assert np.all(assignment.sum(axis=0) == 1)
        assert np.all(assignment.sum(axis=1) == 1)
        total = float((assignment * cost).sum())
        assert total == pytest.approx(brute_force_min(cost), abs=1e-12)


@given(st.integers(min_value=1, max_value=1000), st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=25, deadline=None)
def test_hungarian_scale_invariance(seed, factor):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.0, 1.0, size=(4, 4))
    assert np.array_equal(hungarian(cost), hungarian(cost * factor))


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    ),
    st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=300, deadline=None)
def test_hungarian_tie_break_matches_brute_force(levels, factor):
    # three cost levels make ties the rule; the oracle works on the exact integers
    cost = np.array(levels, dtype=np.float64) * factor
    assignment = hungarian(cost)
    assert np.all(assignment.sum(axis=0) == 1) and np.all(assignment.sum(axis=1) == 1)
    assert assignment.argmax(axis=1).tolist() == lexicographic_optimum(levels)


@pytest.mark.parametrize("scale", [1.0, 30.0, 1e4])  # below an optimum of 1, tol is 1e-9
def test_hungarian_near_ties_within_tolerance_break_lexicographically(scale):
    swap = np.array([[1.0, 0.0], [0.0, 1.0]])
    tied = scale * (1.0 + 1e-12 * swap)  # the identity is dearer by 2e-12 * scale
    assert np.array_equal(hungarian(tied), np.eye(2, dtype=np.int8))
    apart = scale * (1.0 + 1e-6 * swap)
    assert np.array_equal(hungarian(apart), np.eye(2, dtype=np.int8)[::-1])


def test_hungarian_empty_and_single():
    assert hungarian(np.zeros((0, 0))).shape == (0, 0)
    single = hungarian(np.array([[3.5]]))
    assert single.dtype == np.int8 and single.tolist() == [[1]]


# the tight edges of a 3 x 3 six-cycle: every row has two, no two rows the same
SIX_CYCLE = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


@st.composite
def planted_levels(draw, min_n, max_n):
    """Integer costs of levels 0..3 on a k x k base whose rows and columns
    are repeated, so identical rows and columns plant groups of tied rows
    over tied columns; some draws raise scattered entries by one level,
    which leaves groups whose rows share only some tight columns, and some
    embed ``SIX_CYCLE`` at zero cost amid dearer entries."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    k = int(rng.integers(1, n + 1))
    base = rng.integers(0, 4, size=(k, k))
    levels = base[rng.integers(0, k, n)][:, rng.integers(0, k, n)]
    if draw(st.booleans()):
        levels = levels + (rng.random((n, n)) < 0.15)
    if n >= 3 and draw(st.booleans()):
        at = rng.choice(n, 3, replace=False)
        levels[np.ix_(at, at)] = np.array(SIX_CYCLE) * 4
    return levels.astype(np.float64)


@given(planted_levels(2, 7), st.sampled_from([0.0, 1e-12]), st.integers(0, 2**32 - 1))
@example(np.array(SIX_CYCLE, dtype=np.float64), 0.0, 0)
@example(np.array([[0, 0, 1, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 0]], dtype=np.float64),
         0.0, 0)
@example(np.zeros((7, 7)), 1e-12, 3)
@settings(max_examples=300, deadline=None)
def test_hungarian_groups_and_near_tie_chains_match_brute_force(levels, jitter, seed):
    # a jitter of up to 3e-12 per entry chains near-equal totals that all
    # lie inside the tie tolerance (1e-9), so the oracle reads the integers
    rng = np.random.default_rng(seed)
    cost = levels + jitter * rng.integers(0, 4, size=levels.shape)
    assignment = hungarian(cost)
    assert np.all(assignment.sum(axis=0) == 1) and np.all(assignment.sum(axis=1) == 1)
    assert assignment.argmax(axis=1).tolist() == lexicographic_optimum(levels)


@given(planted_levels(20, 60), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_hungarian_on_planted_groups_equals_the_search_over_every_row(levels, factor):
    cost = levels * factor
    assert hungarian(cost).argmax(axis=1).tolist() == searched_tie_break(cost)


def make_peaks(values):
    preds = [FakePeak(c, h, carbon=i) for i, (c, h) in enumerate(values)]
    obs = [ObservedPeak(c, h, i) for i, (c, h) in enumerate(values)]
    return preds, obs


def test_graduated_matches_hungarian_when_well_separated():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        centers = [(rng.uniform(10, 190), rng.uniform(0.5, 9.5)) for _ in range(n)]
        # enforce generous pairwise separation
        centers = [(c + 40 * i, h + 2.5 * i) for i, (c, h) in enumerate(centers)]
        preds = [FakePeak(c + rng.normal(0, 0.05), h + rng.normal(0, 0.005), carbon=i)
                 for i, (c, h) in enumerate(centers)]
        order = rng.permutation(n)
        obs = [ObservedPeak(centers[k][0], centers[k][1], j) for j, k in enumerate(order)]
        ga = graduated_assignment(preds, obs)
        hung = hungarian(cost_matrix(preds, obs))
        assert np.array_equal(ga, hung)


def test_graduated_symmetric_pair_one_to_many():
    preds = [FakePeak(100.0, 5.0, carbon=0), FakePeak(100.0, 5.0, carbon=1)]
    obs = [ObservedPeak(100.0, 5.0, 0)]
    assignment = graduated_assignment(preds, obs)
    assert assignment.shape == (2, 1)
    assert np.all(assignment[:, 0] == 1)


def test_graduated_single_pair_matches():
    assignment = graduated_assignment(
        [FakePeak(10.0, 1.0)], [ObservedPeak(180.0, 9.0, 0)]
    )
    assert assignment[0, 0] == 1


def test_graduated_reads_c_scale_from_match_settings():
    # row 0 sits 0.5 ppm off peak 0 in proton and 3 ppm off peak 1 in carbon:
    # the carbon weight 1 / c_scale decides which is nearer
    preds = [FakePeak(100.0, 5.0, carbon=0), FakePeak(60.0, 2.0, carbon=1),
             FakePeak(20.0, 1.0, carbon=2)]
    obs = [ObservedPeak(100.0, 5.5, 0), ObservedPeak(103.0, 5.0, 1)]
    default = graduated_assignment(preds, obs)
    assert np.array_equal(default, graduated_assignment(preds, obs, MatchSettings()))
    assert default[0].argmax() == 1
    carbon_heavy = graduated_assignment(preds, obs, MatchSettings(c_scale=1.0))
    assert carbon_heavy[0].argmax() == 0
    assert np.all(carbon_heavy.sum(axis=1) == 1)


def test_graduated_rejects_empty_observations():
    with pytest.raises(MatchingError):
        graduated_assignment([FakePeak(1, 1)], [])


def test_graduated_rows_covered_exactly_once():
    rng = np.random.default_rng(7)
    preds = [FakePeak(rng.uniform(0, 200), rng.uniform(0, 10), carbon=i) for i in range(8)]
    obs = [ObservedPeak(rng.uniform(0, 200), rng.uniform(0, 10), j) for j in range(5)]
    assignment = graduated_assignment(preds, obs)
    assert np.all(assignment.sum(axis=1) == 1)


def test_graduated_more_observations_than_predictions():
    rng = np.random.default_rng(9)
    preds = [FakePeak(rng.uniform(0, 200), rng.uniform(0, 10), carbon=i) for i in range(3)]
    obs = [ObservedPeak(rng.uniform(0, 200), rng.uniform(0, 10), j) for j in range(6)]
    assignment = graduated_assignment(preds, obs)
    assert np.all(assignment.sum(axis=1) == 1)  # noise peaks may stay unmatched


def test_soft_matrix_bounded_after_column_normalization():
    rng = np.random.default_rng(3)
    cost = rng.uniform(0.0, 5.0, size=(4, 4))
    seen = []
    soft = softassign(cost, GASettings(), on_sweep=seen.append)
    assert len(seen) == GASettings().sweeps
    assert np.array_equal(seen[-1], soft)
    for q in seen:
        assert np.all(q >= 0.0) and np.all(q <= 1.0 + 1e-12)


def test_row_sums_near_one_at_default_beta():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(3, 6))
        base = np.linspace(0, 150, n)
        cost = np.abs(base[:, None] - base[None, :]) / 10.0 + rng.uniform(0, 0.01, (n, n))
        soft = softassign(cost, GASettings())
        assert float(np.abs(soft.sum(axis=1) - 1.0).max()) < 1e-6


def test_default_beta_is_last_temperature_of_the_old_schedule():
    assert GASettings().beta == final_temperature(1.0, 1.5, 200.0) == 194.6195068359375


@pytest.mark.parametrize("bad", [
    {"beta": 0.0}, {"beta": -1.0}, {"beta": float("nan")}, {"beta": float("inf")},
    {"epsilon": 0.0}, {"sweeps": 0}, {"sweeps": 2.5}, {"sweeps": True},
    # finite each, but beta / epsilon overflows: every soft entry was NaN
    {"beta": 1e303}, {"epsilon": 1e-310}, {"beta": "x"},
])
def test_ga_settings_reject_bad_values(bad):
    with pytest.raises(ValueError, match=f"ga.{next(iter(bad))}"):
        GASettings(**bad)


@pytest.mark.parametrize("bad", [
    {"c_scale": 0}, {"c_scale": "x"}, {"c_scale": float("nan")},
    {"reject_threshold": "x"}, {"reject_threshold": float("nan")}, {"ga": {"beta": 2.0}},
])
def test_match_settings_reject_bad_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        MatchSettings(**bad)


SOFT_SETTINGS = [GASettings(), GASettings(beta=2.0, sweeps=3), GASettings(epsilon=1e-3, sweeps=7)]
# shifted logits in (-745.13, -708.4] have subnormal exps; below the band exp is 0.0
SUBNORMAL_BAND = (-745.13, -708.4)


def plant_subnormal_entry(cost, row, low, high, shift, settings=GASettings()):
    """Make cost[row, low] the row's cheapest entry and give cost[row, high]
    a logit ``shift`` (in the subnormal band) below it."""
    cost[row, low] = min(float(cost[row].min()), 0.1)
    peak = settings.beta * (1.0 / (cost[row, low] + settings.epsilon))
    cost[row, high] = settings.beta / (peak + shift) - settings.epsilon


@st.composite
def soft_costs(draw):
    """Cost matrices from 1 x m and n x 1 up to past the size where
    softassign starts skipping exp, with exact zeros and rows planted with
    entries whose exps are subnormal."""
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cost = rng.uniform(0.0, draw(st.sampled_from([0.05, 1.0, 30.0])), (n, m))
    cost[rng.random((n, m)) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    if m > 1:
        for row in range(n):
            if rng.random() < draw(st.sampled_from([0.0, 0.3, 1.0])):
                low, high = rng.choice(m, 2, replace=False)
                plant_subnormal_entry(cost, row, low, high, rng.uniform(*SUBNORMAL_BAND))
    return cost


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True) and got.tobytes() == want.tobytes()


@given(soft_costs(), st.sampled_from(SOFT_SETTINGS))
@settings(max_examples=120, deadline=None)
def test_softassign_equals_the_reference(cost, ga):
    got_sweeps, want_sweeps = [], []
    got = softassign(cost, ga, got_sweeps.append)
    want = reference_softassign(cost, ga, want_sweeps.append)
    assert_same_bits(got, want)
    assert len(got_sweeps) == len(want_sweeps) == ga.sweeps
    for a, b in zip(got_sweeps, want_sweeps):
        assert_same_bits(a, b)


@pytest.mark.parametrize("shape", [(1, 40), (40, 1), (31, 33), (32, 32), (40, 39)])
def test_softassign_subnormal_band_on_both_sides_of_the_exp_cut(shape):
    # 31 x 33 evaluates exp everywhere, 32 x 32 and up skips the zeros
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    cost = rng.uniform(0.0, 1.0, shape)
    cost[rng.random(shape) < 0.1] = 0.0
    ga = GASettings()
    if shape[1] > 1:
        for row in range(shape[0]):
            plant_subnormal_entry(cost, row, 0, 1, -720.0 - row % 20)
        log_q = ga.beta * (1.0 / (cost + ga.epsilon))
        shifted = log_q - log_q.max(axis=1, keepdims=True)
        band = (shifted[:, 1] > SUBNORMAL_BAND[0]) & (shifted[:, 1] <= SUBNORMAL_BAND[1])
        assert band.all() and np.all(np.exp(shifted[:, 1]) < np.finfo(float).tiny)
    got_sweeps, want_sweeps = [], []
    assert_same_bits(softassign(cost, ga, got_sweeps.append),
                     reference_softassign(cost, ga, want_sweeps.append))
    for a, b in zip(got_sweeps, want_sweeps, strict=True):
        assert_same_bits(a, b)


peak_grids = st.sampled_from([
    (0.0, 10.0, 20.0), (1.0, 1.5, 2.0, 2.5),  # tie-heavy shift levels
])


@st.composite
def peak_lists(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        grid = draw(peak_grids)
        value = st.sampled_from(grid)
        carbon, proton = st.builds(lambda v: 10.0 * v, value), value
    else:
        carbon = st.floats(min_value=0.0, max_value=200.0)
        proton = st.floats(min_value=0.0, max_value=10.0)
    peak = st.tuples(carbon, proton)
    preds = draw(st.lists(peak, min_size=n, max_size=n))
    obs = draw(st.lists(peak, min_size=m, max_size=m))
    if draw(st.booleans()):  # observed peaks duplicated from the predictions
        obs = [preds[draw(st.integers(min_value=0, max_value=n - 1))] for _ in range(m)]
    return preds, obs


@given(
    peak_lists(),
    st.sampled_from(["default", "c_scale 1", "custom"]),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=1.05, max_value=3.0),
    st.floats(min_value=1.01, max_value=200.0),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([1e-6, 1e-3, 0.1]),
)
@settings(max_examples=150, deadline=None)
def test_graduated_equals_the_annealed_schedule(lists, case, beta0, rate, span, sweeps, eps):
    # each annealing round restarted from beta * similarity, so only the last
    # temperature ever reached the result
    preds = [FakePeak(c, h, carbon=i) for i, (c, h) in enumerate(lists[0])]
    obs = [ObservedPeak(c, h, j) for j, (c, h) in enumerate(lists[1])]
    if case == "default":
        match, schedule = MatchSettings(), {}
    elif case == "c_scale 1":
        match, schedule = MatchSettings(c_scale=1.0), {}
    else:
        schedule = dict(epsilon=eps, beta0=beta0, rate=rate, beta_max=beta0 * span,
                        sweeps=sweeps)
        beta = final_temperature(beta0, rate, beta0 * span)
        match = MatchSettings(ga=GASettings(epsilon=eps, beta=beta, sweeps=sweeps))
    expected = annealed_graduated_assignment(cost_matrix(preds, obs, match.c_scale), **schedule)
    got = graduated_assignment(preds, obs, match)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


class FakeMol:
    smiles = "fake"


def test_pseudo_annotate_routes_by_cardinality():
    preds, obs = make_peaks([(10.0, 1.0), (60.0, 4.0), (120.0, 7.0)])
    labels = pseudo_annotate(FakeMol(), preds, obs)
    assert labels.provenance == "hungarian"
    labels = pseudo_annotate(FakeMol(), preds, obs[:2])
    assert labels.provenance == "graduated"


def test_pseudo_annotate_empty_observations_warns(caplog):
    preds, _ = make_peaks([(10.0, 1.0)])
    with caplog.at_level(logging.WARNING):
        assert pseudo_annotate(FakeMol(), preds, []) is None
    assert "no observed peaks" in caplog.text


def test_pseudo_annotate_empty_predictions_warns(caplog):
    _, obs = make_peaks([(10.0, 1.0)])
    with caplog.at_level(logging.WARNING):
        assert pseudo_annotate(FakeMol(), [], obs) is None
        assert pseudo_annotate(FakeMol(), [], []) is None  # observations are named first
    assert caplog.messages == [f"skipping {FakeMol.smiles}: no predicted peaks",
                               f"skipping {FakeMol.smiles}: no observed peaks"]


def test_pseudo_annotate_rejection_flag():
    preds, _ = make_peaks([(10.0, 1.0)])
    far = [ObservedPeak(200.0, 9.0, 0)]
    labels = pseudo_annotate(FakeMol(), preds, far, MatchSettings(reject_threshold=1.0))
    assert labels.rejected
    assert labels.mean_cost > 1.0
    near = [ObservedPeak(10.5, 1.01, 0)]
    labels = pseudo_annotate(FakeMol(), preds, near, MatchSettings(reject_threshold=1.0))
    assert not labels.rejected


def test_pseudo_annotate_recovers_generating_permutation():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        truth = [(rng.uniform(5, 195), rng.uniform(0.2, 9.8)) for _ in range(n)]
        truth = [(c + 30 * i, h + 1.5 * i) for i, (c, h) in enumerate(truth)]
        preds = [FakePeak(c, h, carbon=i) for i, (c, h) in enumerate(truth)]
        perm = list(rng.permutation(n))
        obs = [ObservedPeak(truth[perm[j]][0], truth[perm[j]][1], j) for j in range(n)]
        labels = pseudo_annotate(FakeMol(), preds, obs)
        for entry in labels.entries:
            assert perm[entry.obs_index] == entry.carbon_index


def test_pseudo_annotate_deterministic():
    preds, obs = make_peaks([(10.0, 1.0), (60.0, 4.0)])
    a = pseudo_annotate(FakeMol(), preds, obs)
    b = pseudo_annotate(FakeMol(), preds, obs)
    assert a.entries == b.entries
    assert a.mean_cost == b.mean_cost


def test_cost_matrix_rejects_non_finite():
    with pytest.raises(MatchingError):
        cost_matrix([FakePeak(np.inf, 1.0)], [ObservedPeak(1.0, 1.0, 0)])


@pytest.mark.parametrize("shape", [(3, 4), (40, 40)])
def test_softassign_propagates_nan_like_the_reference(shape):
    # the exp cut must not drop a NaN: it is not at or below the cut
    cost = np.random.default_rng(5).uniform(0.0, 1.0, shape)
    cost[1, 2] = np.nan
    assert_same_bits(softassign(cost, GASettings()), reference_softassign(cost, GASettings()))


@st.composite
def long_peak_lists(draw):
    n = draw(st.integers(min_value=1, max_value=45))
    m = draw(st.integers(min_value=1, max_value=45))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    preds = np.column_stack([rng.uniform(0, 200, n), rng.uniform(0, 10, n)])
    obs = preds[rng.integers(0, n, m)] + rng.normal(0, draw(st.sampled_from([0.0, 0.05])), (m, 2))
    return [tuple(p) for p in preds.tolist()], [tuple(o) for o in obs.tolist()]


@given(st.one_of(peak_lists(), long_peak_lists()),
       st.sampled_from([MatchSettings(), MatchSettings(c_scale=1.0, reject_threshold=0.05),
                        MatchSettings(ga=GASettings(beta=2.0, sweeps=3))]))
@settings(max_examples=120, deadline=None)
def test_pseudo_annotate_equals_the_per_row_loop(lists, match):
    preds = [FakePeak(c, h, carbon=i, slot=1 + i % 2) for i, (c, h) in enumerate(lists[0])]
    obs = [ObservedPeak(c, h, j) for j, (c, h) in enumerate(lists[1])]
    assert_same_labels(pseudo_annotate(FakeMol(), preds, obs, match),
                       reference_pseudo_annotate(preds, obs, match))


def assert_same_labels(got, want):
    """Field by field, each float by its bits."""
    assert (got.provenance, got.rejected) == (want.provenance, want.rejected)
    assert type(got.mean_cost) is float and got.mean_cost.hex() == want.mean_cost.hex()
    assert len(got.entries) == len(want.entries)
    for g, w in zip(got.entries, want.entries):
        assert type(g) is PseudoLabel and g._fields == w._fields
        for name in g._fields:
            a, b = getattr(g, name), getattr(w, name)
            assert type(a) is type(b), name
            assert (a.hex() == b.hex()) if isinstance(a, float) else a == b, name


@pytest.mark.parametrize("predicted", [16, 17])  # the exact branch, then the graduated one
def test_pseudo_annotate_sums_costs_left_to_right(predicted):
    # matched costs 1.0, then 2**-53 (one ulp at 0.5) for every other peak.
    # Added left to right each small cost rounds away, while numpy's
    # pairwise sum adds them to one another first and moves the total off
    # 1.0. A 17th peak lies one ulp from the first observed peak.
    preds = [FakePeak(20.0 * (i % 16), 0.5 + math.ulp(0.5) + (i == 0), carbon=i)
             for i in range(predicted)]
    obs = [ObservedPeak(20.0 * i, 0.5, i) for i in range(16)]
    want = reference_pseudo_annotate(preds, obs, MatchSettings())
    costs = [shift_cost(p, obs[e.obs_index]) for p, e in zip(preds, want.entries)]
    sequential = 0.0
    for cost in costs:
        sequential += cost
    assert sequential == 1.0 and float(np.sum(costs)) != sequential
    assert_same_labels(pseudo_annotate(FakeMol(), preds, obs), want)


def test_peak_and_label_records_are_immutable_values():
    unit = CHUnit(3, (7, 8), 2, 1, True)
    peak = PredictedPeak(unit, 31.5, 1.25, 2)
    label = PseudoLabel(3, 2, 5, 30.0, 1.2, 31.5, 1.25)
    assert (peak.ch_unit, peak.delta_c, peak.delta_h, peak.peak_slot) == (unit, 31.5, 1.25, 2)
    assert (label.carbon_index, label.slot, label.obs_index, label.delta_c, label.delta_h,
            label.pred_delta_c, label.pred_delta_h) == (3, 2, 5, 30.0, 1.2, 31.5, 1.25)
    for record, field_name, copy, other in [
        (peak, "delta_h", PredictedPeak(unit, 31.5, 1.25, 2), PredictedPeak(unit, 31.5, 1.25, 1)),
        (label, "obs_index", PseudoLabel(3, 2, 5, 30.0, 1.2, 31.5, 1.25),
         PseudoLabel(3, 2, 4, 30.0, 1.2, 31.5, 1.25)),
    ]:
        assert record == copy and hash(record) == hash(copy) and record != other
        assert len({record, copy, other}) == 2
        with pytest.raises(AttributeError):
            setattr(record, field_name, 0)
