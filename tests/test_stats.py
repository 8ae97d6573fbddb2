import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.quantum import OUTCOME_ORDER, TwoQubitState, make_named_state
from bellsim.stats import (
    ChshResult,
    CoincidenceCounts,
    CorrelationEstimate,
    PAIR_ORDER,
    SIGN_PATTERNS,
    TSIRELSON_BOUND,
    chsh_s,
    classify_bound,
    correlation,
    counts_from_outcomes,
    exact_chsh_s,
    validate_sign_pattern,
)

from oracles import kron_chsh_s, random_state_amplitudes

SQRT_HALF = math.sqrt(0.5)
OPTIMAL_ANGLES = (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)


class TestCounts:
    def test_accumulate_pp(self):
        counts = counts_from_outcomes(np.array([[1, 1]]))
        assert (counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm) == (1, 0, 0, 0)

    def test_accumulate_pm(self):
        counts = counts_from_outcomes(np.array([[1, -1]]))
        assert counts.n_pm == 1 and counts.total == 1

    def test_counts_from_outcomes_matches_fold(self):
        rng = np.random.default_rng(3)
        outcomes = rng.choice([1, -1], size=(500, 2))
        rows = [(int(left), int(right)) for left, right in outcomes]
        folded = CoincidenceCounts(*(rows.count(outcome) for outcome in OUTCOME_ORDER))
        assert counts_from_outcomes(outcomes) == folded

    @pytest.mark.parametrize(
        "rows,bad", [([[0, 1]], 0), ([[1, 0]], 0), ([[0, 0]], 0), ([[5, 5]], 5), ([[1, -1], [1, 2]], 2)]
    )
    def test_outcome_other_than_plus_minus_one_rejected(self, rows, bad):
        with pytest.raises(ValueError, match=rf"^outcomes must be \+1 or -1, got {bad}$"):
            counts_from_outcomes(np.array(rows))

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            CoincidenceCounts(n_pp=-1)


class TestCorrelation:
    def test_perfect_correlation(self):
        counts = CoincidenceCounts(n_pp=100, n_mm=100)
        assert correlation(counts).value == 1.0
        assert correlation(counts).std_error == 0.0

    def test_symmetric_counts(self):
        counts = CoincidenceCounts(25, 25, 25, 25)
        assert correlation(counts).value == 0.0

    def test_half_correlation(self):
        counts = CoincidenceCounts(n_pp=75, n_pm=25, n_mp=25, n_mm=75)
        estimate = correlation(counts)
        assert abs(estimate.value - 0.5) < 1e-15
        assert estimate.std_error == pytest.approx(math.sqrt(0.75 / 200.0), abs=1e-15)
        assert estimate.counts is counts

    def test_zero_total_is_error(self):
        with pytest.raises(ValueError, match="zero"):
            correlation(CoincidenceCounts())

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            CorrelationEstimate(value=1.5, std_error=0.0, counts=CoincidenceCounts(n_pp=10))
        with pytest.raises(ValueError):
            CorrelationEstimate(value=0.0, std_error=1.5, counts=CoincidenceCounts(5, 0, 0, 5))

    def test_nan_value_rejected(self):
        # abs(nan) > 1.0 is false, so an out-of-range test would let NaN through.
        with pytest.raises(ValueError, match="outside"):
            CorrelationEstimate(value=math.nan, std_error=0.0, counts=CoincidenceCounts(n_pp=1))


class TestSignPatterns:
    def test_valid_patterns(self):
        assert validate_sign_pattern((1, -1, 1, 1)) == (1, -1, 1, 1)
        assert len(SIGN_PATTERNS) == 4

    @pytest.mark.parametrize(
        "pattern", [(1, 1, 1, 1), (-1, -1, 1, 1), (1, -1, 1), (2, -1, 1, 1)]
    )
    def test_invalid_patterns(self, pattern):
        with pytest.raises(ValueError):
            validate_sign_pattern(pattern)


def _estimates(values):
    return {
        pair: CorrelationEstimate(value=v, std_error=0.0, counts=CoincidenceCounts(n_pp=1))
        for pair, v in zip(PAIR_ORDER, values)
    }


class TestChshS:
    def test_local_bound_saturated(self):
        result = chsh_s(_estimates([1.0, 1.0, 1.0, 1.0]), (1, -1, 1, 1))
        assert result.s_value == 2.0
        assert result.bound_class == "local"

    def test_singlet_optimal_values(self):
        values = [-SQRT_HALF, SQRT_HALF, -SQRT_HALF, -SQRT_HALF]
        result = chsh_s(_estimates(values), (1, -1, 1, 1))
        assert result.s_value == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)
        assert result.bound_class == "quantum"

    def test_algebraic_maximum(self):
        result = chsh_s(_estimates([1.0, -1.0, 1.0, 1.0]), (1, -1, 1, 1))
        assert result.s_value == 4.0
        assert result.bound_class == "algebraic"

    def test_missing_pair_rejected(self):
        estimates = _estimates([1.0, 1.0, 1.0, 1.0])
        del estimates[("a", "b")]
        with pytest.raises(ValueError, match="missing"):
            chsh_s(estimates)

    def test_two_minus_pattern_rejected(self):
        with pytest.raises(ValueError):
            chsh_s(_estimates([1.0, 1.0, 1.0, 1.0]), (1, -1, -1, 1))

    def test_guard_band_classification(self):
        assert classify_bound(2.01, 0.01) == "local"
        assert classify_bound(2.5, 0.0) == "quantum"
        assert classify_bound(2.83, 0.01) == "quantum"
        assert classify_bound(3.9, 0.0) == "algebraic"
        # The band is 3 sigma wide: 2.5 sigma past a bound stays below it, 3.5 sigma does not.
        assert classify_bound(2.025, 0.01) == "local"
        assert classify_bound(2.035, 0.01) == "quantum"
        assert classify_bound(TSIRELSON_BOUND + 0.025, 0.01) == "quantum"
        assert classify_bound(TSIRELSON_BOUND + 0.035, 0.01) == "algebraic"

    def test_quadrature_error(self):
        counts = CoincidenceCounts(25, 25, 25, 25)
        estimates = {
            pair: CorrelationEstimate(value=0.0, std_error=0.01, counts=counts)
            for pair in PAIR_ORDER
        }
        assert chsh_s(estimates).s_std_error == pytest.approx(0.02, abs=1e-15)

    def test_result_invariant(self):
        with pytest.raises(ValueError):
            ChshResult(
                correlations=_estimates([1.0] * 4),
                s_value=4.5,
                s_std_error=0.0,
                sign_pattern=(1, -1, 1, 1),
                bound_class="algebraic",
            )

    def test_nan_s_value_rejected(self):
        with pytest.raises(ValueError, match="estimator is broken"):
            ChshResult(_estimates([1.0] * 4), math.nan, 0.0, (1, -1, 1, 1), "local")


class TestExactChshS:
    def test_singlet_optimal_angles(self):
        state = make_named_state("psi_minus")
        value = exact_chsh_s(state, OPTIMAL_ANGLES, (1, -1, 1, 1))
        assert value == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)
        assert value == pytest.approx(
            kron_chsh_s(state.amplitudes, OPTIMAL_ANGLES, (1, -1, 1, 1)), abs=1e-12
        )

    def test_equal_angles_collapse(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            state = TwoQubitState(random_state_amplitudes(rng))
            theta = float(rng.uniform(0.0, math.pi))
            value = exact_chsh_s(state, (theta,) * 4)
            assert abs(value) <= 2.0 + 1e-12

    def test_tsirelson_bound_100_random(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            state = TwoQubitState(random_state_amplitudes(rng))
            angles = rng.uniform(0.0, 2.0 * math.pi, 4)
            assert abs(exact_chsh_s(state, angles)) <= TSIRELSON_BOUND + 1e-9

    def test_wrong_angle_count(self):
        with pytest.raises(ValueError):
            exact_chsh_s(make_named_state("psi_minus"), (0.0, 1.0, 2.0))


def _max_abs_s(values):
    return max(
        abs(sum(s * v for s, v in zip(pattern, values))) for pattern in SIGN_PATTERNS
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4))
def test_sign_pattern_equivalence_under_relabeling(values):
    e_ab, e_abp, e_apb, e_apbp = values
    base = _max_abs_s(values)
    swap_left = _max_abs_s([e_apb, e_apbp, e_ab, e_abp])  # a <-> a'
    swap_right = _max_abs_s([e_abp, e_ab, e_apbp, e_apb])  # b <-> b'
    swap_sides = _max_abs_s([e_ab, e_apb, e_abp, e_apbp])  # transpose
    assert swap_left == pytest.approx(base, abs=1e-12)
    assert swap_right == pytest.approx(base, abs=1e-12)
    assert swap_sides == pytest.approx(base, abs=1e-12)


def test_estimator_consistency_against_known_distribution():
    # counts sampled from a known joint distribution: the estimator lands
    # within 5 standard errors of the signed-sum expectation in >= 99/100 runs
    from bellsim.quantum import joint_probabilities
    from bellsim.streams import batch_uniforms

    dist = joint_probabilities(make_named_state("psi_minus"), 0.3, 1.1)
    expected = sum(l * r * p for (l, r), p in zip(OUTCOME_ORDER, dist.probabilities))
    cdf = np.cumsum(dist.as_array())
    n = 10**6
    hits = 0
    for seed in range(100):
        u = batch_uniforms(seed, np.arange(n, dtype=np.uint64), 1)[:, 0]
        idx = np.minimum(np.searchsorted(cdf, u, side="right"), 3)
        tally = np.bincount(idx, minlength=4)
        counts = CoincidenceCounts(*(int(t) for t in tally))
        estimate = correlation(counts)
        if abs(estimate.value - expected) < 5.0 * max(estimate.std_error, 1e-12):
            hits += 1
    assert hits >= 99
