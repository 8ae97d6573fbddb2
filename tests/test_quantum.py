import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.quantum import (
    JointOutcomeDistribution,
    OUTCOME_ORDER,
    TwoQubitState,
    expectation,
    joint_probabilities,
    make_named_state,
)
from bellsim.models import ModelDescriptor, run_trial, sample_outcomes
from bellsim.streams import TrialStream

from oracles import (
    direction_matrix,
    eigh_joint_probabilities,
    kron_expectation,
    random_state_amplitudes,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestStates:
    def test_psi_plus_amplitudes(self):
        state = make_named_state("psi_plus")
        assert np.allclose(state.amplitudes, [0.0, SQRT_HALF, SQRT_HALF, 0.0])

    def test_psi_minus_amplitudes(self):
        state = make_named_state("psi_minus")
        assert np.allclose(state.amplitudes, [0.0, SQRT_HALF, -SQRT_HALF, 0.0])

    @pytest.mark.parametrize("kind", ["psi_plus", "psi_minus", "phi_plus", "phi_minus"])
    def test_bell_states_normalized(self, kind):
        assert make_named_state(kind).norm_error < 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_named_state("psi")
        with pytest.raises(ValueError):
            make_named_state("sideways")

    def test_named_product_states(self):
        assert np.allclose(make_named_state("up_up").amplitudes, [1, 0, 0, 0])
        assert np.allclose(make_named_state("down_down").amplitudes, [0, 0, 0, 1])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.array([np.nan, 0, 0, 0], dtype=complex))

    def test_setting_normalizes_angle(self):
        state = make_named_state("psi_minus")
        assert (
            joint_probabilities(state, -math.pi / 2, 0.3).probabilities
            == joint_probabilities(state, 1.5 * math.pi, 0.3).probabilities
        )
        with pytest.raises(ValueError):
            expectation(state, math.inf, 0)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        state = make_named_state("psi_minus")
        for call in (expectation, joint_probabilities):
            with pytest.raises(ValueError, match="finite"):
                call(state, angle, 0.3)
            with pytest.raises(ValueError, match="finite"):
                call(state, 0.3, angle)


def half_angle_vectors(theta):
    """The eigenvectors joint_probabilities documents, keyed by eigenvalue."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return {1: np.array([c, s]), -1: np.array([-s, c])}


class TestHalfAngleEigenvectors:
    """(cos t/2, sin t/2) and (-sin t/2, cos t/2) against cos(t)*sz + sin(t)*sx."""

    @staticmethod
    def assert_eigenpairs(theta):
        matrix = direction_matrix(theta)
        vectors = half_angle_vectors(theta)
        for eigenvalue, vector in vectors.items():
            assert np.allclose(matrix @ vector, eigenvalue * vector, rtol=0.0, atol=1e-15)
            assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-15)
        assert abs(vectors[1] @ vectors[-1]) < 1e-15

    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2, math.pi, 1.5 * math.pi])
    def test_named_angles(self, theta):
        self.assert_eigenpairs(theta)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_angles(self, seed):
        for theta in np.random.default_rng(seed).uniform(-4.0 * math.pi, 4.0 * math.pi, 20):
            self.assert_eigenpairs(float(theta))

    def test_basis_states_read_the_vectors(self):
        # For the basis state |ij>, P(ol, or) = u_i(ol)^2 * v_j(or)^2.
        rng = np.random.default_rng(3)
        for index, kind in enumerate(("up_up", "up_down", "down_up", "down_down")):
            i, j = divmod(index, 2)
            for tl, tr in [(0.0, math.pi / 2), *rng.uniform(-10.0, 10.0, (10, 2))]:
                dist = joint_probabilities(make_named_state(kind), float(tl), float(tr))
                vl, vr = half_angle_vectors(tl), half_angle_vectors(tr)
                for (ol, orr), p in zip(OUTCOME_ORDER, dist.probabilities):
                    assert p == pytest.approx(vl[ol][i] ** 2 * vr[orr][j] ** 2, abs=1e-15)


# Both routes round. Over 300,000 random states and angles they were at
# most 5 ulp(1) apart; there the closed form was 1 ulp(1) from a 200-bit
# evaluation and eigh 4. Entries are compared to 8 ulp(1).
EIGH_TOLERANCE = 8 * math.ulp(1.0)


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
        lambda xs: sum(x * x for x in xs) > 1e-3
    ),
    theta_left=st.floats(-20.0, 20.0),
    theta_right=st.floats(-20.0, 20.0),
)
def test_closed_form_matches_eigh_oracle(parts, theta_left, theta_right):
    norm = math.sqrt(sum(x * x for x in parts))
    state = TwoQubitState([complex(re, im) / norm for re, im in zip(parts[::2], parts[1::2])])
    closed = joint_probabilities(state, theta_left, theta_right).probabilities
    oracle = eigh_joint_probabilities(state.amplitudes, theta_left, theta_right)
    for outcome, p in zip(OUTCOME_ORDER, closed):
        assert abs(p - oracle[outcome]) <= EIGH_TOLERANCE, outcome


class TestExpectation:
    def test_singlet_formula_20_random_pairs(self):
        state = make_named_state("psi_minus")
        rng = np.random.default_rng(123)
        for _ in range(20):
            ta, tb = rng.uniform(0.0, 2.0 * math.pi, 2)
            value = expectation(state, float(ta), float(tb))
            assert value == pytest.approx(-math.cos(ta - tb), abs=1e-12)
            assert value == pytest.approx(
                kron_expectation(state.amplitudes, ta, tb), abs=1e-12
            )

    def test_psi_plus_equal_z_axes(self):
        assert expectation(make_named_state("psi_plus"), 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_psi_plus_formula_random_pairs(self):
        state = make_named_state("psi_plus")
        rng = np.random.default_rng(321)
        for _ in range(20):
            ta, tb = rng.uniform(0.0, 2.0 * math.pi, 2)
            value = expectation(state, float(ta), float(tb))
            assert value == pytest.approx(-math.cos(ta + tb), abs=1e-12)
            assert value == pytest.approx(
                kron_expectation(state.amplitudes, ta, tb), abs=1e-12
            )

    def test_random_states_match_dense_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            state = TwoQubitState(random_state_amplitudes(rng))
            ta, tb = rng.uniform(0.0, 2.0 * math.pi, 2)
            assert expectation(state, float(ta), float(tb)) == pytest.approx(
                kron_expectation(state.amplitudes, ta, tb), abs=1e-12
            )

    def test_expectation_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            state = TwoQubitState(random_state_amplitudes(rng))
            ta, tb = rng.uniform(0.0, 2.0 * math.pi, 2)
            assert abs(expectation(state, float(ta), float(tb))) <= 1.0 + 1e-12

    def test_rejects_unnormalized_state(self):
        bad = TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="not normalized"):
            expectation(bad, 0.0, 0.0)
        with pytest.raises(ValueError, match="not normalized"):
            joint_probabilities(bad, 0.0, 0.0)


class TestJointProbabilities:
    def test_singlet_same_axis_anticorrelated(self):
        dist = joint_probabilities(make_named_state("psi_minus"), 0.0, 0.0)
        assert dist.probabilities == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-12)

    def test_psi_plus_same_axis_anticorrelated(self):
        dist = joint_probabilities(make_named_state("psi_plus"), 0.0, 0.0)
        assert dist.probabilities == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            state = TwoQubitState(random_state_amplitudes(rng))
            ta, tb = rng.uniform(0.0, 2.0 * math.pi, 2)
            dist = joint_probabilities(state, float(ta), float(tb))
            assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_signed_sum_equals_expectation(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            state = TwoQubitState(random_state_amplitudes(rng))
            ta, tb = rng.uniform(0.0, 2.0 * math.pi, 2)
            dist = joint_probabilities(state, float(ta), float(tb))
            signed_sum = sum(l * r * p for (l, r), p in zip(OUTCOME_ORDER, dist.probabilities))
            assert signed_sum == pytest.approx(
                expectation(state, float(ta), float(tb)), abs=1e-10
            )

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="sum to"):
            JointOutcomeDistribution((0.3,) * 4)
        with pytest.raises(ValueError, match=">= -1e-15"):
            JointOutcomeDistribution((-1e-3, 0.5, 0.5, 1e-3))
        with pytest.raises(ValueError, match="expected 4 probabilities, got 2"):
            JointOutcomeDistribution((0.5, 0.5))
        # tiny negatives clamp to zero
        dist = JointOutcomeDistribution((-5e-16, 0.5, 0.5, 5e-16))
        assert dist.probabilities == (0.0, 0.5, 0.5, 5e-16)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    def test_non_finite_probability_rejected(self, bad):
        # Written as out-of-range tests, the floor and the sum test would both let
        # NaN through, and a distribution of four NaNs with them.
        with pytest.raises(ValueError, match="finite"):
            JointOutcomeDistribution((bad, 0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="finite"):
            JointOutcomeDistribution((bad,) * 4)


class TestSampling:
    """run_trial on quantum models whose Born distribution is known exactly."""

    POINT_MASS = ModelDescriptor(kind="quantum", state="up_up", angles=(0.0, 0.0, 0.0, 0.0))
    UNIFORM = ModelDescriptor(kind="quantum", state="up_up", angles=(math.pi / 2.0,) * 4)

    def test_equivalent_distributions(self):
        assert np.allclose(self.POINT_MASS.distribution(("a", "b")).as_array(), [1, 0, 0, 0])
        assert np.allclose(self.UNIFORM.distribution(("a", "b")).as_array(), [0.25] * 4)

    def test_point_mass(self):
        stream = TrialStream(0, 0)
        assert all(
            run_trial(self.POINT_MASS, ("a", "b"), stream).outcomes == (1, 1) for _ in range(50)
        )

    def test_uniform_million_draws(self):
        # The 10**6 successive draws of one stream, one per trial at (a, b),
        # as run_trial would take them, through the kernel in one batch.
        n = 10**6
        assert self.UNIFORM._tables.draws == 1
        u = TrialStream(2024, 0).uniforms(n)[:, None]
        outcomes, _ = sample_outcomes(self.UNIFORM, 0, u)
        stream = TrialStream(2024, 0)
        prefix = [run_trial(self.UNIFORM, ("a", "b"), stream).outcomes for _ in range(20_000)]
        assert [tuple(row) for row in outcomes[:20_000].tolist()] == prefix
        for outcome in OUTCOME_ORDER:
            tally = np.count_nonzero((outcomes == outcome).all(axis=1))
            assert abs(tally / n - 0.25) < 0.002

    def test_identical_stream_identical_draws(self):
        stream_a = TrialStream(7, 3)
        stream_b = TrialStream(7, 3)
        draws_a = [run_trial(self.UNIFORM, ("a", "b"), stream_a).outcomes for _ in range(30)]
        draws_b = [run_trial(self.UNIFORM, ("a", "b"), stream_b).outcomes for _ in range(30)]
        assert draws_a == draws_b


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_random_states_stay_normalized_after_normalize(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    if np.linalg.norm(raw) == 0.0:
        return
    state = TwoQubitState(raw / np.linalg.norm(raw))
    assert state.norm_error < 1e-12
