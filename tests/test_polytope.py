import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.models import lhv_deterministic_model
from bellsim.polytope import (
    VERTICES,
    CorrelationVector,
    FeasibilityVerdict,
    ViolatedFacet,
    facet_margin,
    local_membership,
)
from bellsim.stats import SIGN_PATTERNS, STRATEGIES

from oracles import (
    brute_force_max_s,
    deterministic_vertices,
    lp_local_membership,
    lp_local_membership_batch,
    numpy_witness_weights,
)

SQRT_HALF = math.sqrt(0.5)
SINGLET_OPTIMAL_VECTOR = CorrelationVector(-SQRT_HALF, SQRT_HALF, -SQRT_HALF, -SQRT_HALF)


class TestEnumeration:
    def test_sixteen_strategies(self):
        assert len(STRATEGIES) == 16
        assert len(set(STRATEGIES)) == 16

    def test_all_plus_vertex(self):
        assert STRATEGIES[0] == (1, 1, 1, 1)
        assert VERTICES[0] == (1.0, 1.0, 1.0, 1.0)

    def test_mixed_strategy_vertex(self):
        # responses (a -> +1, a' -> +1, b -> +1, b' -> -1) is index 1
        assert STRATEGIES[1] == (1, 1, 1, -1)
        assert VERTICES[1] == (1.0, -1.0, 1.0, -1.0)

    def test_vertex_matrix_matches_independent_enumeration(self):
        ours = {tuple(row) for row in np.array(VERTICES)}
        oracle = {tuple(row) for row in deterministic_vertices()}
        assert ours == oracle
        # same index order too, so witness weights can be checked against the oracle
        assert np.array_equal(np.array(VERTICES), deterministic_vertices())


class TestMaxClassicalS:
    @pytest.mark.parametrize("pattern", SIGN_PATTERNS)
    def test_exactly_two_for_every_pattern(self, pattern):
        assert float(np.max(np.array(VERTICES) @ np.array(pattern, dtype=float))) == 2.0
        assert brute_force_max_s(pattern) == 2.0


class TestCorrelationVector:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CorrelationVector(1.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CorrelationVector(math.nan, 0.0, 0.0, 0.0)

    def test_verdict_witness_exclusivity(self):
        with pytest.raises(ValueError):
            FeasibilityVerdict(feasible=True)
        with pytest.raises(ValueError):
            FeasibilityVerdict(feasible=False, weights=np.ones(16) / 16.0)
        with pytest.raises(ValueError):
            FeasibilityVerdict(
                feasible=True,
                weights=np.ones(16) / 16.0,
                violated_facet=ViolatedFacet((1, -1, 1, 1), 0.1),
            )


class TestMembership:
    def test_vertex_membership(self):
        verdict = local_membership(CorrelationVector(1.0, 1.0, 1.0, 1.0))
        assert verdict.feasible
        assert verdict.weights[0] == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.asarray(verdict.weights) >= -1e-12)

    def test_origin_membership(self):
        verdict = local_membership(CorrelationVector(0.0, 0.0, 0.0, 0.0))
        assert verdict.feasible
        assert np.asarray(verdict.weights).sum() == pytest.approx(1.0, abs=1e-12)

    def test_singlet_optimal_infeasible(self):
        verdict = local_membership(SINGLET_OPTIMAL_VECTOR)
        assert not verdict.feasible
        assert verdict.violated_facet.sign_pattern == (1, -1, 1, 1)
        assert verdict.violated_facet.margin == pytest.approx(
            2.0 * math.sqrt(2.0) - 2.0, abs=1e-12
        )

    def test_witness_weights_reproduce_vector(self):
        rng = np.random.default_rng(42)
        vertices = deterministic_vertices()
        for _ in range(50):
            mixture = rng.dirichlet(np.ones(16))
            target = mixture @ vertices
            verdict = local_membership(CorrelationVector(*target))
            assert verdict.feasible
            recovered = np.asarray(verdict.weights) @ vertices
            assert np.max(np.abs(recovered - target)) < 1e-8
            assert np.asarray(verdict.weights).sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.asarray(verdict.weights) >= 0.0)

    def test_statistical_tolerance_allows_boundary_noise(self):
        # a point just outside a facet is accepted under a statistical slack
        scale = (2.0 + 2e-4) / 4.0
        vector = CorrelationVector(-scale, scale, -scale, -scale)
        strict = local_membership(vector)
        assert not strict.feasible
        assert strict.violated_facet.margin == pytest.approx(2e-4, abs=1e-12)
        loose = local_membership(vector, facet_tolerance=1e-3)
        assert loose.feasible
        assert np.all(np.asarray(loose.weights) >= 0.0)
        assert np.asarray(loose.weights).sum() == pytest.approx(1.0, abs=1e-12)
        recovered = np.asarray(loose.weights) @ deterministic_vertices()
        assert np.max(np.abs(recovered - np.array(vector.as_tuple()))) <= 1e-3

    def test_each_vertex_weights_its_lower_index_strategy(self):
        vertices = deterministic_vertices()
        for index, row in enumerate(vertices):
            # the strategy with every response flipped has the same vertex
            partner = next(
                j for j, other in enumerate(vertices) if j != index and np.array_equal(other, row)
            )
            verdict = local_membership(CorrelationVector(*row))
            expected = np.zeros(16)
            expected[min(index, partner)] = 1.0
            assert np.array_equal(verdict.weights, expected), index

    @pytest.mark.parametrize("facet", range(16))
    def test_points_on_each_facet_reproduced(self, facet):
        normals = [np.array(p, dtype=float) for p in itertools.product((1, -1), repeat=4)]
        chsh = [(n, 2.0) for n in normals if np.prod(n) < 0]
        components = [(sign * np.eye(4)[i], 1.0) for sign in (1.0, -1.0) for i in range(4)]
        normal, bound = (chsh + components)[facet]
        vertices = deterministic_vertices()
        corners = np.unique(vertices[vertices @ normal == bound], axis=0)
        assert len(corners) == 4
        rng = np.random.default_rng(1000 + facet)
        for _ in range(50):
            target = rng.dirichlet(np.ones(4)) @ corners
            verdict = local_membership(CorrelationVector(*target))
            assert verdict.feasible
            assert np.all(np.asarray(verdict.weights) >= 0.0)
            assert np.asarray(verdict.weights).sum() == pytest.approx(1.0, abs=1e-15)
            recovered = np.asarray(verdict.weights) @ vertices
            assert np.max(np.abs(recovered - target)) <= 1e-15

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        counts=st.lists(st.integers(0, 5), min_size=16, max_size=16).filter(any),
        scale=st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.75, 0.1]),
    )
    def test_witness_matches_the_numpy_form_bit_for_bit(self, counts, scale):
        # Mixtures of few vertices lie on faces and facets, where ties pick the facet.
        mixture = np.array(counts, dtype=float) / sum(counts)
        target = np.clip(mixture @ deterministic_vertices() * scale, -1.0, 1.0)
        verdict = local_membership(CorrelationVector(*target.tolist()))
        assert verdict.feasible
        assert np.array(verdict.weights).tobytes() == numpy_witness_weights(target).tobytes()

    def test_facet_margin_on_pr_box(self):
        margin, pattern = facet_margin(CorrelationVector(1.0, -1.0, 1.0, 1.0))
        assert margin == pytest.approx(2.0, abs=1e-12)
        assert pattern == (1, -1, 1, 1)


class TestOracleAgreement:
    def test_facets_agree_with_lp_on_random_vectors(self):
        rng = np.random.default_rng(2025)
        for _ in range(500):
            vector = CorrelationVector(*rng.uniform(-1.0, 1.0, 4))
            assert local_membership(vector).feasible == lp_local_membership(
                vector.as_tuple()
            )

    def test_batched_lp_agrees_with_one_lp_per_vector(self):
        rng = np.random.default_rng(2718)
        vectors = [tuple(rng.uniform(-1.0, 1.0, 4)) for _ in range(300)]
        vectors += [tuple(row) for row in deterministic_vertices()]
        vectors += [(0.5, -0.5, 0.5, 0.5), (0.5 + 1e-6, -0.5, 0.5, 0.5), (1.0, -1.0, 1.0, 1.0)]
        expected = [lp_local_membership(vector) for vector in vectors]
        assert lp_local_membership_batch(vectors) == expected
        assert expected[-3:] == [True, False, False]

    def test_quantum_vectors_classified_by_best_pattern(self):
        from bellsim.experiment import model_exact_correlations
        from bellsim.models import ModelDescriptor

        rng = np.random.default_rng(31415)
        for _ in range(200):
            angles = tuple(float(t) for t in rng.uniform(0.0, 2.0 * math.pi, 4))
            model = ModelDescriptor(kind="quantum", state="psi_minus", angles=angles)
            vector = model_exact_correlations(model)
            values = vector.as_tuple()
            per_pattern = {
                pattern: abs(sum(s * e for s, e in zip(pattern, values)))
                for pattern in SIGN_PATTERNS
            }
            best_pattern = max(per_pattern, key=per_pattern.get)
            verdict = local_membership(vector)
            if per_pattern[best_pattern] <= 2.0 + 1e-9:
                assert verdict.feasible
            else:
                assert not verdict.feasible
                assert verdict.violated_facet.sign_pattern == best_pattern

    def test_lhv_mixture_vectors_always_feasible(self):
        rng = np.random.default_rng(161803)
        vertices = np.array(VERTICES)
        for _ in range(100):
            mixture = rng.dirichlet(np.ones(16) * 0.3)
            vector = CorrelationVector(*(mixture @ vertices))
            verdict = local_membership(vector)
            assert verdict.feasible
            assert lp_local_membership(vector.as_tuple())
            recovered = np.asarray(verdict.weights) @ deterministic_vertices()
            assert np.max(np.abs(recovered - np.array(vector.as_tuple()))) < 1e-12


def test_deterministic_model_vertices_match_strategy_correlations():
    for index in range(16):
        model = lhv_deterministic_model(index)
        weights = np.asarray(model.weights)
        vector = weights @ np.array(VERTICES)
        assert tuple(vector) == VERTICES[index]
