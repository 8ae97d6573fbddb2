import csv
import io
import math

import numpy as np
import pytest

from bellsim.cli import _csv_lines
from bellsim.optimize import MAX_RESOLUTION, optimize_angles, s_landscape
from bellsim.polytope import CorrelationVector, local_membership
from bellsim.quantum import TwoQubitState, correlation_matrix, make_named_state
from bellsim.stats import SIGN_PATTERNS, TSIRELSON_BOUND, exact_chsh_s

from oracles import kron_chsh_s, kron_expectation, random_state_amplitudes

SQRT_HALF = math.sqrt(0.5)


class TestOptimizeAngles:
    def test_singlet_reaches_tsirelson(self):
        result = optimize_angles(make_named_state("psi_minus"))
        assert abs(result.s_value) == pytest.approx(TSIRELSON_BOUND, abs=1e-6)
        assert abs(abs(result.s_value) - TSIRELSON_BOUND) <= 1e-12
        assert all(0.0 <= t < math.pi for t in result.angles)

    def test_psi_plus_reaches_tsirelson(self):
        result = optimize_angles(make_named_state("psi_plus"))
        assert abs(result.s_value) == pytest.approx(TSIRELSON_BOUND, abs=1e-6)

    def test_singlet_stationarity_relation(self):
        # at the optimum every |E| equals sqrt(1/2); check via E = -cos(ta - tb)
        result = optimize_angles(make_named_state("psi_minus"))
        a, ap, b, bp = result.angles
        for ta, tb in ((a, b), (a, bp), (ap, b), (ap, bp)):
            assert abs(math.cos(ta - tb)) == pytest.approx(SQRT_HALF, abs=1e-4)

    def test_product_state_stays_local(self):
        from bellsim.quantum import expectation

        state = make_named_state("up_up")
        result = optimize_angles(state)
        assert abs(result.s_value) <= 2.0 + 1e-9
        # the optimized correlation vector sits inside the local polytope
        a, ap, b, bp = result.angles
        vector = CorrelationVector(
            *(expectation(state, ta, tb) for ta, tb in ((a, b), (a, bp), (ap, b), (ap, bp)))
        )
        assert local_membership(vector, facet_tolerance=1e-9).feasible

    def test_rejects_unnormalized(self):
        bad = TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            optimize_angles(bad)

    def test_rejects_invalid_pattern(self):
        with pytest.raises(ValueError):
            optimize_angles(make_named_state("psi_minus"), (1, -1, -1, 1))

    def test_never_exceeds_tsirelson_random_states(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            state = TwoQubitState(random_state_amplitudes(rng))
            result = optimize_angles(state)
            assert abs(result.s_value) <= TSIRELSON_BOUND + 1e-6

    def test_dominates_random_angles(self):
        state = make_named_state("psi_minus")
        best = abs(optimize_angles(state).s_value)
        rng = np.random.default_rng(55)
        for _ in range(20):
            start = rng.uniform(0.0, math.pi, 4)
            assert abs(exact_chsh_s(state, start)) <= best + 1e-12


def _oracle_frobenius_bound(amplitudes) -> float:
    """2 ||M||_F with M[i, j] = E(t_i, t_j) over t in (0, pi/2), by dense operators."""
    basis = (0.0, math.pi / 2.0)
    matrix = np.array(
        [[kron_expectation(amplitudes, tl, tr) for tr in basis] for tl in basis]
    )
    return 2.0 * float(np.linalg.norm(matrix))


def _closed_form_cases() -> list[np.ndarray]:
    """Random states, then rank-one and zero correlation matrices."""
    rng = np.random.default_rng(7)
    # state 127 with pattern (1, 1, 1, -1) is where a grid-seeded coordinate
    # descent stopped 1.03e-3 below the bound
    cases = [random_state_amplitudes(rng) for _ in range(200)]
    cases.append(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))  # up_up: |S| = 2
    cases.append(np.array([1.0, 1.0j, 0.0, 0.0]) / math.sqrt(2.0))  # right qubit along y: M = 0
    for left, right in np.random.default_rng(99).uniform(0.0, 2.0 * math.pi, (50, 2)):
        cases.append(
            np.kron(
                [math.cos(left / 2.0), math.sin(left / 2.0)],
                [math.cos(right / 2.0), math.sin(right / 2.0)],
            ).astype(complex)
        )
    return cases


@pytest.mark.parametrize("pattern", SIGN_PATTERNS)
def test_closed_form_reaches_frobenius_bound(pattern):
    """|S| is 2 ||M||_F, the largest value over [0, pi)^4, at angles in [0, pi)."""
    for amplitudes in _closed_form_cases():
        with np.errstate(all="raise"):
            result = optimize_angles(TwoQubitState(amplitudes), pattern)
        assert abs(abs(result.s_value) - _oracle_frobenius_bound(amplitudes)) <= 1e-12
        assert all(0.0 <= t < math.pi for t in result.angles), result.angles
        assert kron_chsh_s(amplitudes, result.angles, pattern) == pytest.approx(
            result.s_value, abs=1e-12
        )
        assert result.sign_pattern == pattern


class TestCorrelationMatrix:
    def test_bilinear_form_matches_kron_expectation(self):
        rng = np.random.default_rng(808)
        for _ in range(25):
            amplitudes = random_state_amplitudes(rng)
            matrix = correlation_matrix(TwoQubitState(amplitudes))
            for tl, tr in rng.uniform(0.0, 2.0 * math.pi, (4, 2)):
                value = np.array([math.cos(tl), math.sin(tl)]) @ matrix @ np.array(
                    [math.cos(tr), math.sin(tr)]
                )
                assert value == pytest.approx(kron_expectation(amplitudes, tl, tr), abs=1e-12)


def _singlet_slice_formula(tb: float, tbp: float) -> float:
    # fixed a = 0, a' = pi/2 for the singlet: S = -cos(tb) + cos(tbp) - sin(tb) - sin(tbp)
    return -math.cos(tb) + math.cos(tbp) - math.sin(tb) - math.sin(tbp)


class TestLandscape:
    def test_resolution_three_grid(self):
        grid = s_landscape(
            make_named_state("psi_minus"), {"a": 0.0, "a'": math.pi / 2.0}, 3
        )
        assert len(grid.values) == 3 and all(len(row) == 3 for row in grid.values)
        assert np.all(np.abs(grid.values) <= TSIRELSON_BOUND + 1e-9)

    def test_slice_through_optimum_dominated(self):
        state = make_named_state("psi_minus")
        best = optimize_angles(state)
        a, ap, b, bp = best.angles
        grid = s_landscape(state, {"a": a, "a'": ap}, 48)
        assert np.max(np.abs(grid.values)) <= abs(best.s_value) + 1e-9

    def test_singlet_slice_matches_formula_and_symmetry(self):
        grid = s_landscape(
            make_named_state("psi_minus"), {"a": 0.0, "a'": math.pi / 2.0}, 24
        )
        assert grid.row_label == "b" and grid.col_label == "b'"
        for i, tb in enumerate(grid.angles):
            for j, tbp in enumerate(grid.angles):
                value = grid.values[i][j]
                assert value == pytest.approx(_singlet_slice_formula(tb, tbp), abs=1e-12)
                reflected = _singlet_slice_formula(math.pi - tbp, math.pi - tb)
                assert value == pytest.approx(reflected, abs=1e-12)

    @pytest.mark.parametrize(
        "fixed_labels",
        [("a", "a'"), ("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'"), ("b", "b'")],
    )
    def test_every_slice_matches_dense_operators(self, fixed_labels):
        rng = np.random.default_rng(4242)
        amplitudes = random_state_amplitudes(rng)
        fixed = dict(zip(fixed_labels, rng.uniform(0.0, math.pi, 2)))
        pattern = (1, 1, -1, 1)
        grid = s_landscape(TwoQubitState(amplitudes), fixed, 5, pattern)
        labels = ("a", "a'", "b", "b'")
        assert len(grid.values) == 5 and all(len(row) == 5 for row in grid.values)
        for i, row_angle in enumerate(grid.angles):
            for j, col_angle in enumerate(grid.angles):
                assembled = {**fixed, grid.row_label: row_angle, grid.col_label: col_angle}
                expected = kron_chsh_s(amplitudes, [assembled[k] for k in labels], pattern)
                assert grid.values[i][j] == pytest.approx(expected, abs=1e-12)

    def test_fixed_validation(self):
        state = make_named_state("psi_minus")
        with pytest.raises(ValueError, match="exactly two"):
            s_landscape(state, {"a": 0.0}, 4)
        with pytest.raises(ValueError, match="unknown"):
            s_landscape(state, {"a": 0.0, "c": 1.0}, 4)
        with pytest.raises(ValueError, match="resolution"):
            s_landscape(state, {"a": 0.0, "a'": 1.0}, 1)
        with pytest.raises(ValueError, match="finite"):
            s_landscape(state, {"a": 0.0, "a'": math.nan}, 4)

    def test_resolution_capped_before_any_grid_is_built(self, monkeypatch):
        class Evaluated(Exception):
            pass

        def evaluator(*args):
            raise Evaluated

        monkeypatch.setattr("bellsim.optimize._linear_in", evaluator)
        state, fixed = make_named_state("psi_minus"), {"a": 0.0, "a'": 1.0}
        with pytest.raises(Evaluated):
            s_landscape(state, fixed, MAX_RESOLUTION)
        for resolution in (MAX_RESOLUTION + 1, 10**12):
            with pytest.raises(ValueError, match="resolution"):
                s_landscape(state, fixed, resolution)

    @pytest.mark.parametrize(
        "fixed", [{"a": 0.0, "a'": math.pi / 2.0}, {"a'": 0.3, "b": 2.9}, {"b": 1.0, "b'": 0.1}]
    )
    def test_csv_text_equals_csv_writer(self, fixed):
        grid = s_landscape(make_named_state("phi_plus"), fixed, 7, (1, 1, 1, -1))
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        corner = f"{grid.row_label}\\{grid.col_label}"
        writer.writerow([corner] + [repr(float(t)) for t in grid.angles])
        for angle, row in zip(grid.angles, grid.values):
            writer.writerow([repr(float(angle))] + [repr(float(v)) for v in row])
        assert "".join(_csv_lines(grid.csv_rows())) == buffer.getvalue()

    def test_csv_shape_and_locale_independence(self):
        grid = s_landscape(
            make_named_state("psi_minus"), {"a": 0.0, "a'": math.pi / 2.0}, 4
        )
        text = "".join(_csv_lines(grid.csv_rows()))
        lines = text.strip().split("\n")
        assert len(lines) == 5  # header + 4 rows
        assert lines[0].startswith("b\\b'")
        assert "," in text and ";" not in text
        for token in lines[1].split(",")[1:]:
            float(token)  # parses with '.' decimal separator
