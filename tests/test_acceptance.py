"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from bellsim.counterfactual import classify_definiteness, record_run
from bellsim.experiment import model_exact_correlations, run_chsh_experiment
from bellsim.interferometer import InterferometerSpec, port_probabilities, run_bomb_trials
from bellsim.models import (
    ModelDescriptor,
    catalog,
    pr_box_table,
)
from bellsim.optimize import optimize_angles
from bellsim.polytope import VERTICES, CorrelationVector, local_membership
from bellsim.quantum import TwoQubitState, make_named_state
from bellsim.stats import (
    CoincidenceCounts,
    SIGN_PATTERNS,
    STRATEGIES,
    TSIRELSON_BOUND,
    correlation,
    exact_chsh_s,
)

import fresh
from oracles import lp_local_membership_batch, marginal_comparisons, random_state_amplitudes


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {title}")


def test_criterion_01_classical_bound():
    with criterion(1, "classical bound: max |S| over 16 deterministic strategies is 2"):
        assert len(set(STRATEGIES)) == len(VERTICES) == 16
        # warm-up outside the timed region
        np.array(VERTICES)
        started = time.perf_counter()
        vertices = np.array(VERTICES, dtype=float)
        maxima = [
            float(np.max(np.abs(vertices @ np.array(pattern, dtype=float))))
            for pattern in SIGN_PATTERNS
        ]
        elapsed = time.perf_counter() - started
        assert maxima == [2.0, 2.0, 2.0, 2.0]
        assert elapsed < 1e-3, f"enumeration took {elapsed * 1e3:.3f} ms"


def test_criterion_02_tsirelson_bound():
    with criterion(2, "Tsirelson bound: optimizer reaches 2*sqrt(2); no draw exceeds it"):
        started = time.perf_counter()
        for kind in ("psi_minus", "psi_plus"):
            result = optimize_angles(make_named_state(kind))
            assert abs(abs(result.s_value) - 2.8284271) <= 1e-6, kind
        rng = np.random.default_rng(20240)
        for _ in range(10_000):
            state = TwoQubitState(random_state_amplitudes(rng))
            angles = rng.uniform(0.0, 2.0 * math.pi, 4)
            assert abs(exact_chsh_s(state, angles)) <= TSIRELSON_BOUND + 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_03_monte_carlo_violation():
    with criterion(3, "Monte Carlo violation: |S| near 2*sqrt(2), above 2 by > 3 sigma"):
        started = time.perf_counter()
        result = run_chsh_experiment(catalog()["quantum-optimal"], 10**6, seed=42)
        elapsed = time.perf_counter() - started
        abs_s = abs(result.s_value)
        assert abs(abs_s - TSIRELSON_BOUND) < 0.01
        assert abs_s > 2.0 + 3.0 * result.s_std_error
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_04_lhv_ceiling():
    with criterion(4, "LHV ceiling: shipped mixtures stay below 2 + 3 sigma in >= 99/100 runs"):
        lhv_models = {
            name: model for name, model in catalog().items() if name.startswith("lhv-")
        }
        assert lhv_models, "catalog must ship LHV mixtures"
        for name, model in lhv_models.items():
            within = 0
            for seed in range(100):
                result = run_chsh_experiment(model, 10**6, seed=seed)
                if abs(result.s_value) <= 2.0 + 3.0 * result.s_std_error:
                    within += 1
            assert within >= 99, f"{name}: only {within}/100 runs within the bound"


def test_criterion_05_superdeterministic_maximum():
    with criterion(5, "superdeterministic maximum: PR table reaches S = 4"):
        result = run_chsh_experiment(catalog()["pr-box"], 10**6, seed=0)
        assert abs(result.s_value - 4.0) < 0.01
        assert result.bound_class == "algebraic"


def test_criterion_06_estimator_exactness():
    with criterion(6, "estimator exactness: rational and floating-point agreement"):
        cases = [
            (CoincidenceCounts(n_pp=100, n_mm=100), Fraction(1), 1.0),
            (CoincidenceCounts(25, 25, 25, 25), Fraction(0), 0.0),
            (CoincidenceCounts(n_pp=75, n_pm=25, n_mp=25, n_mm=75), Fraction(1, 2), 0.5),
        ]
        for counts, exact, value in cases:
            rational = Fraction(counts.n_pp + counts.n_mm - counts.n_pm - counts.n_mp, counts.total)
            assert rational == exact
            assert correlation(counts).value == rational
            assert abs(correlation(counts).value - value) <= 1e-15


def test_criterion_07_polytope_oracle_equivalence():
    with criterion(7, "polytope oracle equivalence: facets agree with LP on 10^4 vectors"):
        rng = np.random.default_rng(7777)
        vectors = [CorrelationVector(*rng.uniform(-1.0, 1.0, 4)) for _ in range(10_000)]
        verdicts = lp_local_membership_batch([vector.as_tuple() for vector in vectors])
        for vector, oracle in zip(vectors, verdicts):
            facets = local_membership(vector).feasible
            assert facets == oracle, vector


def _violating_quantum_angles(rng: np.random.Generator) -> tuple[float, ...]:
    while True:
        angles = tuple(float(t) for t in rng.uniform(0.0, 2.0 * math.pi, 4))
        if abs(exact_chsh_s(make_named_state("psi_minus"), angles)) > 2.2:
            return angles


def test_criterion_08_counterfactual_classification():
    with criterion(8, "counterfactual classification: 20 seeded configurations"):
        rng = np.random.default_rng(31337)
        psi_plus_angles = (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi / 4.0)
        phi_plus_angles = (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
        configurations = [
            (catalog()["lhv-uniform"], "definite"),
            (catalog()["lhv-uniform"], "definite"),
            (catalog()["lhv-edge"], "definite"),
            (ModelDescriptor.from_dict({"kind": "lhv_deterministic", "strategy": 0}), "definite"),
            (ModelDescriptor.from_dict({"kind": "lhv_deterministic", "strategy": 7}), "definite"),
            (ModelDescriptor(kind="lhv_stochastic", weights=rng.dirichlet(np.ones(16))), "definite"),
            (catalog()["quantum-optimal"], "semi-definite"),
            (catalog()["quantum-optimal"], "semi-definite"),
            (ModelDescriptor(kind="quantum", state="psi_plus", angles=psi_plus_angles), "semi-definite"),
            (ModelDescriptor(kind="quantum", state="phi_plus", angles=phi_plus_angles), "semi-definite"),
            (
                ModelDescriptor(
                    kind="quantum", state="psi_minus", angles=_violating_quantum_angles(rng)
                ),
                "semi-definite",
            ),
            (catalog()["nonlocal-optimal"], "semi-definite"),
            (ModelDescriptor(kind="nonlocal", state="psi_plus", angles=psi_plus_angles), "semi-definite"),
        ] + [
            (ModelDescriptor(kind="superdeterministic", table=pr_box_table(strength)), "indefinite")
            for strength in (1.0, 1.0, 0.9, 0.8, 0.6, 0.5, 0.3)
        ]
        assert len(configurations) == 20
        # every quantum/nonlocal configuration violates the local bound exactly
        for model, expected in configurations:
            if model.kind in ("quantum", "nonlocal"):
                vector = model_exact_correlations(model)
                best = max(
                    abs(sum(s * e for s, e in zip(pattern, vector.as_tuple())))
                    for pattern in SIGN_PATTERNS
                )
                assert best > 2.0
        schedule = [p for i in range(6) for p in (("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'"))]
        for seed, (model, expected) in enumerate(configurations):
            ledger = record_run(model, schedule, seed=seed)
            verdict = classify_definiteness(ledger, trials_for_stats=50_000)
            assert verdict.classification == expected, (seed, model.kind)


def test_criterion_09_no_signalling():
    with criterion(9, "no-signalling: marginals agree across remote settings at 5 sigma"):
        rng = np.random.default_rng(999)
        for seed in range(10):
            angles = tuple(float(t) for t in rng.uniform(0.0, 2.0 * math.pi, 4))
            model = ModelDescriptor(kind="quantum", state="psi_minus", angles=angles)
            result = run_chsh_experiment(model, 10**6, seed)
            counts = {pair: estimate.counts for pair, estimate in result.correlations.items()}
            for difference, threshold in marginal_comparisons(counts):
                assert difference < threshold, (seed, difference, threshold)


def test_criterion_10_bomb_tester():
    with criterion(10, "bomb tester: exact ports, dark port silent without absorber, MC at 5 sigma"):
        with_bomb = port_probabilities(InterferometerSpec(reflectivity=0.5, bomb_present=True))
        assert abs(with_bomb["exploded"] - 0.5) <= 1e-12
        assert abs(with_bomb["dark_port"] - 0.25) <= 1e-12
        assert abs(with_bomb["bright_port"] - 0.25) <= 1e-12
        without = port_probabilities(InterferometerSpec(reflectivity=0.5))
        assert without["dark_port"] == 0.0
        frequencies = run_bomb_trials(
            InterferometerSpec(reflectivity=0.5, bomb_present=True), 10**6, seed=6
        )
        assert abs(frequencies["exploded"] - 0.5) < 5.0 * math.sqrt(0.25 / 10**6)
        assert abs(frequencies["dark_port"] - 0.25) < 5.0 * math.sqrt(0.1875 / 10**6)
        assert abs(frequencies["bright_port"] - 0.25) < 5.0 * math.sqrt(0.1875 / 10**6)
        silent = run_bomb_trials(InterferometerSpec(reflectivity=0.5), 10**5, seed=7)
        assert silent["dark_port"] == 0.0


def test_criterion_11_reproducibility(tmp_path):
    with criterion(11, "reproducibility: byte-identical artifacts across runs and thread counts"):
        config = tmp_path / "run.cfg"
        config.write_text(
            'model = "quantum-optimal"\n'
            "trials = 150000\n"
            "seed = 2718\n"
            'pattern = "+-++"\n'
        )
        outputs = [tmp_path / name for name in ("one.json", "two.json", "eight.json")]
        commands = [
            ["--out", str(outputs[0]), "--threads", "1"],
            ["--out", str(outputs[1]), "--threads", "1"],
            ["--out", str(outputs[2]), "--threads", "8"],
        ]
        for extra in commands:
            completed = fresh.python(["-m", "bellsim.cli", "chsh", "--config", str(config)] + extra)
            assert completed.returncode == 0, completed.stderr
        blobs = [path.read_bytes() for path in outputs]
        assert blobs[0] == blobs[1], "consecutive runs differ"
        assert blobs[0] == blobs[2], "thread counts change the artifact"
        document = json.loads(blobs[0])
        assert set(document) == {"schema_version", "config", "results"}
