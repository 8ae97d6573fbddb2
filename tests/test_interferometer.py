import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import streams

from bellsim.interferometer import (
    InterferometerSpec,
    OUTCOMES,
    port_probabilities,
    run_bomb_trials,
)

from bellsim.streams import CHUNK, word_thresholds

from oracles import (
    bomb_oracle,
    first_index_above,
    numpy_port_probabilities,
    stream_uniforms,
    traced_peak,
)


class TestSpec:
    @pytest.mark.parametrize("r", [0.0, 1.0, -0.1, 1.5])
    def test_reflectivity_must_be_interior(self, r):
        with pytest.raises(ValueError):
            InterferometerSpec(reflectivity=r)

    def test_phase_must_be_finite(self):
        with pytest.raises(ValueError):
            InterferometerSpec(phase=math.inf)


class TestExactProbabilities:
    def test_balanced_no_bomb_full_interference(self):
        probs = port_probabilities(InterferometerSpec(reflectivity=0.5))
        assert probs["dark_port"] == pytest.approx(0.0, abs=1e-12)
        assert probs["bright_port"] == pytest.approx(1.0, abs=1e-12)
        assert probs["exploded"] == 0.0

    def test_balanced_with_bomb_canonical_values(self):
        probs = port_probabilities(InterferometerSpec(reflectivity=0.5, bomb_present=True))
        assert probs["exploded"] == pytest.approx(0.5, abs=1e-12)
        assert probs["dark_port"] == pytest.approx(0.25, abs=1e-12)
        assert probs["bright_port"] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("r", np.linspace(0.05, 0.95, 19))
    def test_explosion_probability_equals_reflectivity(self, r):
        probs = port_probabilities(InterferometerSpec(reflectivity=float(r), bomb_present=True))
        assert probs["exploded"] == pytest.approx(float(r), abs=1e-12)

    @pytest.mark.parametrize("r", np.linspace(0.05, 0.95, 19))
    def test_interaction_free_detection(self, r):
        without = port_probabilities(InterferometerSpec(reflectivity=float(r)))
        with_bomb = port_probabilities(
            InterferometerSpec(reflectivity=float(r), bomb_present=True)
        )
        assert without["dark_port"] == pytest.approx(0.0, abs=1e-12)
        assert with_bomb["dark_port"] > 0.0

    def test_unitarity_random_specs(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            spec = InterferometerSpec(
                reflectivity=float(rng.uniform(0.01, 0.99)),
                bomb_present=bool(rng.integers(0, 2)),
                phase=float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi)),
            )
            probs = port_probabilities(spec)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(p >= -1e-15 for p in probs.values())

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            r = float(rng.uniform(0.01, 0.99))
            bomb = bool(rng.integers(0, 2))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            ours = port_probabilities(
                InterferometerSpec(reflectivity=r, bomb_present=bomb, phase=phase)
            )
            oracle = bomb_oracle(r, bomb, phase)
            for name in OUTCOMES:
                assert ours[name] == pytest.approx(oracle[name], abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(
        reflectivity=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        bomb_present=st.booleans(),
        phase=st.floats(-1e6, 1e6),
    )
    def test_equals_numpy_reference_bit_for_bit(self, reflectivity, bomb_present, phase):
        # The sampled bomb CDF is built from these probabilities.
        probs = port_probabilities(InterferometerSpec(reflectivity, bomb_present, phase))
        assert probs == numpy_port_probabilities(reflectivity, bomb_present, phase)
        assert all(type(p) is float for p in probs.values())

    def test_phase_sweep_half_angle_law(self):
        for phase in np.linspace(0.0, 2.0 * math.pi, 100):
            probs = port_probabilities(InterferometerSpec(reflectivity=0.5, phase=float(phase)))
            assert probs["dark_port"] == pytest.approx(math.sin(phase / 2.0) ** 2, abs=1e-12)
            assert probs["bright_port"] == pytest.approx(math.cos(phase / 2.0) ** 2, abs=1e-12)


class TestTrials:
    def test_no_bomb_dark_port_never_fires(self):
        frequencies = run_bomb_trials(InterferometerSpec(), trials=10**5, seed=1)
        assert frequencies["dark_port"] == 0.0

    def test_bomb_frequencies_within_five_sigma(self):
        spec = InterferometerSpec(bomb_present=True)
        frequencies = run_bomb_trials(spec, trials=10**6, seed=2)
        # 5 sigma for p = 1/4 at 1e6 trials
        assert abs(frequencies["dark_port"] - 0.25) < 0.0022
        assert abs(frequencies["bright_port"] - 0.25) < 0.0022
        assert abs(frequencies["exploded"] - 0.5) < 0.0025

    def test_same_seed_identical_frequencies(self):
        spec = InterferometerSpec(bomb_present=True, reflectivity=0.3)
        first = run_bomb_trials(spec, trials=50_000, seed=99)
        second = run_bomb_trials(spec, trials=50_000, seed=99)
        assert first == second

    def test_frequencies_sum_to_one(self):
        frequencies = run_bomb_trials(
            InterferometerSpec(bomb_present=True), trials=12_345, seed=5
        )
        assert sum(frequencies.values()) == pytest.approx(1.0, abs=1e-12)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_bomb_trials(InterferometerSpec(), trials=0, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        chunk=st.integers(1, 1024),
        trials=st.integers(1, 3000),
        reflectivity=st.floats(0.01, 0.99),
        bomb_present=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_frequencies_do_not_depend_on_chunk_size(
        self, chunk, trials, reflectivity, bomb_present, seed
    ):
        spec = InterferometerSpec(reflectivity=reflectivity, bomb_present=bomb_present)
        expected = run_bomb_trials(spec, trials, seed)
        with mock.patch.object(streams, "CHUNK", chunk):
            assert run_bomb_trials(spec, trials, seed) == expected

    def test_the_plan_holds_the_two_port_thresholds(self, monkeypatch):
        # Three ports, two thresholds: a word below the first explodes, below the second is dark.
        spec = InterferometerSpec(bomb_present=True, reflectivity=0.3)
        probs = port_probabilities(spec)
        plans = []
        build = streams.counting_plan

        def counting_plan(thresholds, *args):
            plans.append((thresholds, build(thresholds, *args)))
            return plans[-1][1]

        monkeypatch.setattr(streams, "counting_plan", counting_plan)
        run_bomb_trials(spec, 1000, 1)
        (thresholds, plan), = plans
        cumulative = [probs["exploded"], probs["exploded"] + probs["dark_port"]]
        assert thresholds == word_thresholds(np.array(cumulative)).tolist()
        assert len(plan.compares) == 2

    def test_tally_allocates_one_chunk_of_buffers(self):
        # Eight chunks run on one worker, whose uniform row and scratch
        # (8 bytes per id each) are all the tally allocates.
        spec = InterferometerSpec(bomb_present=True, reflectivity=0.3)
        run_bomb_trials(spec, 10, 1)
        buffers = 2 * 8 * CHUNK
        assert traced_peak(lambda: run_bomb_trials(spec, 8 * CHUNK, 1)) < buffers + 16 * 1024

    def test_chunked_tally_matches_per_trial_reference(self):
        # Spans a chunk boundary: the per-chunk tallies must add up exactly.
        spec = InterferometerSpec(bomb_present=True, reflectivity=0.3)
        trials = CHUNK + 17
        probs = bomb_oracle(0.3, True, 0.0)
        weights = [probs[name] for name in OUTCOMES]
        tally = [0] * len(OUTCOMES)
        for stream_id in range(trials):
            tally[first_index_above(weights, stream_uniforms(11, stream_id, 1)[0])] += 1
        expected = {name: tally[i] / trials for i, name in enumerate(OUTCOMES)}
        assert run_bomb_trials(spec, trials, seed=11) == expected
