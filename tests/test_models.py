import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import streams

from bellsim.config import ConfigError, resolve_model
from bellsim.counterfactual import record_run
from bellsim.experiment import run_chsh_experiment
from bellsim.interferometer import InterferometerSpec, run_bomb_trials
from bellsim.models import (
    MODEL_KINDS,
    ModelDescriptor,
    SINGLET_OPTIMAL_ANGLES,
    catalog,
    count_chunk,
    generate_outcomes,
    pr_box_table,
    run_trial,
    sample_outcomes,
)
from bellsim.quantum import expectation, joint_probabilities, make_named_state
from bellsim.stats import PAIR_ORDER, STRATEGIES, correlation, counts_from_outcomes
from bellsim.streams import (
    CHUNK,
    ChunkBuffers,
    TrialStream,
    batch_uniforms,
    inverse_cdf,
    threshold_counts,
)

import oracles
from oracles import (
    marginal_comparisons,
    marginals,
    numpy_pr_box_table,
    reference_trial,
    traced_peak,
)

ALL_PLUS = ModelDescriptor.from_dict({"kind": "lhv_deterministic", "strategy": 0})
UNIFORM_LHV = ModelDescriptor(kind="lhv_stochastic", weights=[1.0 / 16.0] * 16)
PR_BOX = ModelDescriptor(kind="superdeterministic", table=pr_box_table(1.0))


def _counts(*args, **kwargs) -> dict:
    """Each setting pair's coincidence counts in run_chsh_experiment(*args, **kwargs)."""
    result = run_chsh_experiment(*args, **kwargs)
    return {pair: estimate.counts for pair, estimate in result.correlations.items()}


class TestLhvStrategy:
    """STRATEGIES: the signs (a, a', b, b') of each deterministic strategy, by index."""

    def test_index_round_trip(self):
        # The index's bits, high to low, are a, a', b, b', a set bit meaning -1.
        for index, signs in enumerate(STRATEGIES):
            assert sum((s == -1) << shift for s, shift in zip(signs, (3, 2, 1, 0))) == index

    def test_all_plus_is_zero(self):
        assert STRATEGIES[0] == (1, 1, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="0..15"):
            ModelDescriptor.from_dict({"kind": "lhv_deterministic", "strategy": 16})


class TestDescriptorValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ModelDescriptor(kind="classical")

    def test_quantum_requires_state_and_angles(self):
        with pytest.raises(ValueError):
            ModelDescriptor(kind="quantum", state="psi_minus")
        with pytest.raises(ValueError):
            ModelDescriptor(kind="quantum", angles=(0.0, 1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            ModelDescriptor(kind="quantum", state="psi_minus", angles=(0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            ModelDescriptor(kind="quantum", state="psi_minus", angles=(0.0, 1.0, 2.0, math.nan))

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            ModelDescriptor(kind="lhv_stochastic", weights=[0.5] * 16)  # sums to 8
        with pytest.raises(ValueError):
            ModelDescriptor(kind="lhv_stochastic", weights=[-1.0 / 16.0] * 16)
        with pytest.raises(ValueError):
            ModelDescriptor(kind="lhv_stochastic", weights=[1.0])

    def test_deterministic_requires_point_mass(self):
        with pytest.raises(ValueError, match="point-mass"):
            ModelDescriptor(kind="lhv_deterministic", weights=tuple([1.0 / 16.0] * 16))

    def test_table_validation(self):
        table = pr_box_table(1.0)
        del table[("a", "b")]
        with pytest.raises(ValueError, match="missing"):
            ModelDescriptor(kind="superdeterministic", table=table)
        bad = pr_box_table(1.0)
        bad[("a", "b")] = (0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="sum to"):
            ModelDescriptor(kind="superdeterministic", table=bad)

    def test_pr_strength_validation(self):
        with pytest.raises(ValueError):
            pr_box_table(1.5)

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_catalog_round_trips_through_dict(self, name):
        model = catalog()[name]
        assert ModelDescriptor.from_dict(model.to_dict()) == model


# The fields each model kind takes, and one valid value of each field.
KIND_FIELDS = {
    "quantum": ("state", "angles"),
    "lhv_deterministic": ("weights",),
    "lhv_stochastic": ("weights",),
    "superdeterministic": ("table",),
    "nonlocal": ("state", "angles"),
}
FIELD_VALUES = {
    "state": "psi_minus",
    "angles": (0.0, 1.0, 2.0, 3.0),
    "weights": (1.0,) + (0.0,) * 15,
    "table": pr_box_table(1.0),
}


@pytest.mark.parametrize("field", sorted(FIELD_VALUES))
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_kind_takes_exactly_its_fields(kind, field):
    fields = {name: FIELD_VALUES[name] for name in KIND_FIELDS[kind]}
    assert ModelDescriptor(kind, **fields).kind == kind
    if field in fields:
        del fields[field]  # lacks one of its fields
    else:
        fields[field] = FIELD_VALUES[field]  # has a field of another kind
    with pytest.raises(ValueError, match=f"^{kind} model takes "):
        ModelDescriptor(kind, **fields)
    with pytest.raises(ConfigError):
        resolve_model({"kind": kind, **fields})


@pytest.mark.parametrize("kind", [[], None, 3, {"quantum": 1}])
def test_a_kind_that_is_no_string_is_a_value_error(kind):
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelDescriptor(kind, state="psi_minus", angles=(0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("extra", [{"weights": FIELD_VALUES["weights"]}, {"state": "psi_minus"}])
def test_a_strategy_takes_no_other_field(extra):
    with pytest.raises(ConfigError, match="lhv_deterministic model takes"):
        resolve_model({"kind": "lhv_deterministic", "strategy": 0, **extra})


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_key_no_kind_takes_is_named(kind):
    fields = {name: FIELD_VALUES[name] for name in KIND_FIELDS[kind]}
    with pytest.raises(ConfigError, match="unknown model key 'angels'; accepted keys: kind, "):
        resolve_model({"kind": kind, **fields, "angels": [1, 1, 1, 1], "zz": 0})
    if kind != "lhv_deterministic":
        with pytest.raises(ConfigError, match="only an lhv_deterministic model takes a strategy"):
            resolve_model({"kind": kind, **fields, "strategy": 0})


class TestRunTrial:
    def test_constant_strategy_all_pairs(self):
        for pair in PAIR_ORDER:
            record = run_trial(ALL_PLUS, pair, TrialStream(1, 0))
            assert record.outcomes == (1, 1)
            assert record.hidden == 0

    def test_quantum_equal_angles_anticorrelated(self):
        theta = 0.7
        model = ModelDescriptor(kind="quantum", state="psi_minus", angles=(theta,) * 4)
        for stream_id in range(200):
            record = run_trial(model, ("a", "b"), TrialStream(5, stream_id))
            assert record.outcomes[0] == -record.outcomes[1]
            assert record.hidden is None

    def test_pr_table_product_plus_one(self):
        for stream_id in range(200):
            record = run_trial(PR_BOX, ("a", "b"), TrialStream(9, stream_id))
            assert record.outcomes[0] * record.outcomes[1] == 1
            assert record.hidden in (0, 3)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="settings"):
            run_trial(ALL_PLUS, ("a", "c"), TrialStream(0, 0))
        with pytest.raises(ValueError, match="settings"):
            run_trial(ALL_PLUS, ("b", "a"), TrialStream(0, 0))

    def test_determinism(self):
        model = catalog()["quantum-optimal"]
        first = run_trial(model, ("a'", "b"), TrialStream(123, 45))
        second = run_trial(model, ("a'", "b"), TrialStream(123, 45))
        assert first == second

    def test_lhv_left_outcome_ignores_right_label(self):
        # same stream -> same hidden strategy -> left response fixed
        for seed in range(30):
            one = run_trial(UNIFORM_LHV, ("a", "b"), TrialStream(seed, 0))
            other = run_trial(UNIFORM_LHV, ("a", "b'"), TrialStream(seed, 0))
            assert one.outcomes[0] == other.outcomes[0]
            assert one.hidden == other.hidden


class TestBatchGeneration:
    @pytest.mark.parametrize(
        "model",
        [
            catalog()["quantum-optimal"],
            catalog()["nonlocal-optimal"],
            ALL_PLUS,
            UNIFORM_LHV,
            PR_BOX,
        ],
        ids=["quantum", "nonlocal", "lhv_det", "lhv_stoch", "superdet"],
    )
    def test_batch_matches_scalar(self, model):
        pair = ("a'", "b'")
        seed = 31337
        batch = generate_outcomes(model, pair, seed, stream_start=100, count=500)
        for offset in range(500):
            outcomes, _ = reference_trial(model.to_dict(), pair, seed, 100 + offset)
            assert tuple(int(v) for v in batch[offset]) == outcomes

    def test_thread_count_does_not_change_outcomes(self, monkeypatch):
        model = catalog()["quantum-optimal"]
        runs = []
        for workers in (1, 4):
            monkeypatch.setattr(streams, "_workers", lambda chunks: workers)
            runs.append(generate_outcomes(model, ("a", "b"), 7, 0, 150_000))
        assert np.array_equal(*runs)

    @pytest.mark.parametrize("name", ["lhv-uniform", "nonlocal-optimal"])
    def test_chunks_write_their_own_rows_at_any_worker_count(self, name, monkeypatch):
        # Chunks of 16 trials, many workers handing over the interpreter lock
        # every microsecond: each chunk must land in the rows of its own ids.
        model = catalog()[name]
        schedule = np.arange(1000) % 4

        def run():
            ledger = record_run(model, schedule, seed=9)
            outcomes = generate_outcomes(model, ("a'", "b"), 9, 123, 1000)
            return outcomes, ledger.outcomes, ledger.hidden

        expected = run()
        monkeypatch.setattr(streams, "CHUNK", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 12):
                monkeypatch.setattr(streams, "_workers", lambda chunks: workers)
                for got, want in zip(run(), expected):
                    assert (got is None and want is None) or np.array_equal(got, want), workers
        finally:
            sys.setswitchinterval(interval)

    def test_empty_batch(self):
        assert generate_outcomes(catalog()["quantum-optimal"], ("a", "b"), 0, 0, 0).shape == (0, 2)

    def test_a_chunk_of_mixed_pairs_needs_no_cdf_row_per_trial(self):
        # A CDF row per trial would be 16 floats, 8 MiB for the chunk.
        pairs = np.resize(np.arange(4, dtype=np.int8), CHUNK)
        u = ChunkBuffers().uniforms(3, 0, CHUNK, UNIFORM_LHV._tables.draws).T
        expected = sample_outcomes(UNIFORM_LHV, pairs, u)
        assert traced_peak(lambda: sample_outcomes(UNIFORM_LHV, pairs, u)) < 2 * 2**20
        assert expected[1].tolist()[:4] == [min(int(16 * x), 15) for x in u[:4, 0]]

    # record_run is the batch form of run_trial: it samples a chunk of trials per call.
    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_run_trials_matches_run_trial(self, name):
        model = catalog()[name]
        schedule = [PAIR_ORDER[(3 * i) % 4] for i in range(40)]
        ledger = record_run(model, schedule, seed=77)
        trials = [run_trial(model, pair, TrialStream(77, i)) for i, pair in enumerate(schedule)]
        hidden = [None] * 40 if ledger.hidden is None else ledger.hidden.tolist()
        assert list(zip(ledger.pairs.tolist(), ledger.outcomes.tolist(), hidden)) == [
            (PAIR_ORDER.index(t.settings), list(t.outcomes), t.hidden) for t in trials
        ]
        assert all(isinstance(v, int) for t in trials for v in t.outcomes)

    # generate_outcomes still takes a thread count, which changes nothing.
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_chunked_tally_matches_generated_outcomes(self, threads, monkeypatch):
        model = catalog()["lhv-uniform"]
        trials = 2 * 65_536 + 100
        counts = _counts(model, trials, 4, stream_base=10)
        monkeypatch.setattr(streams, "_workers", lambda chunks: threads)
        for pair_index, pair in enumerate(PAIR_ORDER):
            start = 10 + pair_index * trials
            outcomes = generate_outcomes(model, pair, 4, start, trials, threads=threads)
            assert counts[pair] == counts_from_outcomes(outcomes)

    def test_each_estimate_holds_the_counts_it_was_estimated_from(self):
        # One chunk and a bit per pair, so each pair's counts add two chunks.
        for name, model in catalog().items():
            result = run_chsh_experiment(model, CHUNK + 7, 6)
            assert list(result.correlations) == list(PAIR_ORDER), name
            for estimate in result.correlations.values():
                assert estimate.counts.total == CHUNK + 7, name
                assert estimate.value == correlation(estimate.counts).value, name
                assert estimate == correlation(estimate.counts), name


# Every catalog model (among them lhv-edge, whose 14 zero-weight strategies
# leave one threshold, and pr-box-soft, whose four outcome pairs each have
# weight), plus corner cases of the fused counters: a nonlocal model whose
# left outcome is always +1 (so c_minus is undefined and 0), an lhv mixture
# whose first strategy has weight 0 (a tie at threshold 0), and one of ten
# weights 0.1, whose running total stops just below 1 before six zero weights.
_LEADING_ZERO = (0.0,) + (0.125,) * 8 + (0.0,) * 7
_SHORT_TOTAL = (0.1,) * 10 + (0.0,) * 6
CATALOG_MODELS = catalog()
FUSED_MODELS = {
    **CATALOG_MODELS,
    "nonlocal-up-up": ModelDescriptor(kind="nonlocal", state="up_up", angles=(0.0, 0.0, 0.0, 0.0)),
    "quantum-up-up": ModelDescriptor(kind="quantum", state="up_up", angles=(0.0, 0.0, 0.0, 0.0)),
    "lhv-leading-zero": ModelDescriptor(kind="lhv_stochastic", weights=_LEADING_ZERO),
    "lhv-short-total": ModelDescriptor(kind="lhv_stochastic", weights=_SHORT_TOTAL),
}


def _row(parts: list[int]) -> tuple[float, ...]:
    total = sum(parts)
    return tuple(part / total for part in parts)


# Rows of integer parts over their total: a part of 0 is a zero weight
# anywhere in the row, equal parts tie, and some totals, such as ten parts
# of 1, leave the running total just below 1 (others just above it).
def _parts(size: int) -> st.SearchStrategy[list[int]]:
    return st.one_of(
        st.lists(st.integers(0, 1), min_size=size, max_size=size),
        st.lists(st.integers(0, 3), min_size=size, max_size=size),
    ).filter(any)


_MIXTURES = _parts(16).map(
    lambda parts: ModelDescriptor(kind="lhv_stochastic", weights=_row(parts))
)
_TABLES = st.lists(_parts(4), min_size=4, max_size=4).map(
    lambda rows: ModelDescriptor(
        kind="superdeterministic", table=dict(zip(PAIR_ORDER, map(_row, rows)))
    )
)


class TestFusedCounts:
    @pytest.mark.parametrize("name", sorted(FUSED_MODELS))
    def test_chunk_counts_match_sampled_outcomes(self, name):
        model = FUSED_MODELS[name]
        for pair_index, pair in enumerate(PAIR_ORDER):
            start, size = 1000 * pair_index, 5000 + pair_index
            expected = counts_from_outcomes(generate_outcomes(model, pair, 21, start, size))
            assert count_chunk(model, pair, 21, ChunkBuffers(), start, size) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(FUSED_MODELS))
    def test_counts_across_chunk_boundary(self, name, workers, monkeypatch):
        model = FUSED_MODELS[name]
        trials = CHUNK + 300
        monkeypatch.setattr(streams, "_workers", lambda chunks: workers)
        run = run_chsh_experiment(model, trials, 8, stream_base=CHUNK - 150)
        for pair_index, pair in enumerate(PAIR_ORDER):
            start = CHUNK - 150 + pair_index * trials
            outcomes = generate_outcomes(model, pair, 8, start, trials)
            counts = run.correlations[pair].counts
            assert counts == counts_from_outcomes(outcomes)
            assert all(type(n) is int for n in vars(counts).values())

    def test_worker_count_changes_no_result(self, monkeypatch):
        # Three chunks and a bit, starting and ending inside a chunk.
        start, count = CHUNK - 77, 3 * CHUNK + 123
        spec = InterferometerSpec(reflectivity=0.3, bomb_present=True)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(streams, "_workers", lambda chunks: workers)
            runs.append((
                [_counts(m, count, 5, stream_base=start)
                 for m in CATALOG_MODELS.values()],
                generate_outcomes(CATALOG_MODELS["lhv-uniform"], ("a", "b'"), 5, start, count),
                run_bomb_trials(spec, count, 5),
            ))
        for counts, outcomes, frequencies in runs[1:]:
            assert counts == runs[0][0]
            assert np.array_equal(outcomes, runs[0][1])
            assert frequencies == runs[0][2]

    def test_tail_below_one_goes_to_the_last_positive_weight(self, monkeypatch):
        # The ten weights 0.1 sum to 1 - 2**-53, the largest uniform, which
        # is therefore at or above the running total of every strategy.
        model = FUSED_MODELS["lhv-short-total"]
        u = 1.0 - 2.0**-53
        assert np.cumsum(_SHORT_TOTAL)[9] <= u

        class Constant:
            def uniforms(self, seed, start, size, draws):
                return np.full((draws, size), u)

            def work_rows(self, count, size):
                return np.empty((count, size), dtype=bool)

        monkeypatch.setattr(oracles, "stream_uniforms", lambda seed, stream_id, draws: [u])
        for pair_index, pair in enumerate(PAIR_ORDER):
            outcomes, hidden = sample_outcomes(model, pair_index, np.array([[u]]))
            assert hidden.tolist() == [9]
            assert tuple(outcomes[0].tolist()) == model.response(9, pair)
            assert reference_trial(model.to_dict(), pair, 0, 0) == (model.response(9, pair), 9)
            counts = count_chunk(model, pair, 0, Constant(), 0, 10)
            expected = counts_from_outcomes(np.repeat(outcomes, 10, axis=0))
            assert counts == expected and counts.total == 10

    @settings(max_examples=40, deadline=None)
    @given(
        chunk_and_count=st.integers(1, 1024).flatmap(
            lambda chunk: st.tuples(st.just(chunk), st.integers(0, min(3000, 6 * chunk)))
        ),
        start=st.integers(0, 2**63),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_counts_do_not_depend_on_chunk_size(self, chunk_and_count, start, seed):
        chunk, count = chunk_and_count
        expected = {}
        for name, model in CATALOG_MODELS.items():
            for pair_index, pair in enumerate(PAIR_ORDER):
                first = start + pair_index * count
                ids = np.arange(first, first + count, dtype=np.uint64)
                u = batch_uniforms(seed, ids, model._tables.draws)
                outcomes, _ = sample_outcomes(model, pair_index, u)
                expected[name, pair] = counts_from_outcomes(outcomes)
        with mock.patch.object(streams, "CHUNK", chunk):
            for name, model in CATALOG_MODELS.items():
                if count == 0:
                    with pytest.raises(ValueError, match="trials_per_pair"):
                        run_chsh_experiment(model, count, seed, stream_base=start)
                    continue
                counts = _counts(model, count, seed, stream_base=start)
                for pair in PAIR_ORDER:
                    assert counts[pair] == expected[name, pair]

    @settings(max_examples=60, deadline=None)
    @given(model=st.one_of(_MIXTURES, _TABLES), seed=st.integers(0, 2**64 - 1),
           extra=st.integers(1, 300))
    def test_random_rows_count_as_their_sampled_outcomes(self, model, seed, extra):
        # One CHUNK and `extra` more ids, starting 100 ids before a multiple of CHUNK.
        start = CHUNK - 100
        for pair_index, pair in enumerate(PAIR_ORDER):
            outcomes = generate_outcomes(model, pair, seed, start, CHUNK + extra)
            head = count_chunk(model, pair, seed, ChunkBuffers(), start, CHUNK)
            tail = count_chunk(model, pair, seed, ChunkBuffers(), start + CHUNK, extra)
            assert head + tail == counts_from_outcomes(outcomes)
            # The row as sampled, each threshold repeated (a zero-probability
            # index after each), and +inf thresholds appended that no uniform reaches.
            buffers = ChunkBuffers()
            u, = buffers.uniforms(seed, start, CHUNK, 1)
            above, = buffers.work_rows(1, CHUNK)
            row = model._tables.cdf[pair_index]
            for cdf in (row, np.repeat(row, 2), np.append(row, [np.inf, np.inf])):
                expected = np.bincount(inverse_cdf(cdf[None], 0, u), minlength=len(cdf))
                assert np.array_equal(threshold_counts(cdf, u, above), expected)

    def test_thresholds_that_cannot_change_a_count_are_not_compared(self, monkeypatch):
        # The PR box's rows are [0.5, 0.5, 0.5, inf] and [0, 0.5, inf, inf]:
        # thresholds repeated, at 0 and at +inf count without a pass over u.
        buffers = ChunkBuffers()
        u, = buffers.uniforms(4, 0, 1000, 1)
        above, = buffers.work_rows(1, 1000)
        passes = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda a: passes.append(a) or count_nonzero(a))
        for cdf in np.unique(PR_BOX._tables.cdf, axis=0):
            passes.clear()
            counts = threshold_counts(cdf, u, above)
            assert len(passes) == 1
            assert np.array_equal(counts, np.bincount(inverse_cdf(cdf[None], 0, u), minlength=4))

    @pytest.mark.parametrize("name", sorted(CATALOG_MODELS))
    def test_a_counted_chunk_allocates_nothing_past_its_buffers(self, name):
        # Draws are cast where they lie and masks are written to the scratch.
        model, buffers = CATALOG_MODELS[name], ChunkBuffers()
        count_chunk(model, ("a", "b"), 1, buffers, 0, CHUNK)
        peak = traced_peak(lambda: count_chunk(model, ("a'", "b'"), 2, buffers, 5, CHUNK))
        assert peak < 16 * 1024

    def test_empty_range(self):
        quantum = catalog()["quantum-optimal"]
        assert count_chunk(quantum, ("a", "b"), 0, ChunkBuffers(), 0, 0).total == 0
        with pytest.raises(ValueError, match="settings"):
            count_chunk(quantum, ("b", "a"), 0, ChunkBuffers(), 0, 0)
        with pytest.raises(ValueError, match="trials_per_pair"):
            run_chsh_experiment(quantum, 0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            generate_outcomes(quantum, ("a", "b"), 0, 0, -1)

    def test_chsh_and_bomb_build_no_outcome_array(self, monkeypatch, tmp_path):
        calls = []

        def forbidden(name):
            return lambda *a, **k: calls.append(name)

        for target in (
            "bellsim.models.sample_outcomes",
            "bellsim.stats.counts_from_outcomes",
            "bellsim.experiment.counts_from_outcomes",
            "bellsim.streams.inverse_cdf",
            "bellsim.interferometer.inverse_cdf",
        ):
            monkeypatch.setattr(target, forbidden(target), raising=False)
        from bellsim.cli import main
        from bellsim.interferometer import InterferometerSpec, run_bomb_trials

        for name in sorted(FUSED_MODELS):
            run_chsh_experiment(FUSED_MODELS[name], 1000, 3)
        run_bomb_trials(InterferometerSpec(bomb_present=True), 1000, 3)
        out = str(tmp_path / "out.json")
        assert main(["chsh", "--trials", "1000", "--threads", "2", "--out", out]) == 0
        assert main(["bomb", "--trials", "1000", "--out", out]) == 0
        run_chsh_experiment(UNIFORM_LHV, 10_000, 0)
        assert calls == []


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0))
def test_pr_box_table_equals_numpy_reference_bit_for_bit(strength):
    # Sampled superdeterministic outcomes are drawn from these rows.
    table = pr_box_table(strength)
    assert table == numpy_pr_box_table(strength)
    assert all(type(p) is float for row in table.values() for p in row)


class TestModelTables:
    def test_distributions_match_joint_probabilities(self):
        model = ModelDescriptor(kind="quantum", state="psi_plus", angles=(0.1, 0.7, 1.3, 2.9))
        state = model.quantum_state()
        for x, y in PAIR_ORDER:
            expected = joint_probabilities(state, model.angle_for(x), model.angle_for(y))
            assert np.array_equal(model.distribution((x, y)).as_array(), expected.as_array())

    def test_responses_match_strategies(self):
        labels = ("a", "a'", "b", "b'")
        for index, signs in enumerate(STRATEGIES):
            for x, y in PAIR_ORDER:
                expected = (signs[labels.index(x)], signs[labels.index(y)])
                assert UNIFORM_LHV.response(index, (x, y)) == expected

    @pytest.mark.parametrize(
        "name", [n for n, m in sorted(catalog().items()) if m.kind != "nonlocal"]
    )
    def test_trimmed_cdf_keeps_every_index(self, name):
        # Thresholds at or above 1 are dropped from the tables; uniforms just
        # below 1 and on every threshold must still land where the full CDF
        # would put them.
        model = catalog()[name]
        u = np.concatenate([np.linspace(0.0, 1.0 - 2.0**-53, 4001), np.arange(1, 16) / 16.0])
        for pair_index, pair in enumerate(PAIR_ORDER):
            if model.kind == "superdeterministic":
                rows = model.table[pair]
            elif model.kind == "quantum":
                rows = model.distribution(pair).as_array()
            else:
                rows = model.weights
            full = np.cumsum(rows)
            expected = np.minimum(np.searchsorted(full, u, side="right"), len(full) - 1)
            assert np.array_equal(inverse_cdf(model._tables.cdf, pair_index, u), expected)

    def test_point_mass_needs_no_threshold(self):
        assert ALL_PLUS._tables.cdf.shape == (4, 1)
        assert catalog()["lhv-edge"]._tables.cdf.shape == (4, 2)
        assert UNIFORM_LHV._tables.cdf.shape == (4, 16)

    def test_accessors_reject_other_kinds(self):
        with pytest.raises(ValueError):
            UNIFORM_LHV.distribution(("a", "b"))
        with pytest.raises(ValueError):
            catalog()["quantum-optimal"].response(0, ("a", "b"))
        with pytest.raises(ValueError):
            UNIFORM_LHV.response(16, ("a", "b"))

    def test_sampling_never_recomputes_born_probabilities(self, monkeypatch):
        import bellsim.models

        model = catalog()["nonlocal-optimal"]
        calls = []
        solve = bellsim.models.joint_probabilities
        monkeypatch.setattr(
            "bellsim.models.joint_probabilities", lambda *a: calls.append(a) or solve(*a)
        )
        record_run(model, list(PAIR_ORDER) * 10, seed=1)
        assert len(calls) == 4  # the tables, built on first use
        run_trial(model, ("a", "b'"), TrialStream(1, 0))
        generate_outcomes(model, ("a'", "b"), 1, 0, 1000)
        assert len(calls) == 4


class TestQuantumFidelity:
    def test_empirical_matches_exact_ten_angle_pairs(self):
        state = make_named_state("psi_minus")
        rng = np.random.default_rng(2718)
        n = 10**6
        for case in range(10):
            ta, tb = rng.uniform(0.0, 2.0 * math.pi, 2)
            angles = (float(ta), 0.0, float(tb), 0.0)
            model = ModelDescriptor(kind="quantum", state="psi_minus", angles=angles)
            outcomes = generate_outcomes(model, ("a", "b"), 1000 + case, 0, n)
            estimate = correlation(counts_from_outcomes(outcomes))
            exact = expectation(state, float(ta), float(tb))
            bound = 5.0 * math.sqrt((1.0 - exact**2) / n) + 1e-9
            assert abs(estimate.value - exact) < max(bound, 5.0 * estimate.std_error)


class TestNoSignalling:
    def test_quantum_marginals_balanced(self):
        model = catalog()["quantum-optimal"]
        comparisons = marginal_comparisons(_counts(model, 10**6, 11))
        assert max(difference for difference, _ in comparisons) < 0.004
        assert all(difference <= threshold for difference, threshold in comparisons)
        assert model.unperformed_cell != "undefined"

    def test_pr_box_flagged_at_hidden_level(self):
        assert PR_BOX.unperformed_cell == "undefined"
        # PR-box marginals are uniform, so the measured level passes
        comparisons = marginal_comparisons(_counts(PR_BOX, 10**5, 13))
        assert all(difference <= threshold for difference, threshold in comparisons)

    @pytest.mark.parametrize("name", ["quantum-optimal", "nonlocal-optimal", "lhv-uniform", "pr-box"])
    def test_marginals_equal_outcome_array_means(self, name):
        model = catalog()[name]
        trials = CHUNK + 4_000
        measured = marginals(_counts(model, trials, 5))
        for pair_index, pair in enumerate(PAIR_ORDER):
            outcomes = generate_outcomes(model, pair, 5, pair_index * trials, trials)
            p_left = float(np.mean(outcomes[:, 0] == 1))
            p_right = float(np.mean(outcomes[:, 1] == 1))
            assert measured[pair] == (p_left, p_right)

    def test_uniform_lhv_marginals(self):
        comparisons = marginal_comparisons(_counts(UNIFORM_LHV, 10**6, 17))
        assert max(difference for difference, _ in comparisons) < 0.004
        assert all(difference <= threshold for difference, threshold in comparisons)
        assert UNIFORM_LHV.unperformed_cell != "undefined"

def test_singlet_optimal_angles_constant():
    assert SINGLET_OPTIMAL_ANGLES == (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
