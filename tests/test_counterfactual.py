import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import counterfactual, models
from bellsim.config import MAX_LEDGER_TRIALS
from bellsim.counterfactual import (
    TrialLedger,
    classify_definiteness,
    counterfactual_table,
    ledger_blocks,
    ledger_text,
    record_run,
    replay_counterfactual,
)
from bellsim.experiment import run_chsh_experiment
from bellsim.models import (
    CATALOG,
    TrialRecord,
    catalog,
    ModelDescriptor,
    pr_box_table,
    run_trial,
)
from bellsim.polytope import CorrelationVector, local_membership
from bellsim.stats import PAIR_ORDER
from bellsim.streams import CHUNK, TrialStream

from oracles import lp_local_membership, per_record_ledger_text, reference_trial, traced_peak

SCHEDULE = [PAIR_ORDER[i % 4] for i in range(100)]


def ledger_records(ledger):
    """Each recorded trial as the TrialRecord run_trial gives for it."""
    hidden = [None] * len(ledger.pairs) if ledger.hidden is None else ledger.hidden.tolist()
    rows = enumerate(zip(ledger.pairs.tolist(), ledger.outcomes.tolist(), hidden))
    return [TrialRecord(PAIR_ORDER[p], tuple(o), h, i) for i, (p, o, h) in rows]


class TestRecordRun:
    def test_one_record_per_entry(self):
        ledger = record_run(catalog()["quantum-optimal"], SCHEDULE, seed=3)
        records = ledger_records(ledger)
        assert len(records) == 100
        assert [r.stream_id for r in records] == list(range(100))

    def test_replay_reproduces_outcomes(self):
        ledger = record_run(catalog()["quantum-optimal"], SCHEDULE, seed=3)
        for index, record in enumerate(ledger_records(ledger)):
            outcomes, hidden = reference_trial(ledger.model.to_dict(), record.settings, 3, index)
            assert (outcomes, hidden) == (record.outcomes, record.hidden)
            assert run_trial(ledger.model, record.settings, TrialStream(3, index)) == record

    def test_lhv_records_always_carry_hidden(self):
        ledger = record_run(catalog()["lhv-uniform"], SCHEDULE, seed=4)
        assert all(r.hidden is not None for r in ledger_records(ledger))

    def test_quantum_records_carry_no_hidden(self):
        ledger = record_run(catalog()["quantum-optimal"], SCHEDULE, seed=4)
        assert all(r.hidden is None for r in ledger_records(ledger))

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            record_run(catalog()["quantum-optimal"], [], seed=0)

    def test_pair_indices_record_the_same_trials_as_setting_pairs(self):
        model = catalog()["lhv-uniform"]
        by_pairs = record_run(model, SCHEDULE, seed=3)
        by_indices = record_run(model, np.arange(100) % 4, seed=3)
        assert ledger_records(by_indices) == ledger_records(by_pairs)
        assert by_indices.pairs.dtype == by_indices.outcomes.dtype == np.int8

    @pytest.mark.parametrize(
        "indices", [[0, 4], [-1, 2], [0.0, 1.0], [[0, 1]]], ids=["4", "-1", "float", "2-D"]
    )
    def test_pair_indices_outside_0_to_3_rejected(self, indices):
        with pytest.raises(ValueError, match="pair indices"):
            record_run(catalog()["quantum-optimal"], np.array(indices), seed=0)


class _LongSchedule:
    """A schedule that reports a length but holds no entries."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __getitem__(self, index):
        raise AssertionError("the schedule must not be read")


class TestLedgerCap:
    def test_ledger_streams_stay_below_stats_streams(self):
        assert MAX_LEDGER_TRIALS <= counterfactual._STATS_STREAM_BASE

    def test_record_run_rejects_too_many_trials_before_sampling(self, monkeypatch):
        monkeypatch.setattr(models, "sample_outcomes", None)  # any call would fail
        with pytest.raises(ValueError, match=f"at most {MAX_LEDGER_TRIALS}"):
            record_run(catalog()["quantum-optimal"], _LongSchedule(MAX_LEDGER_TRIALS + 1), seed=0)

    def test_record_run_takes_the_cap_itself(self, monkeypatch):
        sampled = []

        def sample(model, pairs, u):
            sampled.append(len(pairs))
            return np.ones((len(pairs), 2), dtype=np.int8), None

        monkeypatch.setattr(models, "sample_outcomes", sample)
        ledger = record_run(catalog()["quantum-optimal"], np.arange(MAX_LEDGER_TRIALS) % 4, seed=0)
        assert sum(sampled) == len(ledger.pairs) == len(ledger.outcomes) == MAX_LEDGER_TRIALS

    def test_classify_rejects_too_long_ledger_before_replay(self, monkeypatch):
        # The ledger itself is refused, so there is none to classify or replay.
        monkeypatch.setattr(models, "sample_outcomes", None)
        long = _LongSchedule(MAX_LEDGER_TRIALS + 1)
        outcomes = np.ones((len(long), 2), dtype=np.int8)
        model = catalog()["quantum-optimal"]
        with pytest.raises(ValueError, match=f"at most {MAX_LEDGER_TRIALS}"):
            TrialLedger(0, model, pairs=long, outcomes=outcomes, hidden=None)

    def test_classify_replays_one_chunk_at_a_time(self):
        # Replayed whole, a ledger at the cap held 1 MiB of outcomes and as much again to compare.
        ledger = record_run(catalog()["lhv-uniform"], np.arange(MAX_LEDGER_TRIALS) % 4, seed=4)
        assert traced_peak(lambda: classify_definiteness(ledger)) < 2.5 * 2**20

    def test_table_of_a_capped_ledger_builds_no_record(self, monkeypatch):
        ledger = record_run(catalog()["lhv-uniform"], np.arange(MAX_LEDGER_TRIALS) % 4, seed=1)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a TrialRecord was built")

        monkeypatch.setattr(TrialRecord, "__init__", refuse)
        for index in (0, MAX_LEDGER_TRIALS // 2, MAX_LEDGER_TRIALS - 1):
            table = counterfactual_table(ledger, index)
            assert table.factual_outcome == tuple(ledger.outcomes[index].tolist())
            assert all(cell.kind == "definite" for cell in table.cells.values())


class TestReplay:
    def test_lhv_all_plus_counterfactual(self):
        model = ModelDescriptor.from_dict({"kind": "lhv_deterministic", "strategy": 0})
        ledger = record_run(model, [("a", "b")], seed=0)
        cell = replay_counterfactual(ledger, 0, ("a'", "b'"))
        assert cell.kind == "definite"
        assert cell.outcome == (1, 1)

    def test_quantum_equal_angle_counterfactual_distribution(self):
        theta = 1.1
        model = ModelDescriptor(kind="quantum", state="psi_minus", angles=(0.4, theta, 0.9, theta))
        ledger = record_run(model, [("a", "b")], seed=5)
        cell = replay_counterfactual(ledger, 0, ("a'", "b'"))
        assert cell.kind == "distribution"
        assert cell.distribution.probabilities == pytest.approx((0, 0.5, 0.5, 0), abs=1e-12)

    def test_superdeterministic_refuses_alternatives(self):
        ledger = record_run(catalog()["pr-box"], [("a", "b")], seed=6)
        cell = replay_counterfactual(ledger, 0, ("a", "b'"))
        assert cell.kind == "undefined"
        assert cell.outcome is None and cell.distribution is None

    def test_factual_pair_returns_factual_outcome_for_all_models(self):
        for name, model in catalog().items():
            ledger = record_run(model, SCHEDULE[:8], seed=7)
            for index, record in enumerate(ledger_records(ledger)):
                cell = replay_counterfactual(ledger, index, record.settings)
                assert cell.kind == "definite", name
                assert cell.outcome == record.outcomes, name

    def test_index_out_of_range(self):
        ledger = record_run(catalog()["quantum-optimal"], [("a", "b")], seed=0)
        with pytest.raises(IndexError):
            replay_counterfactual(ledger, 5, ("a", "b"))

    def test_bad_alternative(self):
        ledger = record_run(catalog()["quantum-optimal"], [("a", "b")], seed=0)
        with pytest.raises(ValueError):
            replay_counterfactual(ledger, 0, ("a", "a'"))


class TestTable:
    def test_factual_anchoring_all_models(self):
        for name, model in catalog().items():
            ledger = record_run(model, SCHEDULE[:12], seed=8)
            for index, record in enumerate(ledger_records(ledger)):
                table = counterfactual_table(ledger, index)
                anchor = table.cells[record.settings]
                assert anchor.kind == "definite", name
                assert anchor.outcome == record.outcomes, name

    def test_locality_under_replay_exhaustive(self):
        strategy_9 = ModelDescriptor.from_dict({"kind": "lhv_deterministic", "strategy": 9})
        for model in (catalog()["lhv-uniform"], catalog()["lhv-edge"], strategy_9):
            ledger = record_run(model, SCHEDULE, seed=9)
            for index, record in enumerate(ledger_records(ledger)):
                table = counterfactual_table(ledger, index)
                for x in ("a", "a'"):
                    left_b = table.cells[(x, "b")].outcome[0]
                    left_bp = table.cells[(x, "b'")].outcome[0]
                    assert left_b == left_bp

    def test_quantum_table_shape(self):
        ledger = record_run(catalog()["quantum-optimal"], [("a", "b")], seed=10)
        table = counterfactual_table(ledger, 0)
        kinds = sorted(cell.kind for cell in table.cells.values())
        assert kinds == ["definite", "distribution", "distribution", "distribution"]


def _empirical_vector(model, trials_per_pair, seed):
    result = run_chsh_experiment(model, trials_per_pair, seed)
    return CorrelationVector(*(result.correlations[pair].value for pair in PAIR_ORDER))


class TestJointAssignment:
    def test_lhv_empirical_vector_feasible(self):
        weights = list(np.random.default_rng(1).dirichlet(np.ones(16)))
        model = ModelDescriptor(kind="lhv_stochastic", weights=weights)
        vector = _empirical_vector(model, 10**5, seed=2)
        sigma = math.sqrt(sum((1.0 - v * v) / 10**5 for v in vector.as_tuple()))
        verdict = local_membership(vector, facet_tolerance=5.0 * sigma)
        assert verdict.feasible

    def test_singlet_optimal_empirical_vector_infeasible(self):
        vector = _empirical_vector(catalog()["quantum-optimal"], 10**6, seed=3)
        sigma = math.sqrt(sum((1.0 - v * v) / 10**6 for v in vector.as_tuple()))
        verdict = local_membership(vector, facet_tolerance=5.0 * sigma)
        assert not verdict.feasible
        assert verdict.violated_facet.margin > 0.8  # ~ 2 sqrt(2) - 2

    def test_pr_corner_margin_two(self):
        verdict = local_membership(CorrelationVector(1.0, 1.0, 1.0, -1.0))
        assert not verdict.feasible
        assert verdict.violated_facet.sign_pattern == (1, 1, 1, -1)
        assert verdict.violated_facet.margin == pytest.approx(2.0, abs=1e-12)

    def test_shares_implementation_with_local_membership(self, monkeypatch):
        # The verdict's joint-assignment check is one local_membership call
        # on its evidence, and the facet check agrees with the LP oracle.
        calls = []

        def spy(vector, facet_tolerance):
            calls.append((vector, facet_tolerance))
            return local_membership(vector, facet_tolerance)

        monkeypatch.setattr(counterfactual, "local_membership", spy)
        ledger = record_run(catalog()["quantum-optimal"], SCHEDULE, seed=5)
        verdict = classify_definiteness(ledger, trials_for_stats=1000)
        assert calls == [(verdict.correlation_vector, verdict.feasibility_tolerance)]
        rng = np.random.default_rng(12)
        for _ in range(100):
            vector = CorrelationVector(*rng.uniform(-1.0, 1.0, 4))
            assert local_membership(vector).feasible == lp_local_membership(vector.as_tuple())


class TestClassification:
    def test_lhv_models_definite(self):
        for model in (
            ModelDescriptor.from_dict({"kind": "lhv_deterministic", "strategy": 0}),
            ModelDescriptor.from_dict({"kind": "lhv_deterministic", "strategy": 11}),
            catalog()["lhv-uniform"],
            catalog()["lhv-edge"],
        ):
            ledger = record_run(model, SCHEDULE[:40], seed=13)
            verdict = classify_definiteness(ledger, trials_for_stats=50_000)
            assert verdict.classification == "definite"
            assert verdict.feasibility.feasible
            assert verdict.factual_replays_matched == 40

    def test_quantum_semi_definite(self):
        ledger = record_run(catalog()["quantum-optimal"], SCHEDULE[:40], seed=14)
        verdict = classify_definiteness(ledger, trials_for_stats=100_000)
        assert verdict.classification == "semi-definite"
        assert not verdict.feasibility.feasible
        assert verdict.cell_kinds["distribution"] > 0

    def test_nonlocal_semi_definite(self):
        ledger = record_run(catalog()["nonlocal-optimal"], SCHEDULE[:40], seed=15)
        verdict = classify_definiteness(ledger, trials_for_stats=100_000)
        assert verdict.classification == "semi-definite"

    def test_superdeterministic_indefinite(self):
        for strength in (1.0, 0.5):
            model = ModelDescriptor(kind="superdeterministic", table=pr_box_table(strength))
            ledger = record_run(model, SCHEDULE[:40], seed=16)
            verdict = classify_definiteness(ledger, trials_for_stats=50_000)
            assert verdict.classification == "indefinite"
            assert verdict.cell_kinds["undefined"] > 0

    def test_cell_kinds_equal_tally_of_every_table(self):
        for name, model in catalog().items():
            ledger = record_run(model, SCHEDULE[:13], seed=17)
            tally = {"definite": 0, "distribution": 0, "undefined": 0}
            for index in range(len(ledger.pairs)):
                for cell in counterfactual_table(ledger, index).cells.values():
                    tally[cell.kind] += 1
            verdict = classify_definiteness(ledger, trials_for_stats=100)
            assert verdict.cell_kinds == tally, name
            assert list(verdict.cell_kinds) == list(tally), name

    def test_trials_for_stats_below_1_rejected(self):
        ledger = record_run(catalog()["lhv-uniform"], [("a", "b")], seed=0)
        with pytest.raises(ValueError, match="trials_for_stats"):
            classify_definiteness(ledger, trials_for_stats=0)

    def test_empty_ledger_rejected(self):
        ledger = record_run(catalog()["quantum-optimal"], [("a", "b")], seed=0)
        empty = ledger.pairs[:0], ledger.outcomes[:0], None
        with pytest.raises(ValueError, match="non-empty"):
            TrialLedger(ledger.seed, ledger.model, *empty)

    @pytest.mark.parametrize("indices", [[0, 4], [-1, 2]], ids=["4", "-1"])
    def test_hand_built_ledger_with_pair_index_outside_0_to_3_rejected(self, indices):
        # Unchecked, -1 would wrap round to the last setting pair's row: the
        # verdict's replay and counterfactual_table, which read trial 0 as (a', b').
        ledger = record_run(catalog()["quantum-optimal"], [("a", "b"), ("a", "b'")], seed=0)
        pairs = np.array(indices, dtype=np.int8)
        with pytest.raises(ValueError, match="pair indices"):
            TrialLedger(0, ledger.model, pairs, ledger.outcomes, None)

    @pytest.mark.parametrize(
        "outcomes, hidden",
        [(slice(1), None), (slice(None), slice(1)), ((slice(None), 0), None)],
        ids=["one-outcome-row", "one-hidden-index", "one-outcome-column"],
    )
    def test_hand_built_ledger_with_arrays_of_other_lengths_rejected(self, outcomes, hidden):
        # Unchecked, the replay compared one outcome row with five trials' and
        # the ledger text wrote five lines from it.
        ledger = record_run(catalog()["lhv-uniform"], np.arange(5) % 4, seed=0)
        kept = None if hidden is None else ledger.hidden[hidden]
        with pytest.raises(ValueError, match=r"must be \(5, 2\) and hidden None or \(5,\)"):
            TrialLedger(0, ledger.model, ledger.pairs, ledger.outcomes[outcomes], kept)

    def test_edited_outcomes_are_not_matched(self):
        # Trials on both sides of a chunk edge, their outcomes flipped.
        ledger = record_run(catalog()["lhv-uniform"], np.arange(CHUNK + 10) % 4, seed=6)
        edited = [3, CHUNK - 1, CHUNK, CHUNK + 9]
        ledger.outcomes[edited] *= -1
        verdict = classify_definiteness(ledger, trials_for_stats=10)
        assert verdict.factual_replays_matched == CHUNK + 10 - len(edited)


class TestLedgerText:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    @settings(max_examples=15, deadline=None)
    @given(
        trials=st.integers(1, 3000),
        seed=st.integers(0, 2**64 - 1),
        stride=st.integers(0, 3),
        offset=st.integers(0, 3),
    )
    def test_text_equals_the_per_record_oracle(self, name, trials, seed, stride, offset):
        model = ModelDescriptor.from_dict(CATALOG[name])
        pairs = ((offset + stride * np.arange(trials)) % 4).tolist()
        ledger = record_run(model, [PAIR_ORDER[p] for p in pairs], seed)
        expected = per_record_ledger_text(
            run_trial(model, PAIR_ORDER[p], TrialStream(seed, i)) for i, p in enumerate(pairs)
        )
        assert ledger_text(ledger) == expected
        verdict = classify_definiteness(ledger, trials_for_stats=10)
        assert verdict.factual_replays_matched == trials

    def test_pieces_hold_at_most_4096_lines(self):
        # The sampled trials are checked above; this checks the lines past one chunk.
        ledger = record_run(catalog()["pr-box"], np.arange(CHUNK + 3) % 4, seed=2)
        blocks = list(ledger_blocks(ledger))
        assert [block.count("\n") for block in blocks] == [4096] * (CHUNK // 4096) + [3]
        assert "".join(blocks) == ledger_text(ledger) == per_record_ledger_text(ledger_records(ledger))

    def test_a_piece_costs_its_own_lines_not_a_chunk(self):
        # A chunk's text is about 5.6 MB; a piece holds 1/16 of it.
        ledger = record_run(catalog()["lhv-uniform"], np.arange(CHUNK) % 4, seed=4)
        assert traced_peak(lambda: next(ledger_blocks(ledger))) < 2 * 2**20


class TestLedgerFile:
    def test_round_trip(self, tmp_path):
        ledger = record_run(catalog()["lhv-uniform"], SCHEDULE[:25], seed=17)
        path = tmp_path / "trials.jsonl"
        path.write_text(ledger_text(ledger), encoding="utf-8")
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [PAIR_ORDER.index(tuple(t["settings"])) for t in lines] == ledger.pairs.tolist()
        assert [t["outcomes"] for t in lines] == ledger.outcomes.tolist()
        assert [t["hidden"] for t in lines] == ledger.hidden.tolist()
        assert [t["stream_id"] for t in lines] == list(range(25))

    def test_line_format(self, tmp_path):
        ledger = record_run(catalog()["quantum-optimal"], [("a'", "b")], seed=18)
        path = tmp_path / "trials.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(ledger_blocks(ledger))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert set(payload) == {"index", "settings", "outcomes", "hidden", "stream_id"}
        assert payload["settings"] == ["a'", "b"]
        assert payload["hidden"] is None
