"""Record trials, replay them under alternative settings, classify models.

A ledger pins down everything a trial consumed: the model, the run seed and
the per-trial stream id. Replaying trial i under an alternative setting
pair then has unambiguous semantics per model kind:

  lhv kinds           the stored hidden strategy answers the new labels,
                      giving one definite outcome pair
  quantum / nonlocal  the model only commits to Born weights for settings
                      that were not measured, so the cell is the joint
                      distribution at the alternative angles (re-sampling a
                      point would fabricate definiteness)
  superdeterministic  the hidden draw was conditioned on the factual
                      settings; the model refuses any other pair and the
                      cell is undefined

Classification follows from the cells plus whether a single joint
assignment over all four settings can reproduce the model's correlations:
all cells definite and a joint assignment feasible -> "definite"; cells
well-defined but multi-valued -> "semi-definite"; any undefined cell ->
"indefinite".
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Optional, Sequence

from ._record import record
from .experiment import estimate_correlation_vector
from .models import ModelDescriptor, TrialRecord, run_trials
from .polytope import CorrelationVector, FeasibilityVerdict, local_membership
from .quantum import JointOutcomeDistribution
from .stats import PAIR_ORDER, SettingPair, correlation

# Stats trials use stream ids from _STATS_STREAM_BASE up, and a ledger's
# trial i uses stream id i below MAX_LEDGER_TRIALS, so the two phases of a
# run never share a stream. A ledger holds about 0.7 KB per trial in memory,
# so the cap keeps one within a few hundred MB.
_STATS_STREAM_BASE = 1 << 32
MAX_LEDGER_TRIALS = 1 << 19
assert MAX_LEDGER_TRIALS <= _STATS_STREAM_BASE


@record
class CounterfactualCell:
    """What a model says one setting pair would have produced for one trial."""

    kind: str  # "definite" | "distribution" | "undefined"
    outcome: Optional[tuple[int, int]] = None
    distribution: Optional[JointOutcomeDistribution] = None

    def __post_init__(self) -> None:
        expectations = {
            "definite": self.outcome is not None and self.distribution is None,
            "distribution": self.outcome is None and self.distribution is not None,
            "undefined": self.outcome is None and self.distribution is None,
        }
        if self.kind not in expectations:
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if not expectations[self.kind]:
            raise ValueError(f"cell payload inconsistent with kind {self.kind!r}")


@record
class CounterfactualTable:
    """One trial's cells over all four setting pairs, anchored to the fact."""

    factual_settings: SettingPair
    factual_outcome: tuple[int, int]
    cells: Mapping[SettingPair, CounterfactualCell]

    def __post_init__(self) -> None:
        anchor = self.cells[self.factual_settings]
        if anchor.kind != "definite" or anchor.outcome != self.factual_outcome:
            raise ValueError("factual setting pair must map to the factual outcome")


@record
class TrialLedger:
    seed: int
    model: ModelDescriptor
    records: tuple[TrialRecord, ...]


@record
class ClassificationEvidence:
    feasibility: FeasibilityVerdict
    correlation_vector: CorrelationVector
    feasibility_tolerance: float
    cell_kinds: Mapping[str, int]
    trials_examined: int
    factual_replays_matched: int


@record
class DefinitenessVerdict:
    classification: str  # "definite" | "semi-definite" | "indefinite"
    evidence: ClassificationEvidence


def _check_ledger_length(trials: int) -> None:
    if trials > MAX_LEDGER_TRIALS:
        raise ValueError(f"a ledger holds at most {MAX_LEDGER_TRIALS} trials, got {trials}")


def record_run(
    model: ModelDescriptor, settings_schedule: Sequence[SettingPair], seed: int
) -> TrialLedger:
    """One recorded trial per schedule entry; stream id = entry index."""
    if len(settings_schedule) == 0:
        raise ValueError("settings schedule must be non-empty")
    _check_ledger_length(len(settings_schedule))
    records = run_trials(model, settings_schedule, seed)
    return TrialLedger(seed=int(seed), model=model, records=records)


def _alternative_cell_kind(model: ModelDescriptor) -> str:
    """The kind of every non-factual cell; the model kind alone decides it."""
    if model.kind in ("lhv_deterministic", "lhv_stochastic"):
        return "definite"
    if model.kind in ("quantum", "nonlocal"):
        return "distribution"
    return "undefined"


def replay_counterfactual(
    ledger: TrialLedger, trial_index: int, alternative: SettingPair
) -> CounterfactualCell:
    """The cell for one alternative setting pair of one recorded trial."""
    if not 0 <= trial_index < len(ledger.records):
        raise IndexError(f"trial index {trial_index} out of range")
    if alternative not in PAIR_ORDER:
        raise ValueError(f"alternative must be one of {PAIR_ORDER}, got {alternative!r}")
    record = ledger.records[trial_index]
    if alternative == record.settings:
        return CounterfactualCell(kind="definite", outcome=record.outcomes)
    model = ledger.model
    kind = _alternative_cell_kind(model)
    if kind == "definite":
        return CounterfactualCell(kind=kind, outcome=model.response(record.hidden, alternative))
    if kind == "distribution":
        return CounterfactualCell(kind=kind, distribution=model.distribution(alternative))
    return CounterfactualCell(kind=kind)


def counterfactual_table(ledger: TrialLedger, trial_index: int) -> CounterfactualTable:
    """All four cells of one trial."""
    record = ledger.records[trial_index]
    cells = {
        pair: replay_counterfactual(ledger, trial_index, pair) for pair in PAIR_ORDER
    }
    return CounterfactualTable(
        factual_settings=record.settings,
        factual_outcome=record.outcomes,
        cells=cells,
    )


def joint_assignment_feasibility(
    vector: CorrelationVector, tolerance: float = 1e-9
) -> FeasibilityVerdict:
    """Whether one distribution over joint (a, a', b, b') assignments fits.

    A single assignment of outcomes to all four settings exists exactly
    when the correlations sit inside the local polytope, so this shares the
    facet implementation with local_membership.
    """
    return local_membership(vector, facet_tolerance=tolerance)


def classify_definiteness(
    ledger: TrialLedger, trials_for_stats: int = 100_000
) -> DefinitenessVerdict:
    """Classify the ledger's model as definite, semi-definite or indefinite.

    Cell counts follow from the ledger length and the model kind, and
    every recorded trial is replayed at its factual settings. The
    joint-assignment check runs on correlations estimated from
    trials_for_stats fresh trials per setting pair, with the facet slack
    set to five standard deviations of the estimated S.
    """
    if len(ledger.records) == 0:
        raise ValueError("ledger must contain at least one record")
    _check_ledger_length(len(ledger.records))
    if trials_for_stats < 1:
        raise ValueError("trials_for_stats must be at least 1")

    # Each trial has one factual (definite) cell and three alternatives.
    trials = len(ledger.records)
    cell_kinds = {"definite": trials, "distribution": 0, "undefined": 0}
    cell_kinds[_alternative_cell_kind(ledger.model)] += 3 * trials
    replayed = run_trials(ledger.model, [r.settings for r in ledger.records], ledger.seed)
    matched = sum(a.outcomes == b.outcomes for a, b in zip(replayed, ledger.records))

    vector, counts = estimate_correlation_vector(
        ledger.model, trials_for_stats, ledger.seed, stream_base=_STATS_STREAM_BASE
    )
    sigma_s = math.sqrt(
        sum(correlation(counts[pair]).std_error ** 2 for pair in PAIR_ORDER)
    )
    tolerance = 5.0 * sigma_s
    feasibility = joint_assignment_feasibility(vector, tolerance=tolerance)

    if cell_kinds["undefined"] > 0:
        classification = "indefinite"
    elif cell_kinds["distribution"] == 0 and feasibility.feasible:
        classification = "definite"
    else:
        classification = "semi-definite"
    evidence = ClassificationEvidence(
        feasibility=feasibility,
        correlation_vector=vector,
        feasibility_tolerance=tolerance,
        cell_kinds=cell_kinds,
        trials_examined=len(ledger.records),
        factual_replays_matched=matched,
    )
    return DefinitenessVerdict(classification=classification, evidence=evidence)


def ledger_text(ledger: TrialLedger) -> str:
    """One JSON object per line: index, settings, outcomes, hidden, stream_id."""
    lines = []
    for index, record in enumerate(ledger.records):
        lines.append(
            json.dumps(
                {
                    "index": index,
                    "settings": list(record.settings),
                    "outcomes": list(record.outcomes),
                    "hidden": record.hidden,
                    "stream_id": record.stream_id,
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n"


def write_ledger(ledger: TrialLedger, path: "Path | str") -> None:
    Path(path).write_text(ledger_text(ledger), encoding="utf-8")


def read_ledger_records(path: "Path | str") -> tuple[TrialRecord, ...]:
    """Parse a ledger file back into trial records (audit path)."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        records.append(
            TrialRecord(
                settings=tuple(payload["settings"]),
                outcomes=tuple(payload["outcomes"]),
                hidden=payload["hidden"],
                stream_id=payload["stream_id"],
            )
        )
    return tuple(records)
