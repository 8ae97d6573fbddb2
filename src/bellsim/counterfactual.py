"""Record trials, replay them under alternative settings, classify models.

A ledger's one rule: trial i is measured at PAIR_ORDER[i % 4] on stream id
i. So the model, the run seed and the trial's index pin down everything the
trial consumed, and replaying trial i under an alternative setting pair has
unambiguous semantics per model kind:

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

import functools
import itertools
import json
from typing import TYPE_CHECKING, Iterator, Mapping, Optional

from ._record import record
from .config import MAX_LEDGER_TRIALS
from .experiment import run_chsh_experiment
from .models import ModelDescriptor, _sample_range
from .polytope import CorrelationVector, FeasibilityVerdict, local_membership
from .quantum import OUTCOME_ORDER, JointOutcomeDistribution, outcome_index
from .stats import PAIR_ORDER, SettingPair
from .streams import CHUNK

if TYPE_CHECKING:
    import numpy as np

# Stats trials use stream ids from _STATS_STREAM_BASE up, and a ledger's
# trial i uses stream id i below MAX_LEDGER_TRIALS, so the two phases of a
# run never share a stream. A ledger holds 3 bytes per trial and is sampled
# and replayed CHUNK trials at a time; its text, about 90 bytes per trial, is
# rendered and written _PIECE lines at a time, so no more than one piece of it
# is held. The cap bounds a run's time and disk.
_STATS_STREAM_BASE = 1 << 32
assert MAX_LEDGER_TRIALS <= _STATS_STREAM_BASE
_PIECE = CHUNK // 16


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


@record(eq=False)
class TrialLedger:
    """Recorded trials as arrays; trial i was measured at PAIR_ORDER[i % 4] on stream id i.

    `outcomes` holds 1 to MAX_LEDGER_TRIALS outcome pairs (n, 2) and `hidden` n hidden
    indices, both int8, or None where the model exposes none. Ledgers compare by identity.
    """

    seed: int
    model: ModelDescriptor
    outcomes: np.ndarray
    hidden: Optional[np.ndarray]

    def __post_init__(self) -> None:
        n = _check_trials(len(self.outcomes))
        if self.outcomes.shape != (n, 2) or self.hidden is not None and self.hidden.shape != (n,):
            raise ValueError(f"outcomes must be ({n}, 2) and hidden None or ({n},), one per trial")


@record
class DefinitenessVerdict:
    """A classification and its evidence: sampled correlations, their local feasibility
    and its facet slack, the ledger's cells by kind, its trials and those replayed exactly."""

    classification: str  # "definite" | "semi-definite" | "indefinite"
    feasibility: FeasibilityVerdict
    correlation_vector: CorrelationVector
    feasibility_tolerance: float
    cell_kinds: Mapping[str, int]
    trials_examined: int
    factual_replays_matched: int


def _check_trials(trials: int) -> int:
    """`trials`, or a ValueError unless it is an int (not a bool) in 1..MAX_LEDGER_TRIALS."""
    if type(trials) is not int or not 0 < trials <= MAX_LEDGER_TRIALS:
        raise ValueError(f"a ledger holds 1 to {MAX_LEDGER_TRIALS} trials, got {trials!r}")
    return trials


def _pairs(start: int, size: int) -> np.ndarray:
    """The int8 PAIR_ORDER indices of trials start..start+size-1: trial i's is i % 4."""
    import numpy as np

    pairs = np.arange(start, start + size)
    pairs %= 4
    return pairs.astype(np.int8)


def record_run(model: ModelDescriptor, trials: int, seed: int) -> TrialLedger:
    """`trials` recorded trials, a CHUNK at a time: trial i at PAIR_ORDER[i % 4] on stream id i.

    A ValueError, before anything is sampled, unless `trials` is an integer
    (not a bool) in 1..MAX_LEDGER_TRIALS.
    """
    outcomes, hidden = _sample_range(model, _pairs, seed, 0, _check_trials(trials))
    return TrialLedger(int(seed), model, outcomes, hidden)


def replay_counterfactual(
    ledger: TrialLedger, trial_index: int, alternative: SettingPair
) -> CounterfactualCell:
    """The cell for one alternative setting pair of one recorded trial."""
    if not 0 <= trial_index < len(ledger.outcomes):
        raise IndexError(f"trial index {trial_index} out of range")
    if alternative not in PAIR_ORDER:
        raise ValueError(f"alternative must be one of {PAIR_ORDER}, got {alternative!r}")
    if alternative == PAIR_ORDER[trial_index % 4]:
        outcome = tuple(ledger.outcomes[trial_index].tolist())
        return CounterfactualCell(kind="definite", outcome=outcome)
    model = ledger.model
    kind = model.unperformed_cell
    if kind == "definite":
        hidden = int(ledger.hidden[trial_index])
        return CounterfactualCell(kind=kind, outcome=model.response(hidden, alternative))
    if kind == "distribution":
        return CounterfactualCell(kind=kind, distribution=model.distribution(alternative))
    return CounterfactualCell(kind=kind)


def counterfactual_table(ledger: TrialLedger, trial_index: int) -> CounterfactualTable:
    """All four cells of one trial."""
    cells = {pair: replay_counterfactual(ledger, trial_index, pair) for pair in PAIR_ORDER}
    settings = PAIR_ORDER[trial_index % 4]
    return CounterfactualTable(settings, cells[settings].outcome, cells)


def classify_definiteness(
    ledger: TrialLedger, trials_for_stats: int = 100_000
) -> DefinitenessVerdict:
    """Classify the ledger's model as definite, semi-definite or indefinite, with the evidence.

    Cell counts follow from the ledger length and the model kind, and
    every recorded trial is replayed at its factual settings, a CHUNK of
    trials at a time, so the replay holds one chunk's outcomes. One
    distribution over joint (a, a', b, b') assignments reproduces the
    correlations exactly when they sit inside the local polytope (Fine,
    PRL 48, 291 (1982)), so the joint-assignment check is local_membership
    on correlations estimated from trials_for_stats fresh trials per
    setting pair, with the facet slack set to five standard errors of S.
    """
    trials = len(ledger.outcomes)
    if trials_for_stats < 1:
        raise ValueError("trials_for_stats must be at least 1")

    # Each trial has one factual (definite) cell and three alternatives.
    cell_kinds = {"definite": trials, "distribution": 0, "undefined": 0}
    cell_kinds[ledger.model.unperformed_cell] += 3 * trials
    matched = 0
    for start in range(0, trials, CHUNK):
        recorded = ledger.outcomes[start : start + CHUNK]
        replayed, _ = _sample_range(ledger.model, _pairs, ledger.seed, start, len(recorded))
        matched += int((replayed == recorded).all(axis=1).sum())

    stats = run_chsh_experiment(
        ledger.model, trials_for_stats, ledger.seed, stream_base=_STATS_STREAM_BASE
    )
    vector = CorrelationVector(*(stats.correlations[pair].value for pair in PAIR_ORDER))
    tolerance = 5.0 * stats.s_std_error
    feasibility = local_membership(vector, facet_tolerance=tolerance)

    if cell_kinds["undefined"] > 0:
        classification = "indefinite"
    elif cell_kinds["distribution"] == 0 and feasibility.feasible:
        classification = "definite"
    else:
        classification = "semi-definite"
    return DefinitenessVerdict(
        classification, feasibility, vector, tolerance, cell_kinds, trials, matched
    )


def ledger_blocks(ledger: TrialLedger) -> Iterator[str]:
    """The ledger text in pieces of at most _PIECE (4,096) lines.

    Line i is {"index": i, "settings", "outcomes", "hidden", "stream_id": i}
    in JSON. All but the two i are one of 272 fragments, one per (pair,
    outcome pair, hidden index or None), joined from the JSON of each value.
    """
    dumps = functools.partial(json.dumps, separators=(",", ":"))
    values = [list(map(dumps, v)) for v in (PAIR_ORDER, OUTCOME_ORDER, (None, *range(16)))]
    fragments = [
        f',"settings":{s},"outcomes":{o},"hidden":{h},"stream_id":'
        for s, o, h in itertools.product(*values)
    ]
    for start in range(0, len(ledger.outcomes), _PIECE):
        block = slice(start, start + _PIECE)
        # Fragment keys: 68 per pair, 17 per outcome pair (its index in OUTCOME_ORDER), hidden + 1.
        left, right = ledger.outcomes[block].T.astype(int)
        keys = 68 * _pairs(start, len(left)).astype(int) + 17 * outcome_index(left, right)
        if ledger.hidden is not None:
            keys += 1 + ledger.hidden[block]
        lines = zip(range(start, start + _PIECE), keys.tolist())
        yield "".join([f'{{"index":{i}{fragments[key]}{i}}}\n' for i, key in lines])


def ledger_text(ledger: TrialLedger) -> str:
    """The whole ledger text: the blocks of ledger_blocks, joined."""
    return "".join(ledger_blocks(ledger))

