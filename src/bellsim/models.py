"""World models: one trial generator per way of producing outcome pairs.

Five kinds share one sampling kernel:

  quantum             sample the Born joint distribution of a two-qubit state
  nonlocal            same statistics, factored as left marginal then right
                      outcome conditioned on the left outcome and BOTH settings
  lhv_deterministic   a single fixed response strategy (point-mass mixture)
  lhv_stochastic      a setting-independent mixture over the 16 strategies
  superdeterministic  outcome table conditioned on the setting pair itself

CATALOG holds the named models as data: each is the JSON-form payload
that ModelDescriptor.from_dict builds, as it builds a model given as JSON.
Each ModelDescriptor builds its sampling tables once, the first time it
samples, so resolving and describing a model loads no numpy.
`sample_outcomes` turns stream words into per-trial outcomes for ledgers
and outcome arrays; `count_chunk` counts a chunk's words on the same rows,
through the setting pair's counting plan, so it builds no per-trial array.
Trials draw from per-trial streams keyed by (run seed, stream_id), so any
trial can be regenerated in isolation and batches are independent of how
the work is chunked.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from ._record import record
from .config import echoed
from .quantum import (
    OUTCOME_ORDER,
    JointOutcomeDistribution,
    TwoQubitState,
    joint_probabilities,
    make_named_state,
    outcome_index,
    sum_in_order,
)
from .stats import PAIR_ORDER, SETTING_LABELS, STRATEGIES, SettingPair

if TYPE_CHECKING:
    import numpy as np

    from .streams import ChunkBuffers, TrialStream

# What each kind takes, and what a setting pair it did not measure holds: the
# strategy's one definite outcome pair, the Born distribution, or nothing,
# since a superdeterministic draw is conditioned on the pair measured.
_KINDS = {
    "quantum": (("state", "angles"), "distribution"),
    "lhv_deterministic": (("weights",), "definite"),
    "lhv_stochastic": (("weights",), "definite"),
    "superdeterministic": (("table",), "undefined"),
    "nonlocal": (("state", "angles"), "distribution"),
}
MODEL_KINDS = tuple(_KINDS)
_FIELDS = ("state", "angles", "weights", "table")

LEFT_LABELS, RIGHT_LABELS = SETTING_LABELS[:2], SETTING_LABELS[2:]

SINGLET_OPTIMAL_ANGLES = (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
PSI_PLUS_OPTIMAL_ANGLES = (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi / 4.0)


@record
class TrialRecord:
    """One trial: settings, outcomes, optional hidden variable, stream id."""

    settings: SettingPair
    outcomes: tuple[int, int]
    hidden: Optional[int]
    stream_id: int


def _floats(values: object, what: str) -> tuple[float, ...]:
    """`values` as a tuple of floats; a ValueError naming `what` if they are not numbers.

    A bool or a string is never taken for a number, nor a string for numbers.
    """
    try:
        if isinstance(values, str) or any(isinstance(x, (bool, str)) for x in values):
            raise TypeError("a bool or a string is not a number")
        return tuple(float(x) for x in values)  # type: ignore[union-attr]
    except OverflowError as exc:
        raise ValueError(f"{what} must be numbers within float range") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be numbers, got {echoed(values)}") from exc


def _validate_weights(weights: Sequence[float]) -> tuple[float, ...]:
    w = _floats(weights, "mixture weights")
    if len(w) != 16:
        raise ValueError(f"expected 16 mixture weights, got {len(w)}")
    if any(not math.isfinite(x) or x < 0.0 for x in w):
        raise ValueError("mixture weights must be finite and non-negative")
    if abs(sum_in_order(w) - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {sum_in_order(w)!r}, expected 1")
    return w


def _validate_table(
    table: Mapping[SettingPair, Sequence[float]],
) -> dict[SettingPair, tuple[float, ...]]:
    if not isinstance(table, Mapping):
        raise ValueError(f"outcome table must map setting pairs to rows, got {echoed(table)}")
    cleaned: dict[SettingPair, tuple[float, ...]] = {}
    for pair in PAIR_ORDER:
        if pair not in table:
            raise ValueError(f"outcome table is missing setting pair {pair}")
        row = _floats(table[pair], f"table row for {pair}")
        try:
            cleaned[pair] = JointOutcomeDistribution(row).probabilities
        except ValueError as exc:
            raise ValueError(f"table row for {pair}: {exc}") from exc
    extra = set(table) - set(PAIR_ORDER)
    if extra:
        raise ValueError(f"outcome table has unknown setting pairs {sorted(extra)}")
    return cleaned


@record
class _SamplingTables:
    """A model's constants, one row per setting pair in PAIR_ORDER, thresholds in word form.

    `cdf` rows hold the inverse-CDF word thresholds over hidden indices
    that some word falls below, and `answers` the outcome pair each index
    gives; sampling reads them, and counting reads `plans`, each pair's
    CountingPlan built from them once. nonlocal models have none of these;
    both read their `conditionals` rows (p_left_plus, c_plus_given_plus,
    c_plus_given_minus). streams.word_thresholds gives the word form.
    """

    draws: int
    cdf: Optional[np.ndarray]
    answers: Optional[np.ndarray]
    conditionals: Optional[np.ndarray]
    plans: tuple


def _build_tables(model: "ModelDescriptor") -> _SamplingTables:
    # streams first: it loads numpy, and is compiled before numpy's memory is held.
    from .streams import counting_plan, word_thresholds

    import numpy as np

    # Outcome pair per hidden index, per setting pair in PAIR_ORDER: the joint
    # outcomes in OUTCOME_ORDER, or the signs each of the 16 strategies answers.
    answers = np.tile(np.array(OUTCOME_ORDER, dtype=np.int8), (4, 1, 1))
    if model.state is not None:  # quantum and nonlocal
        rows = np.array([model.distribution(pair).as_array() for pair in PAIR_ORDER])
    elif model.weights is not None:  # the LHV kinds
        signs = np.array(STRATEGIES, dtype=np.int8)
        answers = np.stack(
            [signs[:, [SETTING_LABELS.index(x), SETTING_LABELS.index(y)]] for x, y in PAIR_ORDER]
        )
        rows = np.tile(model.weights, (4, 1))
    else:
        rows = np.array([model.table[pair] for pair in PAIR_ORDER])
    if model.kind == "nonlocal":
        p_plus, p_minus = rows[:, 0] + rows[:, 1], rows[:, 2] + rows[:, 3]
        c_plus = rows[:, 0] / np.where(p_plus > 0.0, p_plus, 1.0)
        c_minus = rows[:, 2] / np.where(p_minus > 0.0, p_minus, 1.0)
        conditionals = word_thresholds(np.column_stack([p_plus, c_plus, c_minus]))
        return _SamplingTables(2, None, None, conditionals, ())
    cdf = np.cumsum(rows, axis=1)
    # The last index a uniform reaches is the row's last with positive
    # probability, or, sooner, the first whose threshold is at or above 1,
    # which no uniform reaches. Thresholds from there on never count: as
    # +inf they send the tail of a row summing to just below 1 to that
    # index, never to a zero-probability one, and a suffix of them that
    # every row shares is not stored: `width` thresholds pick among width + 1 indices.
    n = rows.shape[1]
    last_positive = n - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
    full = cdf >= 1.0
    reach = np.minimum(last_positive, np.where(full.any(axis=1), np.argmax(full, axis=1), n))
    cdf[np.arange(n) >= reach[:, None]] = np.inf
    width = int(reach.max())
    cdf = word_thresholds(cdf[:, :width])
    # Each hidden index counts in the coincidence counter of the outcome pair it answers.
    outcomes = outcome_index(answers[:, : width + 1, 0], answers[:, : width + 1, 1]).tolist()
    plans = tuple(counting_plan(row, own, 4) for row, own in zip(cdf.tolist(), outcomes))
    return _SamplingTables(1, cdf, answers, None, plans)


@record
class ModelDescriptor:
    """A validated world-model configuration and its sampling tables.

    A kind takes exactly the fields _KINDS names for it and leaves the others None.
    """

    kind: str
    state: Optional[str] = None
    angles: Optional[tuple[float, float, float, float]] = None
    weights: Optional[tuple[float, ...]] = None
    table: Optional[Mapping[SettingPair, tuple[float, ...]]] = None

    def __post_init__(self) -> None:
        # A tuple, not _KINDS: a dict would raise TypeError on an unhashable kind.
        if self.kind not in MODEL_KINDS:
            raise ValueError(
                f"unknown model kind {echoed(self.kind)}; expected one of {MODEL_KINDS}"
            )
        fields = _KINDS[self.kind][0]
        given = tuple(name for name in _FIELDS if getattr(self, name) is not None)
        if given != fields:
            got = ", ".join(given) or "none"
            raise ValueError(f"{self.kind} model takes {' and '.join(fields)}, got {got}")
        if self.state is not None:
            make_named_state(self.state)  # validates the name
            angles = _floats(self.angles, "angles")
            if len(angles) != 4 or any(not math.isfinite(t) for t in angles):
                raise ValueError(f"angles must be four finite radians, got {echoed(self.angles)}")
            object.__setattr__(self, "angles", angles)
        if self.weights is not None:
            weights = _validate_weights(self.weights)
            if self.kind == "lhv_deterministic" and max(weights) != 1.0:
                raise ValueError("lhv_deterministic requires a point-mass weight vector")
            object.__setattr__(self, "weights", weights)
        if self.table is not None:
            object.__setattr__(self, "table", _validate_table(self.table))

    @property
    def unperformed_cell(self) -> str:
        """What a setting pair not measured holds: "definite", "distribution" or "undefined"."""
        return _KINDS[self.kind][1]

    @functools.cached_property
    def _tables(self) -> _SamplingTables:
        """The sampling tables, built on first use."""
        return _build_tables(self)

    def angle_for(self, label: str) -> float:
        assert self.angles is not None
        return self.angles[SETTING_LABELS.index(label)]

    def quantum_state(self) -> TwoQubitState:
        assert self.state is not None
        return make_named_state(self.state)

    def exposes_hidden_variable(self) -> bool:
        """Whether outcomes come from a hidden index; quantum and nonlocal draw Born outcomes."""
        return self.state is None

    @functools.cached_property
    def _born(self) -> tuple[JointOutcomeDistribution, ...]:
        """The Born distribution at each setting pair in PAIR_ORDER, solved on first use."""
        if self.state is None:
            raise ValueError(f"{self.kind} model has no Born distribution")
        state = self.quantum_state()
        return tuple(joint_probabilities(state, *map(self.angle_for, pair)) for pair in PAIR_ORDER)

    def distribution(self, settings: SettingPair) -> JointOutcomeDistribution:
        """Born distribution at a setting pair (quantum and nonlocal kinds), in plain Python."""
        return self._born[_pair_index(settings)]

    def response(self, hidden: int, settings: SettingPair) -> tuple[int, int]:
        """Outcome pair that hidden index `hidden` answers at a setting pair."""
        answers = self._tables.answers
        if not self.exposes_hidden_variable() or not 0 <= hidden < answers.shape[1]:
            raise ValueError(f"{self.kind} model has no hidden index {hidden!r}")
        return tuple(answers[_pair_index(settings), hidden].tolist())

    def to_dict(self) -> dict:
        """The JSON form: the kind and its fields, a point mass as its strategy index."""
        if self.kind == "lhv_deterministic":
            return {"kind": self.kind, "strategy": self.weights.index(1.0)}
        payload = {"kind": self.kind}
        for name in _KINDS[self.kind][0]:
            value = getattr(self, name)
            if name == "table":
                value = {",".join(pair): list(row) for pair, row in value.items()}
            payload[name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ModelDescriptor":
        """The model of a JSON form: `strategy` stands for a point mass, a table key is "x,y"."""
        if not isinstance(payload, Mapping) or "kind" not in payload:
            got = echoed(payload)
            raise ValueError(f"model payload must be a mapping with a 'kind', got {got}")
        keys = ("kind", "strategy", *_FIELDS)
        unknown = set(payload) - set(keys)
        if unknown:  # named one at a time, so the line stays short
            first = echoed(min(unknown, key=repr))
            raise ValueError(f"unknown model key {first}; accepted keys: {', '.join(keys)}")
        fields = {name: payload.get(name) for name in _FIELDS}
        if "strategy" in payload:
            if payload["kind"] != "lhv_deterministic" or fields["weights"] is not None:
                raise ValueError("only an lhv_deterministic model takes a strategy, and no weights")
            strategy = payload["strategy"]
            # An index is an integer, not a bool or a string; a float counts only when integral.
            if isinstance(strategy, float) and strategy.is_integer():
                strategy = int(strategy)
            if isinstance(strategy, bool) or not hasattr(strategy, "__index__"):
                raise ValueError(f"strategy must be an integer, got {echoed(strategy)}")
            index = operator.index(strategy)
            if not 0 <= index < 16:
                raise ValueError(f"strategy index must be in 0..15, got {index}")
            fields["weights"] = tuple(1.0 if i == index else 0.0 for i in range(16))
        if isinstance(fields["table"], Mapping):
            fields["table"] = {
                tuple(key.split(",")) if isinstance(key, str) else tuple(key): row
                for key, row in fields["table"].items()
            }
        return cls(payload["kind"], **fields)


def pr_box_table(strength: float = 1.0) -> dict[SettingPair, tuple[float, ...]]:
    """Setting-conditioned outcome table interpolating uniform noise -> PR box.

    At strength 1 the table is the PR box: perfectly correlated outcomes on
    every pair except (a, b'), which is perfectly anticorrelated, giving
    S = 4 under the default sign pattern. Marginals stay uniform at every
    strength, so the conditioning is invisible at the marginal level.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    correlated = (0.5, 0.0, 0.0, 0.5)
    anticorrelated = (0.0, 0.5, 0.5, 0.0)
    table = {}
    for pair in PAIR_ORDER:
        target = anticorrelated if pair == ("a", "b'") else correlated
        table[pair] = tuple(strength * p + (1.0 - strength) * 0.25 for p in target)
    return table


# The named models, each as the payload ModelDescriptor.from_dict builds it from.
CATALOG: dict[str, dict] = {
    "quantum-optimal": {"kind": "quantum", "state": "psi_minus", "angles": SINGLET_OPTIMAL_ANGLES},
    "quantum-psi-plus": {"kind": "quantum", "state": "psi_plus", "angles": PSI_PLUS_OPTIMAL_ANGLES},
    "nonlocal-optimal": {
        "kind": "nonlocal", "state": "psi_minus", "angles": SINGLET_OPTIMAL_ANGLES
    },
    "lhv-uniform": {"kind": "lhv_stochastic", "weights": (1.0 / 16.0,) * 16},
    "lhv-edge": {"kind": "lhv_stochastic", "weights": (0.5, 0.5) + (0.0,) * 14},
    "lhv-all-plus": {"kind": "lhv_deterministic", "strategy": 0},
    "pr-box": {"kind": "superdeterministic", "table": pr_box_table(1.0)},
    "pr-box-soft": {"kind": "superdeterministic", "table": pr_box_table(0.5)},
}
# The bare names --model also takes, each for the catalog model it names.
ALIASES = {"quantum": "quantum-optimal", "nonlocal": "nonlocal-optimal"}


def catalog() -> dict[str, ModelDescriptor]:
    """Every model of CATALOG, built; the CLI builds only the one it runs."""
    return {name: ModelDescriptor.from_dict(payload) for name, payload in CATALOG.items()}


def _pair_index(settings: SettingPair) -> int:
    """Position of a validated setting pair in PAIR_ORDER."""
    x, y = settings
    if x not in LEFT_LABELS or y not in RIGHT_LABELS:
        raise ValueError(
            f"settings must be a pair from {LEFT_LABELS} x {RIGHT_LABELS}, got {settings!r}"
        )
    return 2 * LEFT_LABELS.index(x) + RIGHT_LABELS.index(y)


def sample_outcomes(
    model: ModelDescriptor, pairs: "int | np.ndarray", u: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Outcome pairs (n, 2) int8 and hidden indices (None if not exposed) for n trials.

    `pairs` holds each trial's index into PAIR_ORDER, or one index for all;
    row i of `u` holds trial i's stream words in draw order, as
    ChunkBuffers.words gives them (streams.word_thresholds of its uniforms).
    nonlocal, whose tables hold conditionals, draws the left outcome, then
    the right one conditioned on it; the other kinds draw a hidden index
    from the pair's CDF row and give its outcome pair.
    """
    import numpy as np

    from .streams import inverse_cdf

    tables = model._tables
    if tables.conditionals is not None:
        p_left_plus, c_plus, c_minus = tables.conditionals[pairs].T
        left = u[:, 0] < p_left_plus
        right = u[:, 1] < np.where(left, c_plus, c_minus)
        return np.where(np.column_stack([left, right]), np.int8(1), np.int8(-1)), None
    hidden = inverse_cdf(tables.cdf, pairs, u[:, 0])
    # np.take on the flattened table is far cheaper than fancy indexing.
    index = pairs * tables.answers.shape[1] + hidden
    outcomes = np.take(tables.answers.reshape(-1, 2), index, axis=0)
    return outcomes, hidden if model.exposes_hidden_variable() else None


def run_trial(
    model: ModelDescriptor, settings: SettingPair, rng_stream: TrialStream
) -> TrialRecord:
    """One trial: the kernel on the next uniforms drawn from `rng_stream`."""
    from .streams import word_thresholds

    pair = _pair_index(settings)
    u = word_thresholds(rng_stream.uniforms(model._tables.draws))[None, :]
    outcomes, hidden = sample_outcomes(model, pair, u)
    (left, right), = outcomes.tolist()
    lam = None if hidden is None else int(hidden[0])
    return TrialRecord(PAIR_ORDER[pair], (left, right), lam, rng_stream.stream_id)


def _sample_range(
    model: ModelDescriptor, pairs: "int | Callable", seed: int, first: int, count: int
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """sample_outcomes for the trials with stream ids first..first+count-1, a CHUNK at a time.

    `pairs` is one PAIR_ORDER index for all trials or pairs(start, size), the
    indices of streams start..start+size-1. Each chunk writes its own rows of
    the int8 arrays, so chunks may finish in any order.
    """
    import numpy as np

    from .streams import map_chunks

    outcomes = np.empty((count, 2), dtype=np.int8)
    hidden = np.empty(count, dtype=np.int8) if model.exposes_hidden_variable() else None

    def sample(buffers: ChunkBuffers, r: int, start: int, size: int, tally: list) -> None:
        rows = slice(start - first, start - first + size)
        u = buffers.words(seed, start, size, model._tables.draws).T
        own = pairs(start, size) if callable(pairs) else pairs
        outcomes[rows], own_hidden = sample_outcomes(model, own, u)
        if hidden is not None:
            hidden[rows] = own_hidden

    map_chunks(sample, [(first, count)])
    return outcomes, hidden


def count_chunk(
    tables: _SamplingTables,
    seed: int,
    buffers: ChunkBuffers,
    pair: int,
    start: int,
    size: int,
    tally: list,
) -> None:
    """Add the coincidence counts of the trials with stream ids start..start+size-1 to `tally`.

    `tables` are a model's sampling tables (ModelDescriptor._tables), `pair`
    indexes PAIR_ORDER and `tally` holds the plain-int counters (n_pp,
    n_pm, n_mp, n_mm). They tally the outcomes that sample_outcomes gives
    these trials, as a ledger records them, without a per-trial array: CDF
    kinds count the pair's words through its CountingPlan; nonlocal counts
    the left outcome and, on each side of it, the right outcome's
    condition. Every mask is one of `buffers`' work rows, so a chunk
    allocates nothing past its buffers.
    """
    import numpy as np

    from .streams import count_words

    if tables.conditionals is None:
        count_words(tables.plans, seed, buffers, pair, start, size, tally)
        return
    p_left_plus, c_plus, c_minus = tables.conditionals[pair].tolist()
    u = buffers.words(seed, start, size, tables.draws)
    left, right = buffers.work_rows(2, size)
    np.less(u[0], p_left_plus, out=left)
    n_left_plus = int(np.count_nonzero(left))
    np.less(u[1], c_plus, out=right)
    n_pp = int(np.count_nonzero(np.logical_and(left, right, out=right)))
    np.less(u[1], c_minus, out=right)
    n_mp = int(np.count_nonzero(np.greater(right, left, out=right)))  # right and not left
    tally[0] += n_pp
    tally[1] += n_left_plus - n_pp
    tally[2] += n_mp
    tally[3] += size - n_left_plus - n_mp


def generate_outcomes(
    model: ModelDescriptor,
    settings: SettingPair,
    seed: int,
    stream_start: int,
    count: int,
    threads: int = 1,
) -> np.ndarray:
    """Outcomes for trials with stream ids stream_start..stream_start+count-1.

    The result depends only on (model, settings, seed, stream ids); it is
    built one CHUNK at a time, and `threads` is accepted and has no effect.
    """
    pair = _pair_index(settings)  # validates the pair even when count is 0
    if count < 0:
        raise ValueError("count must be non-negative")
    return _sample_range(model, pair, seed, stream_start, count)[0]
