"""Coincidence counting and the CHSH statistic.

The correlation estimator is (N++ + N-- - N+- - N-+) / N with the Wald
standard error sqrt((1 - E^2)/N). The S statistic is a signed sum of the
four correlations; the sign pattern (one minus among four terms) is an
explicit parameter because the literature uses several equivalent
placements of the minus sign.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ._record import record
from .quantum import TwoQubitState, correlation_matrix, outcome_index, sum_in_order

if TYPE_CHECKING:
    import numpy as np

SQRT2 = math.sqrt(2.0)
TSIRELSON_BOUND = 2.0 * SQRT2
LOCAL_BOUND = 2.0
ALGEBRAIC_BOUND = 4.0

SettingPair = tuple[str, str]

# The four setting labels, the left side's two then the right side's: the order of angles.
SETTING_LABELS = ("a", "a'", "b", "b'")

# The 16 deterministic strategies as the signs they answer at SETTING_LABELS, in index order:
# the index's bits, high to low, are a, a', b, b', 1 meaning -1. LHV models mix them.
STRATEGIES: tuple[tuple[int, int, int, int], ...] = tuple(itertools.product((1, -1), repeat=4))

# Canonical ordering of the four setting pairs; sign patterns index into it.
PAIR_ORDER: tuple[SettingPair, ...] = (("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'"))

# The four valid sign patterns: exactly one -1. Default matches S =
# E(a,b) - E(a,b') + E(a',b) + E(a',b').
SIGN_PATTERNS: tuple[tuple[int, ...], ...] = (
    (-1, 1, 1, 1),
    (1, -1, 1, 1),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
)
DEFAULT_SIGN_PATTERN: tuple[int, ...] = (1, -1, 1, 1)


def validate_sign_pattern(sign_pattern: Iterable[int]) -> tuple[int, ...]:
    """Return the pattern as a tuple, rejecting anything but one -1 among +-1s."""
    pattern = tuple(int(s) for s in sign_pattern)
    if len(pattern) != 4 or any(s not in (-1, 1) for s in pattern):
        raise ValueError(f"sign pattern must be four values in {{-1,+1}}, got {pattern}")
    if pattern.count(-1) != 1:
        raise ValueError(f"sign pattern must contain exactly one -1, got {pattern}")
    return pattern


@record
class CoincidenceCounts:
    """The four coincidence counters for one setting pair."""

    n_pp: int = 0
    n_pm: int = 0
    n_mp: int = 0
    n_mm: int = 0

    def __post_init__(self) -> None:
        for name in ("n_pp", "n_pm", "n_mp", "n_mm"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def __add__(self, other: "CoincidenceCounts") -> "CoincidenceCounts":
        """Pairwise counter addition; associative and commutative."""
        if not isinstance(other, CoincidenceCounts):
            return NotImplemented
        return CoincidenceCounts(
            self.n_pp + other.n_pp,
            self.n_pm + other.n_pm,
            self.n_mp + other.n_mp,
            self.n_mm + other.n_mm,
        )


def counts_from_outcomes(outcomes: np.ndarray) -> CoincidenceCounts:
    """Tally an (N, 2) array of +-1 outcome pairs in one pass."""
    import numpy as np

    arr = np.asarray(outcomes)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) outcome array, got shape {arr.shape}")
    bad = np.abs(arr) != 1
    if bad.any():
        raise ValueError(f"outcomes must be +1 or -1, got {arr[bad][0].item()!r}")
    tally = np.bincount(outcome_index(arr[:, 0], arr[:, 1]), minlength=4)
    return CoincidenceCounts(int(tally[0]), int(tally[1]), int(tally[2]), int(tally[3]))


@record
class CorrelationEstimate:
    """Estimated correlation with its Wald standard error, and the counts it was estimated from."""

    value: float
    std_error: float
    counts: CoincidenceCounts

    def __post_init__(self) -> None:
        if abs(self.value) > 1.0:
            raise ValueError(f"correlation value {self.value} outside [-1, 1]")
        if not 0.0 <= self.std_error <= 1.0:
            raise ValueError(f"std_error {self.std_error} outside [0, 1]")


def correlation(counts: CoincidenceCounts) -> CorrelationEstimate:
    """Correlation (N++ + N-- - N+- - N-+) / total with Wald standard error."""
    total = counts.total
    if total == 0:
        raise ValueError("cannot estimate a correlation from zero counts")
    value = (counts.n_pp + counts.n_mm - counts.n_pm - counts.n_mp) / total
    std_error = math.sqrt(max(0.0, 1.0 - value * value) / total)
    return CorrelationEstimate(value=value, std_error=std_error, counts=counts)


@record
class ChshResult:
    """Four correlations, in PAIR_ORDER, combined into S, with uncertainty and bound class."""

    correlations: Mapping[SettingPair, CorrelationEstimate]
    s_value: float
    s_std_error: float
    sign_pattern: tuple[int, ...]
    bound_class: str

    def __post_init__(self) -> None:
        if abs(self.s_value) > ALGEBRAIC_BOUND + 4.0 * self.s_std_error:
            raise ValueError(
                f"|S| = {abs(self.s_value)} exceeds 4 + 4*std_error; estimator is broken"
            )


def classify_bound(abs_s: float, s_std_error: float) -> str:
    """Classify |S| against 2 and 2*sqrt(2) with a 3-sigma guard band."""
    guard = 3.0 * s_std_error
    if abs_s <= LOCAL_BOUND + guard:
        return "local"
    if abs_s <= TSIRELSON_BOUND + guard:
        return "quantum"
    return "algebraic"


def chsh_s(
    correlations: Mapping[SettingPair, CorrelationEstimate],
    sign_pattern: Iterable[int] = DEFAULT_SIGN_PATTERN,
) -> ChshResult:
    """Signed sum of the four correlations, errors combined in quadrature."""
    pattern = validate_sign_pattern(sign_pattern)
    missing = [pair for pair in PAIR_ORDER if pair not in correlations]
    if missing:
        raise ValueError(f"missing correlation estimates for setting pairs {missing}")
    s_value = sum_in_order(
        sign * correlations[pair].value for sign, pair in zip(pattern, PAIR_ORDER)
    )
    s_std_error = math.sqrt(sum_in_order(correlations[pair].std_error ** 2 for pair in PAIR_ORDER))
    ordered = {pair: correlations[pair] for pair in PAIR_ORDER}
    bound_class = classify_bound(abs(s_value), s_std_error)
    return ChshResult(ordered, s_value, s_std_error, pattern, bound_class)


def bilinear_chsh_s(
    matrix: Sequence[Sequence[float]], angles: Sequence[float], sign_pattern: tuple[int, ...]
) -> float:
    """S at angles (a, a', b, b') from a 2x2 correlation matrix M, E = c(ta) @ M @ c(tb).

    `sign_pattern` must already be validated.
    """
    (m00, m01), (m10, m11) = matrix
    directions = {label: (math.cos(t), math.sin(t)) for label, t in zip(SETTING_LABELS, angles)}
    total = 0.0
    for sign, (x, y) in zip(sign_pattern, PAIR_ORDER):
        (cx, sx), (cy, sy) = directions[x], directions[y]
        total += sign * ((cx * m00 + sx * m10) * cy + (cx * m01 + sx * m11) * sy)
    return total


def exact_chsh_s(
    state: TwoQubitState,
    angles: Iterable[float],
    sign_pattern: Iterable[int] = DEFAULT_SIGN_PATTERN,
) -> float:
    """S from exact expectation values at angles (a, a', b, b')."""
    pattern = validate_sign_pattern(sign_pattern)
    theta = tuple(float(t) for t in angles)
    if len(theta) != 4:
        raise ValueError(f"expected four angles (a, a', b, b'), got {len(theta)}")
    if not all(math.isfinite(t) for t in theta):
        raise ValueError(f"angles must be finite, got {theta}")
    return bilinear_chsh_s(correlation_matrix(state), theta, pattern)
