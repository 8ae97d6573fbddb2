"""Maximize |S| over the four measurement angles for a fixed state.

For settings in the x-z plane E(ta, tb) = c(ta) @ M @ c(tb) with the 2x2
correlation matrix M of the state, so the maximum of |S| over [0, pi)^4 is
2 * ||M||_F = 2 * sqrt(s1^2 + s2^2) (the Horodecki criterion restricted to
the plane). With an orthonormal frame (u, v), S reaches it at
a = angle(Mu), a' = angle(Mv), b, b' = angle(cos(th) u +- sin(th) v) with
th = atan2(|Mv|, |Mu|). Folding an angle into [0, pi) flips the sign of its
direction, so eight axis-aligned frames are tried and the first with the
largest |S| at the folded angles is kept; between them they cover every
sign pattern.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

from ._record import record
from .config import echoed
from .quantum import TwoQubitState, correlation_matrix
from .stats import (
    DEFAULT_SIGN_PATTERN,
    PAIR_ORDER,
    SETTING_LABELS,
    bilinear_chsh_s,
    validate_sign_pattern,
)

Vector2 = tuple[float, float]

# Candidate frames: u = c(alpha) for alpha in {0, pi/2, pi, 3pi/2}, v = +-c(alpha + pi/2).
_FRAMES: tuple[tuple[Vector2, Vector2], ...] = tuple(
    ((math.cos(alpha), math.sin(alpha)), (-flip * math.sin(alpha), flip * math.cos(alpha)))
    for alpha in (k * (math.pi / 2.0) for k in range(4))
    for flip in (1.0, -1.0)
)


@record
class OptimizationResult:
    angles: tuple[float, float, float, float]
    s_value: float
    sign_pattern: tuple[int, ...]


def _folded_angle(vector: Vector2) -> float:
    """Direction angle of the vector folded into [0, pi); a fold that rounds to pi is 0."""
    folded = math.atan2(vector[1], vector[0]) % math.pi
    return folded if folded < math.pi else 0.0


def _times(matrix: Sequence[Sequence[float]], vector: Vector2) -> Vector2:
    """The matrix-vector product M @ v."""
    return tuple(row[0] * vector[0] + row[1] * vector[1] for row in matrix)


def optimize_angles(
    state: TwoQubitState, sign_pattern: Iterable[int] = DEFAULT_SIGN_PATTERN
) -> OptimizationResult:
    """Angles in [0, pi) reaching the largest |S| of the state, 2 * ||M||_F."""
    pattern = validate_sign_pattern(sign_pattern)
    matrix = correlation_matrix(state)
    best_angles, best_value = None, 0.0
    for u, v in _FRAMES:
        left, left_prime = _times(matrix, u), _times(matrix, v)
        theta = math.atan2(math.hypot(*left_prime), math.hypot(*left))
        c, s = math.cos(theta), math.sin(theta)
        right = (c * u[0] + s * v[0], c * u[1] + s * v[1])
        right_prime = (c * u[0] - s * v[0], c * u[1] - s * v[1])
        angles = tuple(_folded_angle(w) for w in (left, left_prime, right, right_prime))
        value = bilinear_chsh_s(matrix, angles, pattern)
        if best_angles is None or abs(value) > abs(best_value):
            best_angles, best_value = angles, value
    return OptimizationResult(angles=best_angles, s_value=best_value, sign_pattern=pattern)


@record
class LandscapeGrid:
    """S on a 2-D angle slice; rows sweep row_label and columns col_label over the same angles."""

    row_label: str
    col_label: str
    angles: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    fixed: Mapping[str, float]
    sign_pattern: tuple[int, ...]

    def csv_rows(self) -> Iterator[list[str]]:
        """The grid as CSV rows of reprs: a header of column angles, then one row per row angle."""
        yield [f"{self.row_label}\\{self.col_label}", *map(repr, self.angles)]
        for angle, row in zip(self.angles, self.values):
            yield [repr(angle), *map(repr, row)]


# At 2048 the grid's floats take about 130 MB and its CSV text about 83 MB.
MAX_RESOLUTION = 2048


def _linear_in(
    matrix: Sequence[Sequence[float]],
    label: str,
    directions: Mapping[str, Vector2],
    sign_pattern: tuple[int, ...],
) -> tuple[float, float, float]:
    """(q0, q1, k) with S = q0 cos(t) + q1 sin(t) + k when `label` is at angle t.

    The other three labels point along `directions`. S is linear in each
    direction: the terms of `label` give q, the one term without it gives k.
    """
    transpose = tuple(zip(*matrix))
    q0 = q1 = k = 0.0
    for sign, (x, y) in zip(sign_pattern, PAIR_ORDER):
        if label in (x, y):
            # E = c(t) @ (M @ d_y) with `label` on the left, c(t) @ (M.T @ d_x) on the right.
            if x == label:
                w0, w1 = _times(matrix, directions[y])
            else:
                w0, w1 = _times(transpose, directions[x])
            q0 += sign * w0
            q1 += sign * w1
        else:
            (cx, sx), (w0, w1) = directions[x], _times(matrix, directions[y])
            k += sign * (cx * w0 + sx * w1)
    return q0, q1, k


def s_landscape(
    state: TwoQubitState,
    fixed: Mapping[str, float],
    resolution: int,
    sign_pattern: Iterable[int] = DEFAULT_SIGN_PATTERN,
) -> LandscapeGrid:
    """Sweep the two non-fixed angles over [0, pi) on a uniform grid.

    cos and sin are taken once per grid angle. Each row fixes the row angle,
    which leaves S linear in the column direction, S = q0 cos + q1 sin + k,
    so a cell costs two products and two sums.
    """
    pattern = validate_sign_pattern(sign_pattern)
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in 2..{MAX_RESOLUTION}, got {echoed(resolution)}")
    unknown = set(fixed) - set(SETTING_LABELS)
    if unknown:
        raise ValueError(f"unknown angle labels {echoed(sorted(unknown))}")
    if len(fixed) != 2:
        raise ValueError("exactly two angles must be fixed")
    if not all(math.isfinite(float(value)) for value in fixed.values()):
        raise ValueError(f"fixed angles must be finite, got {echoed(dict(fixed))}")
    row_label, col_label = (label for label in SETTING_LABELS if label not in fixed)
    matrix = correlation_matrix(state)
    thetas = tuple(math.pi * i / resolution for i in range(resolution))
    grid_directions = [(math.cos(t), math.sin(t)) for t in thetas]
    directions = {label: (math.cos(float(t)), math.sin(float(t))) for label, t in fixed.items()}
    values = []
    for row_direction in grid_directions:
        directions[row_label] = row_direction
        q0, q1, k = _linear_in(matrix, col_label, directions, pattern)
        values.append(tuple([q0 * c + q1 * s + k for c, s in grid_directions]))
    return LandscapeGrid(row_label, col_label, thetas, tuple(values), dict(fixed), pattern)
