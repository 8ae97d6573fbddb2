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

import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .quantum import TwoQubitState, correlation_matrix
from .stats import DEFAULT_SIGN_PATTERN, bilinear_chsh_s, validate_sign_pattern

_ANGLE_LABELS = ("a", "a'", "b", "b'")

# Candidate frames: u = c(alpha) for alpha in {0, pi/2, pi, 3pi/2}, v = +-c(alpha + pi/2).
_ALPHAS = np.repeat(np.arange(4) * (np.pi / 2.0), 2)
_FRAME_U = np.column_stack([np.cos(_ALPHAS), np.sin(_ALPHAS)])
_FRAME_V = np.array([[1.0], [-1.0]] * 4) * np.column_stack([-np.sin(_ALPHAS), np.cos(_ALPHAS)])


@dataclass(frozen=True)
class OptimizationResult:
    angles: tuple[float, float, float, float]
    s_value: float
    sign_pattern: tuple[int, ...]


def _folded_angle(vectors: np.ndarray) -> np.ndarray:
    """Direction angles of the rows folded into [0, pi); a fold that rounds to pi is 0."""
    folded = np.mod(np.arctan2(vectors[:, 1], vectors[:, 0]), np.pi)
    return np.where(folded < np.pi, folded, 0.0)


def optimize_angles(
    state: TwoQubitState, sign_pattern: Iterable[int] = DEFAULT_SIGN_PATTERN
) -> OptimizationResult:
    """Angles in [0, pi) reaching the largest |S| of the state, 2 * ||M||_F."""
    pattern = validate_sign_pattern(sign_pattern)
    matrix = correlation_matrix(state)
    left, left_prime = _FRAME_U @ matrix.T, _FRAME_V @ matrix.T
    theta = np.arctan2(np.linalg.norm(left_prime, axis=1), np.linalg.norm(left, axis=1))
    cos_u = np.cos(theta)[:, None] * _FRAME_U
    sin_v = np.sin(theta)[:, None] * _FRAME_V
    candidates = [_folded_angle(w) for w in (left, left_prime, cos_u + sin_v, cos_u - sin_v)]
    values = bilinear_chsh_s(matrix, candidates, pattern)
    best = int(np.argmax(np.abs(values)))
    return OptimizationResult(
        angles=tuple(float(angle[best]) for angle in candidates),
        s_value=float(values[best]),
        sign_pattern=pattern,
    )


@dataclass(frozen=True)
class LandscapeGrid:
    """S on a 2-D angle slice; rows sweep row_label, columns sweep col_label."""

    row_label: str
    col_label: str
    row_angles: np.ndarray
    col_angles: np.ndarray
    values: np.ndarray
    fixed: Mapping[str, float]
    sign_pattern: tuple[int, ...]

    def to_csv(self) -> str:
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        corner = f"{self.row_label}\\{self.col_label}"
        writer.writerow([corner] + [repr(float(t)) for t in self.col_angles])
        for angle, row in zip(self.row_angles, self.values):
            writer.writerow([repr(float(angle))] + [repr(float(v)) for v in row])
        return buffer.getvalue()


# Each float64 temporary of the grid takes 8 * resolution**2 bytes: 32 MiB here.
MAX_RESOLUTION = 2048


def s_landscape(
    state: TwoQubitState,
    fixed: Mapping[str, float],
    resolution: int,
    sign_pattern: Iterable[int] = DEFAULT_SIGN_PATTERN,
) -> LandscapeGrid:
    """Sweep the two non-fixed angles over [0, pi) on a uniform grid."""
    pattern = validate_sign_pattern(sign_pattern)
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in 2..{MAX_RESOLUTION}, got {resolution}")
    unknown = set(fixed) - set(_ANGLE_LABELS)
    if unknown:
        raise ValueError(f"unknown angle labels {sorted(unknown)}")
    if len(fixed) != 2:
        raise ValueError("exactly two angles must be fixed")
    if not all(math.isfinite(float(value)) for value in fixed.values()):
        raise ValueError(f"fixed angles must be finite, got {dict(fixed)}")
    swept = [label for label in _ANGLE_LABELS if label not in fixed]
    row_label, col_label = swept
    thetas = np.pi * np.arange(resolution) / resolution
    swept_angles = {row_label: thetas[:, None], col_label: thetas[None, :]}
    angles = [
        swept_angles[label] if label in swept_angles else float(fixed[label])
        for label in _ANGLE_LABELS
    ]
    values = bilinear_chsh_s(correlation_matrix(state), angles, pattern)
    return LandscapeGrid(
        row_label=row_label,
        col_label=col_label,
        row_angles=thetas,
        col_angles=thetas,
        values=values,
        fixed=dict(fixed),
        sign_pattern=pattern,
    )
