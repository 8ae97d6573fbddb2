"""The local correlation polytope for two settings per side.

The 16 deterministic strategies (one +-1 response per setting label) span
the polytope of correlation vectors reachable by any setting-independent
hidden-variable mixture. It is the 16-cell: 8 even-parity +-1 vertices,
each shared by a strategy and its global flip, and 16 simplex facets. The
nontrivial ones are the eight inequalities |sum_i p_i E_i| <= 2 over the
four one-minus sign patterns, so membership is decided by checking those
facets directly; component bounds |E| <= 1 are enforced by the
CorrelationVector type itself. Witness weights come from the same geometry
in closed form (Fine, PRL 48, 291 (1982)). Strategies and correlation
vectors are plain Python; numpy loads when a membership test, a witness
or the vertex matrix is first computed.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Optional

from ._record import record
from .models import STRATEGIES
from .stats import PAIR_ORDER, SIGN_PATTERNS

if TYPE_CHECKING:
    import numpy as np

_COMPONENT_SLACK = 1e-12


@record
class CorrelationVector:
    """The four correlations (E(a,b), E(a,b'), E(a',b), E(a',b'))."""

    e_ab: float
    e_abp: float
    e_apb: float
    e_apbp: float

    def __post_init__(self) -> None:
        for name, value in zip(PAIR_ORDER, self.as_tuple()):
            if not math.isfinite(value) or abs(value) > 1.0 + _COMPONENT_SLACK:
                raise ValueError(f"correlation E{name} = {value!r} outside [-1, 1]")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.e_ab, self.e_abp, self.e_apb, self.e_apbp)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.as_tuple())


@record
class ViolatedFacet:
    """The sign pattern whose facet a vector violates, and by how much."""

    sign_pattern: tuple[int, ...]
    margin: float


@record
class FeasibilityVerdict:
    """Membership verdict with exactly one witness: weights or a violated facet."""

    feasible: bool
    weights: Optional[np.ndarray] = None
    violated_facet: Optional[ViolatedFacet] = None

    def __post_init__(self) -> None:
        if self.feasible and (self.weights is None or self.violated_facet is not None):
            raise ValueError("feasible verdict requires weights and no violated facet")
        if not self.feasible and (self.weights is not None or self.violated_facet is None):
            raise ValueError("infeasible verdict requires a violated facet and no weights")


def enumerate_deterministic_strategies() -> tuple[tuple[int, int, int, int], ...]:
    """All 16 assignments of +-1 to the labels (a, a', b, b'), in index order."""
    return STRATEGIES


def strategy_correlation(strategy: tuple[int, int, int, int]) -> CorrelationVector:
    """Correlations of one deterministic strategy (a, a', b, b'): products of its signs."""
    a, a_prime, b, b_prime = strategy
    return CorrelationVector(a * b, a * b_prime, a_prime * b, a_prime * b_prime)


def vertex_matrix() -> np.ndarray:
    """16x4 matrix of deterministic-strategy correlation vectors, in index order."""
    import numpy as np

    rows = [strategy_correlation(s).as_tuple() for s in enumerate_deterministic_strategies()]
    return np.array(rows, dtype=float)


def facet_margin(vector: CorrelationVector) -> tuple[float, tuple[int, ...]]:
    """Largest |signed sum| - 2 over the four facet patterns, with the achiever."""
    import numpy as np

    e = vector.as_array()
    margins = [abs(float(e @ np.array(pattern, dtype=float))) - 2.0 for pattern in SIGN_PATTERNS]
    best = margins.index(max(margins))  # the first pattern with the largest margin
    return margins[best], SIGN_PATTERNS[best]


@functools.cache
def _witness_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """(facet normals, vertices, vertex strategies, facet strategies), built once.

    The 16 facets as normals f with f.x <= 1: the CHSH facets p.x <= 2 for
    the eight odd-parity p, then +-x_i <= 1. The lower-index strategy of
    each distinct vertex carries that vertex's weight, and each facet is a
    simplex on 4 vertices, named by their carrying strategies.
    """
    import numpy as np

    normals = np.vstack(
        [np.array(SIGN_PATTERNS) / 2.0, -np.array(SIGN_PATTERNS) / 2.0, np.eye(4), -np.eye(4)]
    )
    vertices = vertex_matrix()
    carriers = np.sort(np.unique(vertices, axis=0, return_index=True)[1])
    facets = [carriers[vertices[carriers] @ normal == 1.0] for normal in normals]
    return normals, vertices, carriers, facets


def _witness_weights(target: np.ndarray) -> np.ndarray:
    """Convex weights over the 16 strategies whose mixture gives `target`.

    With t the largest facet functional, target / t lies on that facet and
    target = t * (target / t) + (1 - t) * 0, where 0 is the centroid of the
    8 vertices. A facet's 4 vertices are mutually orthogonal with squared
    norm 4, so the 4x4 solve for the barycentric weights of target / t is
    vertices @ target / (4 t). A target outside by at most a facet
    tolerance (t > 1) is mapped onto the facet.
    """
    import numpy as np

    normals, vertices, carriers, facets = _witness_tables()
    corners = facets[int(np.argmax(normals @ target))]
    # t * (barycentric weights); they sum to t, up to rounding.
    share = np.maximum(vertices[corners] @ target / 4.0, 0.0)
    share /= max(share.sum(), 1.0)
    weights = np.zeros(16)
    weights[carriers] = max(1.0 - share.sum(), 0.0) / 8.0
    weights[corners] += share
    return weights


def local_membership(
    vector: CorrelationVector, facet_tolerance: float = 1e-9
) -> FeasibilityVerdict:
    """Decide hull membership by the facet inequalities.

    `facet_tolerance` is the slack allowed on facet margins; pass a
    statistical margin (for example 5 sigma of S) when testing empirical
    correlation vectors.
    """
    if facet_tolerance < 0.0:
        raise ValueError("facet_tolerance must be non-negative")
    margin, pattern = facet_margin(vector)
    if margin <= facet_tolerance:
        weights = _witness_weights(vector.as_array())
        return FeasibilityVerdict(feasible=True, weights=weights)
    return FeasibilityVerdict(feasible=False, violated_facet=ViolatedFacet(pattern, margin))
