"""The local correlation polytope for two settings per side.

The 16 deterministic strategies (one +-1 response per setting label) span
the polytope of correlation vectors reachable by any setting-independent
hidden-variable mixture. It is the 16-cell: 8 even-parity +-1 vertices,
each shared by a strategy and its global flip, and 16 simplex facets. The
nontrivial ones are the eight inequalities |sum_i p_i E_i| <= 2 over the
four one-minus sign patterns, so membership is decided by checking those
facets directly; component bounds |E| <= 1 are enforced by the
CorrelationVector type itself. Witness weights come from the same geometry
in closed form (Fine, PRL 48, 291 (1982)). Everything here is plain Python.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from ._record import record
from .quantum import sum_in_order
from .stats import PAIR_ORDER, SIGN_PATTERNS, STRATEGIES

_COMPONENT_SLACK = 1e-12

# Correlations (E(a,b), E(a,b'), E(a',b), E(a',b')) of each deterministic strategy
# (a, a', b, b'), in STRATEGIES order: products of its signs.
VERTICES: tuple[tuple[int, int, int, int], ...] = tuple(
    (a * b, a * b_prime, a_prime * b, a_prime * b_prime)
    for a, a_prime, b, b_prime in STRATEGIES
)


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


@record
class ViolatedFacet:
    """The sign pattern whose facet a vector violates, and by how much."""

    sign_pattern: tuple[int, ...]
    margin: float


@record
class FeasibilityVerdict:
    """Membership verdict with exactly one witness: 16 weights or a violated facet."""

    feasible: bool
    weights: Optional[tuple[float, ...]] = None
    violated_facet: Optional[ViolatedFacet] = None

    def __post_init__(self) -> None:
        if self.feasible and (self.weights is None or self.violated_facet is not None):
            raise ValueError("feasible verdict requires weights and no violated facet")
        if not self.feasible and (self.weights is not None or self.violated_facet is None):
            raise ValueError("infeasible verdict requires a violated facet and no weights")


# Witness bytes are pinned, so every sum below adds in one fixed order: the order of
# OpenBLAS's SkylakeX kernel, numpy's default on an AVX-512 Xeon, in which the pinned
# weights were computed. Left to numpy, the order would follow the kernel OpenBLAS
# picks for the CPU. A product of a facet normal or a vertex with the target adds two
# pairs of terms, then the pair sums; every other sum of four adds in sequence, through
# sum_in_order. That fold starts from int 0, which turns a leading -0.0 into 0.0; each
# such sum here is passed through abs or max, so the sign of a zero never shows.
def _dot(x: tuple[float, ...], y: tuple[float, ...]) -> float:
    return (x[0] * y[0] + x[2] * y[2]) + (x[1] * y[1] + x[3] * y[3])


def facet_margin(vector: CorrelationVector) -> tuple[float, tuple[int, ...]]:
    """Largest |signed sum| - 2 over the four facet patterns, with the achiever."""
    e = vector.as_tuple()
    margins = [abs(sum_in_order([s * x for s, x in zip(p, e)])) - 2.0 for p in SIGN_PATTERNS]
    best = margins.index(max(margins))  # the first pattern with the largest margin
    return margins[best], SIGN_PATTERNS[best]


@functools.cache
def _witness_tables() -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """(vertex strategies, facets as (normal, facet strategies)), built once.

    The 16 facets as normals f with f.x <= 1: the CHSH facets p.x <= 2 for
    the eight odd-parity p, then +-x_i <= 1. The lower-index strategy of
    each distinct vertex carries that vertex's weight, and each facet is a
    simplex on 4 vertices, named by their carrying strategies.
    """
    normals = [tuple(s * p / 2.0 for p in pattern) for s in (1, -1) for pattern in SIGN_PATTERNS]
    normals += [tuple(s * float(i == j) for j in range(4)) for s in (1, -1) for i in range(4)]
    carriers = tuple(i for i, vertex in enumerate(VERTICES) if VERTICES.index(vertex) == i)
    facets = tuple((f, tuple(c for c in carriers if _dot(VERTICES[c], f) == 1.0)) for f in normals)
    return carriers, facets


def _witness_weights(target: tuple[float, ...]) -> tuple[float, ...]:
    """Convex weights over the 16 strategies whose mixture gives `target`.

    With t the largest facet functional, target / t lies on that facet and
    target = t * (target / t) + (1 - t) * 0, where 0 is the centroid of the
    8 vertices. A facet's 4 vertices are mutually orthogonal with squared
    norm 4, so the 4x4 solve for the barycentric weights of target / t is
    vertices . target / (4 t). A target outside by at most a facet
    tolerance (t > 1) is mapped onto the facet.
    """
    carriers, facets = _witness_tables()
    functionals = [_dot(normal, target) for normal, _ in facets]
    corners = facets[functionals.index(max(functionals))][1]
    # t * (barycentric weights); they sum to t, up to rounding.
    share = [max(_dot(VERTICES[c], target) / 4.0, 0.0) for c in corners]
    total = max(sum_in_order(share), 1.0)
    share = [s / total for s in share]
    centroid = max(1.0 - sum_in_order(share), 0.0) / 8.0
    weights = [centroid if i in carriers else 0.0 for i in range(16)]
    for c, s in zip(corners, share):
        weights[c] += s
    return tuple(weights)


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
        return FeasibilityVerdict(feasible=True, weights=_witness_weights(vector.as_tuple()))
    return FeasibilityVerdict(feasible=False, violated_facet=ViolatedFacet(pattern, margin))
