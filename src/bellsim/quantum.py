"""Exact two-qubit spin mechanics: states, expectations, Born probabilities.

Measurement directions live in the x-z plane, so a setting is one angle
measured from the +z axis. The joint basis ordering is (uu, ud, du, dd)
throughout, where u/d are spin-up/spin-down along z.

Everything here is plain Python in closed form; numpy loads only when a
distribution is converted with `JointOutcomeDistribution.as_array`.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, Mapping

from ._record import record

if TYPE_CHECKING:
    import numpy as np

# Fixed outcome ordering used by sampling and by every serialized artifact.
OUTCOME_ORDER: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def sum_in_order(values):
    """The values added left to right from int 0, as builtin sum does up to Python 3.11.

    Python 3.12 compensates builtin sum over floats, which changes the last bit
    of some results; artifact bytes go through this fold instead, so they are
    the same on every supported Python.
    """
    total = 0
    for value in values:
        total = total + value
    return total


def outcome_index(left, right):
    """Position of the outcome pair (left, right) in OUTCOME_ORDER, for ints or int arrays."""
    return (1 - left) + (1 - right) // 2


_S = 1.0 / math.sqrt(2.0)
# Amplitudes over (uu, ud, du, dd): the four maximally entangled states, then
# the separable basis states.
_NAMED_STATES: dict[str, tuple[float, float, float, float]] = {
    "psi_plus": (0.0, _S, _S, 0.0),  # (ud + du)/sqrt(2)
    "psi_minus": (0.0, _S, -_S, 0.0),  # (ud - du)/sqrt(2)
    "phi_plus": (_S, 0.0, 0.0, _S),  # (uu + dd)/sqrt(2)
    "phi_minus": (_S, 0.0, 0.0, -_S),  # (uu - dd)/sqrt(2)
    "up_up": (1.0, 0.0, 0.0, 0.0),
    "up_down": (0.0, 1.0, 0.0, 0.0),
    "down_up": (0.0, 0.0, 1.0, 0.0),
    "down_down": (0.0, 0.0, 0.0, 1.0),
}
STATE_KINDS = tuple(_NAMED_STATES)


def _cos_sin(angle: float, scale: float = 1.0) -> tuple[float, float]:
    """cos and sin of `scale` times the angle, first reduced to [0, 2*pi)."""
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"measurement angle must be finite, got {angle!r}")
    t = angle % (2.0 * math.pi) * scale
    return math.cos(t), math.sin(t)


@record(eq=False)
class TwoQubitState:
    """Four complex amplitudes over the (uu, ud, du, dd) product basis."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError(f"a two-qubit state has 4 amplitudes, got {len(amps)}")
        if not all(cmath.isfinite(a) for a in amps):
            raise ValueError("state amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_error(self) -> float:
        """Absolute deviation of the squared norm from 1."""
        return abs(_squared_norm(self.amplitudes) - 1.0)


def _squared_norm(amplitudes: tuple[complex, ...]) -> float:
    return sum_in_order(a.real * a.real + a.imag * a.imag for a in amplitudes)


@record
class JointOutcomeDistribution:
    """Probabilities of the four (+-1, +-1) outcome pairs."""

    probabilities: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        probs = {}
        for outcome in OUTCOME_ORDER:
            p = float(self.probabilities[outcome])
            if p < -1e-15:
                raise ValueError(f"probability of {outcome} is {p}, below -1e-15")
            probs[outcome] = max(p, 0.0)
        total = sum_in_order(probs.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "probabilities", probs)

    def as_array(self) -> np.ndarray:
        """Probabilities in OUTCOME_ORDER."""
        import numpy as np

        return np.array([self.probabilities[o] for o in OUTCOME_ORDER])


def make_named_state(kind: str) -> TwoQubitState:
    """Resolve a state by name: the Bell kinds plus the separable basis kinds."""
    if not isinstance(kind, str) or kind not in _NAMED_STATES:
        from .config import echoed

        raise ValueError(f"unknown state kind {echoed(kind)}; expected one of {STATE_KINDS}")
    return TwoQubitState(_NAMED_STATES[kind])


def _require_normalized(state: TwoQubitState) -> None:
    if state.norm_error > 1e-9:
        raise ValueError(f"state is not normalized (norm error {state.norm_error:.3e})")


def expectation(state: TwoQubitState, left: float, right: float) -> float:
    """<psi| A(left) x B(right) |psi>, where A(t) = B(t) = cos(t)*sz + sin(t)*sx.

    With the amplitudes as the 2x2 matrix psi[i][j] (i left, j right), the
    value is the sum of conj(psi[i][j]) * (A @ psi @ B.T)[i][j]; the 4x4
    product operator is never built.
    """
    _require_normalized(state)
    (ca, sa), (cb, sb) = _cos_sin(left), _cos_sin(right)
    a, b = ((ca, sa), (sa, -ca)), ((cb, sb), (sb, -cb))
    psi = (state.amplitudes[:2], state.amplitudes[2:])
    value = sum_in_order(
        psi[i][j].conjugate()
        * sum_in_order(a[i][k] * psi[k][l] * b[j][l] for k in range(2) for l in range(2))
        for i in range(2)
        for j in range(2)
    )
    return value.real


def correlation_matrix(state: TwoQubitState) -> tuple[tuple[float, float], tuple[float, float]]:
    """Real 2x2 M with E(ta, tb) = c(ta) @ M @ c(tb), where c(t) = (cos t, sin t).

    Observables are linear in (cos t, sin t), so the expectation is a
    bilinear form; M[i][j] = <psi| P_i x P_j |psi> over P = (sz, sx). In
    the amplitudes (uu, ud, du, dd) = (p0, p1, p2, p3) these are
    zz = |p0|^2 - |p1|^2 - |p2|^2 + |p3|^2, zx = 2 Re(p0* p1 - p2* p3),
    xz = 2 Re(p0* p2 - p1* p3) and xx = 2 Re(p0* p3 + p1* p2).
    """
    _require_normalized(state)
    p0, p1, p2, p3 = state.amplitudes
    zz = abs(p0) ** 2 - abs(p1) ** 2 - abs(p2) ** 2 + abs(p3) ** 2
    zx = 2.0 * (p0.conjugate() * p1 - p2.conjugate() * p3).real
    xz = 2.0 * (p0.conjugate() * p2 - p1.conjugate() * p3).real
    xx = 2.0 * (p0.conjugate() * p3 + p1.conjugate() * p2).real
    return ((zz, zx), (xz, xx))


def joint_probabilities(
    state: TwoQubitState, left: float, right: float
) -> JointOutcomeDistribution:
    """Born probabilities of the four outcome pairs under projective measurement.

    The spin component at angle t has the eigenvectors (cos t/2, sin t/2)
    for +1 and (-sin t/2, cos t/2) for -1, so an outcome pair's amplitude is
    sum_ij u_i psi[i][j] v_j over the two half-angle vectors u and v.
    """
    _require_normalized(state)
    (cl, sl), (cr, sr) = _cos_sin(left, 0.5), _cos_sin(right, 0.5)
    vl, vr = {1: (cl, sl), -1: (-sl, cl)}, {1: (cr, sr), -1: (-sr, cr)}
    p00, p01, p10, p11 = state.amplitudes
    return JointOutcomeDistribution({
        (ol, orr): abs(u0 * (p00 * v0 + p01 * v1) + u1 * (p10 * v0 + p11 * v1)) ** 2
        for ol, (u0, u1) in vl.items()
        for orr, (v0, v1) in vr.items()
    })
