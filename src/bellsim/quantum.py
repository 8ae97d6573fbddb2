"""Exact two-qubit spin mechanics: states, observables, Born probabilities.

Measurement directions live in the x-z plane, so a setting is one angle
measured from the +z axis. The joint basis ordering is (uu, ud, du, dd)
throughout, where u/d are spin-up/spin-down along z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

TAU = 2.0 * math.pi

# Fixed outcome ordering used by sampling and by every serialized artifact.
OUTCOME_ORDER: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))

BELL_KINDS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")
PRODUCT_KINDS = ("up_up", "up_down", "down_up", "down_down")

_NORM_TOLERANCE = 1e-9
_CLAMP_FLOOR = -1e-15


def _as_angle(setting: "MeasurementSetting | float") -> float:
    if isinstance(setting, MeasurementSetting):
        return setting.angle
    return MeasurementSetting(float(setting)).angle


@dataclass(frozen=True)
class MeasurementSetting:
    """A spin-measurement direction in the x-z plane, radians from +z."""

    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"measurement angle must be finite, got {self.angle!r}")
        object.__setattr__(self, "angle", self.angle % TAU)


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Four complex amplitudes over the (uu, ud, du, dd) product basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(4).copy()
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("state amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_error(self) -> float:
        """Absolute deviation of the squared norm from 1."""
        return abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0)

    def normalized(self) -> "TwoQubitState":
        norm = math.sqrt(float(np.sum(np.abs(self.amplitudes) ** 2)))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return TwoQubitState(self.amplitudes / norm)


@dataclass(frozen=True, eq=False)
class SpinObservable:
    """2x2 Hermitian observable with spectrum {+1, -1}."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128).reshape(2, 2).copy()
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("observable entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("observable must be Hermitian")
        if abs(np.trace(m)) > 1e-12:
            raise ValueError("observable must be traceless")
        if abs(np.linalg.det(m) + 1.0) > 1e-12:
            raise ValueError("observable must have determinant -1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class JointOutcomeDistribution:
    """Probabilities of the four (+-1, +-1) outcome pairs."""

    probabilities: Mapping[tuple[int, int], float]
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        probs = {}
        for outcome in OUTCOME_ORDER:
            p = float(self.probabilities[outcome])
            if p < _CLAMP_FLOOR:
                raise ValueError(f"probability of {outcome} is {p}, below the clamp floor")
            probs[outcome] = max(p, 0.0)
        total = sum(probs.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        arr = np.array([probs[o] for o in OUTCOME_ORDER])
        arr.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "_array", arr)

    def as_array(self) -> np.ndarray:
        """Probabilities in OUTCOME_ORDER."""
        return self._array

    def signed_expectation(self) -> float:
        """Sum of (left * right) * probability over the four outcomes."""
        return float(sum(o[0] * o[1] * p for o, p in self.probabilities.items()))


def make_bell_state(kind: str) -> TwoQubitState:
    """Return one of the four named maximally entangled states.

    psi_plus  = (ud + du)/sqrt(2)      psi_minus = (ud - du)/sqrt(2)
    phi_plus  = (uu + dd)/sqrt(2)      phi_minus = (uu - dd)/sqrt(2)
    """
    s = 1.0 / math.sqrt(2.0)
    table = {
        "psi_plus": (0.0, s, s, 0.0),
        "psi_minus": (0.0, s, -s, 0.0),
        "phi_plus": (s, 0.0, 0.0, s),
        "phi_minus": (s, 0.0, 0.0, -s),
    }
    if kind not in table:
        raise ValueError(f"unknown Bell state kind {kind!r}; expected one of {BELL_KINDS}")
    return TwoQubitState(np.array(table[kind], dtype=np.complex128))


def make_named_state(kind: str) -> TwoQubitState:
    """Resolve a state by name: the Bell kinds plus the separable basis kinds."""
    if kind in BELL_KINDS:
        return make_bell_state(kind)
    basis = {"up_up": 0, "up_down": 1, "down_up": 2, "down_down": 3}
    if kind in basis:
        amps = np.zeros(4, dtype=np.complex128)
        amps[basis[kind]] = 1.0
        return TwoQubitState(amps)
    raise ValueError(
        f"unknown state kind {kind!r}; expected one of {BELL_KINDS + PRODUCT_KINDS}"
    )


def spin_observable(setting: "MeasurementSetting | float") -> SpinObservable:
    """Spin component along the x-z direction at `setting`: cos(t)*sz + sin(t)*sx."""
    t = _as_angle(setting)
    c, s = math.cos(t), math.sin(t)
    return SpinObservable(np.array([[c, s], [s, -c]], dtype=np.complex128))


def _require_normalized(state: TwoQubitState) -> None:
    if state.norm_error > _NORM_TOLERANCE:
        raise ValueError(f"state is not normalized (norm error {state.norm_error:.3e})")


def expectation(
    state: TwoQubitState,
    left: "MeasurementSetting | float",
    right: "MeasurementSetting | float",
) -> float:
    """<psi| A(left) x B(right) |psi> for the spin observables at the settings.

    Computed by contracting the amplitude matrix with the two 2x2
    observables; never materializes the 4x4 product operator.
    """
    _require_normalized(state)
    a = spin_observable(left).matrix
    b = spin_observable(right).matrix
    psi = state.amplitudes.reshape(2, 2)
    value = complex(np.vdot(psi, a @ psi @ b.T))
    return float(value.real)


# sigma_z and sigma_x: the spin observable at angle t is cos(t) sz + sin(t) sx.
_PLANE_PAULIS = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])


def correlation_matrix(state: TwoQubitState) -> np.ndarray:
    """Real 2x2 M with E(ta, tb) = c(ta) @ M @ c(tb), where c(t) = (cos t, sin t).

    Observables are linear in (cos t, sin t), so the expectation is a
    bilinear form; M[i, j] = <psi| P_i x P_j |psi> over P = (sz, sx).
    """
    _require_normalized(state)
    psi = state.amplitudes.reshape(2, 2)
    return np.real(np.einsum("ij,aik,bjl,kl->ab", psi.conj(), _PLANE_PAULIS, _PLANE_PAULIS, psi))


def _eigenvectors_by_outcome(observable: SpinObservable) -> dict[int, np.ndarray]:
    # eigh returns eigenvalues ascending: index 0 -> -1, index 1 -> +1.
    _, vectors = np.linalg.eigh(observable.matrix)
    return {-1: vectors[:, 0], 1: vectors[:, 1]}


def joint_probabilities(
    state: TwoQubitState,
    left: "MeasurementSetting | float",
    right: "MeasurementSetting | float",
) -> JointOutcomeDistribution:
    """Born probabilities of the four outcome pairs under projective measurement."""
    _require_normalized(state)
    psi = state.amplitudes.reshape(2, 2)
    vl = _eigenvectors_by_outcome(spin_observable(left))
    vr = _eigenvectors_by_outcome(spin_observable(right))
    probs = {}
    for ol, orr in OUTCOME_ORDER:
        amplitude = complex(vl[ol].conj() @ psi @ vr[orr].conj())
        probs[(ol, orr)] = abs(amplitude) ** 2
    return JointOutcomeDistribution(probs)
