"""Independent oracles the tests check library code against.

Everything here is implemented from first principles, without calling into
bellsim, so each check is a genuine dual route: the library uses compact
contractions, facet arithmetic and one vectorized sampling kernel; the
oracles use dense 4x4 operators, linear-programming feasibility,
hand-derived closed forms and a scalar per-trial sampler.
"""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc

import numpy as np
from scipy.optimize import linprog

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def direction_matrix(theta: float) -> np.ndarray:
    return math.cos(theta) * SIGMA_Z + math.sin(theta) * SIGMA_X


def kron_expectation(amplitudes, theta_left: float, theta_right: float) -> float:
    """<psi| A x B |psi> via the dense 4x4 operator."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(4)
    operator = np.kron(direction_matrix(theta_left), direction_matrix(theta_right))
    return float(np.real(np.vdot(psi, operator @ psi)))


def kron_chsh_s(amplitudes, angles, sign_pattern) -> float:
    """Signed sum of dense-operator expectations; angles are (a, a', b, b')."""
    a, ap, b, bp = angles
    pairs = [(a, b), (a, bp), (ap, b), (ap, bp)]
    return sum(
        sign * kron_expectation(amplitudes, tl, tr)
        for sign, (tl, tr) in zip(sign_pattern, pairs)
    )


def deterministic_vertices() -> np.ndarray:
    """All 16 deterministic correlation vectors, built by direct products."""
    rows = []
    for ra, rap, rb, rbp in itertools.product((1, -1), repeat=4):
        rows.append([ra * rb, ra * rbp, rap * rb, rap * rbp])
    return np.array(rows, dtype=float)


def lp_local_membership(vector, tol: float = 1e-9) -> bool:
    """Brute-force linear feasibility: is the vector a convex mix of vertices?"""
    vertices = deterministic_vertices()
    a_eq = np.vstack([vertices.T, np.ones(16)])
    b_eq = np.concatenate([np.asarray(vector, dtype=float), [1.0]])
    result = linprog(
        np.zeros(16), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs",
        options={"primal_feasibility_tolerance": tol},
    )
    return bool(result.success)


def lp_local_membership_batch(vectors, tol: float = 1e-9) -> list[bool]:
    """lp_local_membership of many vectors, decided by one block-diagonal LP.

    Block i has 16 vertex weights w >= 0 and one slack 0 <= s <= 1, with
    sum(w) = 1 and V^T w = (1 - s) e_i. The zero vector is a mix of vertices,
    so every block is feasible at s = 1, and s = 0 is feasible exactly when
    e_i is a mix itself. Blocks share no variable, so minimizing the total
    slack minimizes each block's.
    """
    from scipy.sparse import coo_matrix

    targets = np.asarray(vectors, dtype=float).reshape(-1, 4)
    count = len(targets)
    blocks = np.zeros((count, 5, 17))
    blocks[:, :4, :16] = deterministic_vertices().T
    blocks[:, :4, 16] = targets
    blocks[:, 4, :16] = 1.0
    offsets = np.arange(count)[:, None, None]
    rows = np.arange(5)[None, :, None] + 5 * offsets + np.zeros((1, 1, 17), dtype=int)
    cols = np.arange(17)[None, None, :] + 17 * offsets + np.zeros((1, 5, 1), dtype=int)
    a_eq = coo_matrix(
        (blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(5 * count, 17 * count)
    ).tocsc()
    a_eq.eliminate_zeros()
    b_eq = np.column_stack([targets, np.ones(count)]).ravel()
    cost = np.zeros(17 * count)
    cost[16::17] = 1.0
    bounds = np.zeros((17 * count, 2))
    bounds[:, 1] = np.inf
    bounds[16::17, 1] = 1.0
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert result.success, result.message
    return [bool(slack <= tol) for slack in result.x[16::17]]


def brute_force_max_s(sign_pattern) -> float:
    pattern = np.asarray(sign_pattern, dtype=float)
    return float(np.max(deterministic_vertices() @ pattern))


def bomb_oracle(reflectivity: float, bomb_present: bool, phase: float) -> dict[str, float]:
    """Closed-form outcome probabilities from two-beamsplitter amplitude algebra.

    First splitter reflectivity r, second 1-r, absorber in the reflected
    arm, phase on the transmitted arm. Derived by hand:
      no absorber: dark = 2 r (1-r) (1 - cos phi), exploded = 0
      absorber:    exploded = r, dark = r (1-r), bright = (1-r)^2
    """
    r = reflectivity
    if bomb_present:
        return {"exploded": r, "dark_port": r * (1.0 - r), "bright_port": (1.0 - r) ** 2}
    dark = 2.0 * r * (1.0 - r) * (1.0 - math.cos(phase))
    return {"exploded": 0.0, "dark_port": dark, "bright_port": 1.0 - dark}


def numpy_port_probabilities(
    reflectivity: float, bomb_present: bool, phase: float
) -> dict[str, float]:
    """Outcome probabilities by complex128 matrix products, as bellsim computed them in numpy.

    Sampled bomb artifacts are drawn from the CDF of these probabilities, so
    the library's plain-Python propagation must equal this bit for bit.
    """

    def beamsplitter(r: float) -> np.ndarray:
        t, s = math.sqrt(1.0 - r), math.sqrt(r)
        return np.array([[t, 1j * s], [1j * s, t]], dtype=np.complex128)

    amps = beamsplitter(reflectivity) @ np.array([1.0, 0.0], dtype=np.complex128)
    exploded = 0.0
    if bomb_present:
        exploded = float(abs(amps[1]) ** 2)
        amps = np.array([amps[0], 0.0], dtype=np.complex128)
    amps[0] *= np.exp(1j * phase)
    out = beamsplitter(1.0 - reflectivity) @ amps
    return {
        "exploded": exploded,
        "dark_port": float(abs(out[0]) ** 2),
        "bright_port": float(abs(out[1]) ** 2),
    }


def numpy_witness_weights(target) -> np.ndarray:
    """The 16-cell witness by numpy array arithmetic, as bellsim computed it.

    The facets are normals f with f.x <= 1 (the one-minus sign patterns
    halved, their negations, then +-e_i), the lowest-index strategy of each
    vertex carries its weight, and the facet with the largest functional
    gets the barycentric shares. Sampled counterfactual artifacts hold these
    weights, so the library's plain-Python witness must equal this bit for
    bit. The products with the target add as (0 + 2) + (1 + 3) and the
    shares in sequence, written out elementwise so that no BLAS kernel
    picks the order.
    """

    def products(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        return (rows[:, 0] * x[0] + rows[:, 2] * x[2]) + (rows[:, 1] * x[1] + rows[:, 3] * x[3])

    def in_sequence(values: np.ndarray) -> float:
        return float(((values[0] + values[1]) + values[2]) + values[3])

    target = np.asarray(target, dtype=float)
    one_minus = 1.0 - 2.0 * np.eye(4)
    normals = np.vstack([one_minus / 2.0, -one_minus / 2.0, np.eye(4), -np.eye(4)])
    vertices = deterministic_vertices()
    carriers = np.sort(np.unique(vertices, axis=0, return_index=True)[1])
    normal = normals[np.argmax(products(normals, target))]
    corners = carriers[vertices[carriers] @ normal == 1.0]
    share = np.maximum(products(vertices[corners], target) / 4.0, 0.0)
    share /= max(in_sequence(share), 1.0)
    weights = np.zeros(16)
    weights[carriers] = max(1.0 - in_sequence(share), 0.0) / 8.0
    weights[corners] += share
    return weights


def numpy_pr_box_table(strength: float) -> dict[tuple[str, str], tuple[float, ...]]:
    """The noisy PR-box table by numpy array arithmetic, as bellsim computed it.

    Sampled superdeterministic artifacts are drawn from these rows, so the
    library's plain-Python table must equal this bit for bit.
    """
    correlated = np.array([0.5, 0.0, 0.0, 0.5])
    anticorrelated = np.array([0.0, 0.5, 0.5, 0.0])
    uniform = np.full(4, 0.25)
    return {
        pair: tuple(
            float(p)
            for p in strength * (anticorrelated if pair == ("a", "b'") else correlated)
            + (1.0 - strength) * uniform
        )
        for pair in (("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'"))
    }


def eigh_joint_probabilities(amplitudes, theta_left: float, theta_right: float) -> dict:
    """Born probabilities by outcome pair, from numpy's eigh of each spin component."""

    def eigenvectors(theta):
        # eigh returns eigenvalues ascending: column 0 -> -1, column 1 -> +1.
        _, vectors = np.linalg.eigh(direction_matrix(theta))
        return {-1: vectors[:, 0], 1: vectors[:, 1]}

    psi = np.asarray(amplitudes, dtype=complex).reshape(2, 2)
    vl, vr = eigenvectors(theta_left), eigenvectors(theta_right)
    return {
        (a, b): abs(complex(vl[a].conj() @ psi @ vr[b].conj())) ** 2
        for a in (1, -1)
        for b in (1, -1)
    }


def random_state_amplitudes(rng: np.random.Generator) -> np.ndarray:
    """A Haar-ish random normalized two-qubit amplitude vector."""
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    return raw / np.linalg.norm(raw)


# Scalar per-trial reference sampler. The stream is SplitMix64 in counter
# mode: draw j of stream s under seed k is
#   fmix64(fmix64(k + GAMMA*(s+1)) + GAMMA*(j+1)) >> 11, scaled by 2**-53.
MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
LABEL_INDEX = {"a": 0, "a'": 1, "b": 2, "b'": 3}
# Strategy lambda answers (a, a', b, b') = STRATEGIES[lambda]; +1 sorts first.
STRATEGIES = tuple(itertools.product((1, -1), repeat=4))
NAMED_STATES = {
    "psi_plus": (0.0, 1.0, 1.0, 0.0),
    "psi_minus": (0.0, 1.0, -1.0, 0.0),
    "phi_plus": (1.0, 0.0, 0.0, 1.0),
    "phi_minus": (1.0, 0.0, 0.0, -1.0),
    "up_up": (1.0, 0.0, 0.0, 0.0),
    "up_down": (0.0, 1.0, 0.0, 0.0),
    "down_up": (0.0, 0.0, 1.0, 0.0),
    "down_down": (0.0, 0.0, 0.0, 1.0),
}


def fmix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_uniforms(seed: int, stream_id: int, draws: int) -> list[float]:
    key = fmix64(seed + GAMMA * (stream_id + 1))
    return [(fmix64(key + GAMMA * (j + 1)) >> 11) * 2.0**-53 for j in range(draws)]


def born_probabilities(state: str, theta_left: float, theta_right: float) -> list[float]:
    """<psi| P(ol) x P(or) |psi> over OUTCOMES, projectors P(o) = (I + o A) / 2."""
    psi = np.asarray(NAMED_STATES[state], dtype=complex)
    psi = psi / np.linalg.norm(psi)
    identity = np.eye(2)
    probs = []
    for ol, orr in OUTCOMES:
        projector = np.kron(
            (identity + ol * direction_matrix(theta_left)) / 2.0,
            (identity + orr * direction_matrix(theta_right)) / 2.0,
        )
        probs.append(float(np.real(np.vdot(psi, projector @ psi))))
    return probs


def first_index_above(weights, u: float) -> int:
    """Inverse CDF: the first index whose running total exceeds u, else the last
    index of positive weight (a total just below 1 leaves a tail past it)."""
    last = max(index for index, weight in enumerate(weights) if weight > 0.0)
    total = 0.0
    for index, weight in enumerate(weights[:last]):
        total += weight
        if u < total:
            return index
    return last


def reference_trial(model: dict, settings, seed: int, stream_id: int):
    """(outcomes, hidden) of one trial of the model described by `model`.

    `model` is the plain dict form of a model: kind plus state and angles,
    strategy, weights or a table keyed "x,y".
    """
    x, y = settings
    kind = model["kind"]
    if kind in ("quantum", "nonlocal"):
        angles = model["angles"]
        p = born_probabilities(model["state"], angles[LABEL_INDEX[x]], angles[LABEL_INDEX[y]])
        if kind == "quantum":
            u = stream_uniforms(seed, stream_id, 1)[0]
            return OUTCOMES[first_index_above(p, u)], None
        u_left, u_right = stream_uniforms(seed, stream_id, 2)
        left = 1 if u_left < p[0] + p[1] else -1
        joint, marginal = (p[0], p[0] + p[1]) if left == 1 else (p[2], p[2] + p[3])
        right = 1 if u_right < joint / (marginal if marginal > 0.0 else 1.0) else -1
        return (left, right), None
    u = stream_uniforms(seed, stream_id, 1)[0]
    if kind in ("lhv_deterministic", "lhv_stochastic"):
        if "strategy" in model:
            lam = model["strategy"]
        else:
            lam = first_index_above(model["weights"], u)
        responses = STRATEGIES[lam]
        return (responses[LABEL_INDEX[x]], responses[LABEL_INDEX[y]]), lam
    k = first_index_above(model["table"][f"{x},{y}"], u)
    return OUTCOMES[k], k


def reference_counts(model: dict, settings, seed: int, first: int, count: int) -> tuple:
    """(n_pp, n_pm, n_mp, n_mm) over the trials with stream ids first..first+count-1.

    One reference_trial per stream id, tallied by its outcome pair.
    """
    counts = [0, 0, 0, 0]
    for stream_id in range(first, first + count):
        outcomes, _ = reference_trial(model, settings, seed, stream_id)
        counts[OUTCOMES.index(outcomes)] += 1
    return tuple(counts)


def per_record_ledger_text(trials) -> str:
    """A ledger as written one record at a time: a json.dumps line per trial.

    `trials` yields, in index order, objects with `settings`, `outcomes`,
    `hidden` and `stream_id` attributes.
    """
    return "".join(
        json.dumps(
            {
                "index": index,
                "settings": list(trial.settings),
                "outcomes": list(trial.outcomes),
                "hidden": trial.hidden,
                "stream_id": trial.stream_id,
            },
            separators=(",", ":"),
        )
        + "\n"
        for index, trial in enumerate(trials)
    )


def marginals(counts) -> dict:
    """Each setting pair's (P(left = +1), P(right = +1)) from its coincidence counts."""
    return {
        pair: ((c.n_pp + c.n_pm) / c.total, (c.n_pp + c.n_mp) / c.total)
        for pair, c in counts.items()
    }


def marginal_comparisons(counts) -> list[tuple[float, float]]:
    """(difference, threshold) per side and local setting, left at a and a', right at b and b'.

    The difference is between the side's P(+1) under the two remote
    settings, the threshold five pooled binomial standard deviations.
    """
    p = marginals(counts)
    trials = counts[("a", "b")].total
    sides = [(p[(x, "b")][0], p[(x, "b'")][0]) for x in ("a", "a'")]
    sides += [(p[("a", y)][1], p[("a'", y)][1]) for y in ("b", "b'")]
    comparisons = []
    for p1, p2 in sides:
        pooled = 0.5 * (p1 + p2)
        sigma = math.sqrt(max(0.0, pooled * (1.0 - pooled)) * 2.0 / trials)
        comparisons.append((abs(p1 - p2), 5.0 * sigma))
    return comparisons


def compensated_sum(values, start=0):
    """Python 3.12's builtin sum, which adds floats with Neumaier's compensation.

    Ints add exactly while the total is an int. From a float total on, each
    float also adds its rounding error to a compensation term that joins the
    total at the end; a value neither int nor float ends that phase, with the
    compensation added. Other values, complex ones included, add plainly.
    """
    total, compensation = start, 0.0
    phase = {int: "int", float: "float"}.get(type(start), "other")
    for value in values:
        if phase == "float":
            if type(value) is float:
                added = total + value
                if abs(total) >= abs(value):
                    compensation += (total - added) + value
                else:
                    compensation += (value - added) + total
                total = added
                continue
            if isinstance(value, int):
                total += float(value)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            phase = "other"
        total = total + value
        if phase == "int" and not isinstance(value, int):
            phase = "float" if type(total) is float else "other"
    if phase == "float" and compensation and math.isfinite(compensation):
        total += compensation
    return total


def traced_peak(call) -> int:
    """Peak bytes allocated while call() runs, as tracemalloc counts them.

    tracemalloc sees numpy's buffers, and its count does not depend on the
    machine's load.
    """
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class FixedWords:
    """A stand-in for streams.ChunkBuffers whose chunk is always the word rows it was given.

    A test counts words it chose, such as words that sit on thresholds, through
    code that takes its words from a ChunkBuffers.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = np.atleast_2d(rows)

    def words(self, seed: int, start: int, size: int, draws: int) -> np.ndarray:
        assert self.rows.shape == (draws, size)
        return self.rows

    def work_rows(self, count: int, size: int) -> np.ndarray:
        return np.empty((count, size), dtype=bool)
