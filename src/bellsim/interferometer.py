"""Single-photon two-beamsplitter interferometer with an optional absorber.

The second beamsplitter has the complementary reflectivity of the first,
which makes one output port fully dark (complete destructive interference)
at zero phase for every input reflectivity. Placing a perfect absorber in
the reflected arm destroys the interference: the photon is either absorbed
(probability = the arm intensity) or reaches the output ports, where the
dark port can now fire; a dark-port click therefore certifies the absorber
is present even though the photon provably never reached it.
"""

from __future__ import annotations

import cmath
import functools
import math

from ._record import record

OUTCOMES = ("exploded", "dark_port", "bright_port")


@record
class InterferometerSpec:
    reflectivity: float = 0.5
    bomb_present: bool = False
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.reflectivity < 1.0):
            raise ValueError(
                f"reflectivity must lie strictly inside (0, 1), got {self.reflectivity}"
            )
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase!r}")


def _beamsplitter(reflectivity: float, upper: complex, lower: complex) -> tuple[complex, complex]:
    """The two output amplitudes of a beamsplitter, [[t, i r], [i r, t]] @ (upper, lower)."""
    t = math.sqrt(1.0 - reflectivity)
    r = math.sqrt(reflectivity)
    return t * upper + 1j * r * lower, 1j * r * upper + t * lower


def port_probabilities(spec: InterferometerSpec) -> dict[str, float]:
    """Exact outcome probabilities by amplitude propagation."""
    transmitted, reflected = _beamsplitter(spec.reflectivity, 1.0, 0.0)
    exploded = 0.0
    if spec.bomb_present:
        # Perfect absorber in the reflected arm: a projective which-path
        # measurement that removes that arm's amplitude.
        exploded = abs(reflected) ** 2
        reflected = 0j
    transmitted *= cmath.exp(1j * spec.phase)
    dark, bright = _beamsplitter(1.0 - spec.reflectivity, transmitted, reflected)
    return {"exploded": exploded, "dark_port": abs(dark) ** 2, "bright_port": abs(bright) ** 2}


def run_bomb_trials(spec: InterferometerSpec, trials: int, seed: int) -> dict[str, float]:
    """Empirical outcome frequencies from i.i.d. sampling, one stream per trial.

    Trials are sampled and tallied one chunk of streams at a time, so memory
    does not grow with `trials`.
    """
    # streams first: it loads numpy, and is compiled before numpy's memory is held.
    from .streams import count_words, counting_plan, map_chunks, word_thresholds

    import numpy as np

    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    probs = port_probabilities(spec)
    # Below the first threshold a photon explodes, below the second it is dark; bright needs none.
    thresholds = word_thresholds(np.cumsum([probs[name] for name in OUTCOMES[:-1]]))
    plan = counting_plan(thresholds.tolist(), range(len(OUTCOMES)), len(OUTCOMES))
    count = functools.partial(count_words, (plan,), seed)
    counts, = map_chunks(count, [(0, trials)], len(OUTCOMES))
    return {name: counts[i] / trials for i, name in enumerate(OUTCOMES)}
