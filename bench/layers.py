"""Per-layer rates: timed calls into bellsim's public functions at fixed sizes.

These numbers do not depend on the workload; the traced run reports them
next to the workload's span counts. Each is the median of several timed
calls after one untimed call. Sizes follow the production chunk
(`models._CHUNK` = 65,536 trials) and a large batch of 10⁶.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable

import workloads

CHUNK = 65_536
LARGE = 1_000_000
KIND_MODELS = {kind: name for name, kind in workloads.MODEL_KINDS.items()}


def median_seconds(fn: Callable[[], object], repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure(repeats: int = 5) -> dict[str, float]:
    """Every rate metric, by name; `repeats` timed calls each."""
    import numpy as np
    from bellsim.interferometer import InterferometerSpec, run_bomb_trials
    from bellsim.models import catalog, generate_outcomes, run_trial
    from bellsim.optimize import s_landscape
    from bellsim.quantum import make_named_state
    from bellsim.stats import PAIR_ORDER, counts_from_outcomes
    from bellsim.streams import TrialStream, batch_uniforms

    models = catalog()
    quantum = models["quantum-optimal"]
    pair = PAIR_ORDER[0]
    out: dict[str, float] = {}

    chunk_ids = np.arange(CHUNK, dtype=np.uint64)
    large_ids = np.arange(LARGE, dtype=np.uint64)
    out["streams.batch_uniforms.ns_per_variate.chunk"] = 1e9 * median_seconds(
        lambda: batch_uniforms(7, chunk_ids, 1), repeats * 4) / CHUNK
    out["streams.batch_uniforms.ns_per_variate.large"] = 1e9 * median_seconds(
        lambda: batch_uniforms(7, large_ids, 1), repeats) / LARGE

    out["models.generate_outcomes.ns_per_trial"] = 1e9 * median_seconds(
        lambda: generate_outcomes(quantum, pair, 7, 0, CHUNK), repeats * 4) / CHUNK
    one = median_seconds(lambda: generate_outcomes(quantum, pair, 7, 0, 2 * LARGE, 1), repeats)
    two = median_seconds(lambda: generate_outcomes(quantum, pair, 7, 0, 2 * LARGE, 2), repeats)
    out["models.generate_outcomes.t2_speedup"] = one / two
    for kind, name in KIND_MODELS.items():
        seconds = median_seconds(lambda: generate_outcomes(models[name], pair, 7, 0, LARGE),
                                 repeats)
        out[f"models.trials_per_s.{kind}"] = LARGE / seconds

    calls = [(models[name], p) for name in KIND_MODELS.values() for p in PAIR_ORDER]

    def trials() -> None:
        for index, (model, p) in enumerate(calls * 25):
            run_trial(model, p, TrialStream(7, index))

    out["models.run_trial.us_per_call"] = 1e6 * median_seconds(trials, repeats) / (len(calls) * 25)

    outcomes = generate_outcomes(quantum, pair, 7, 0, LARGE)
    out["stats.counts_from_outcomes.ns_per_trial"] = 1e9 * median_seconds(
        lambda: counts_from_outcomes(outcomes), repeats) / LARGE

    state = make_named_state("psi_minus")
    fixed = {"a": 0.0, "a'": 1.5707963267948966}
    out["optimize.s_landscape.us_per_cell"] = 1e6 * median_seconds(
        lambda: s_landscape(state, fixed, 16), repeats) / 256

    spec = InterferometerSpec(reflectivity=0.5, bomb_present=True)
    out["interferometer.run_bomb_trials.ns_per_trial"] = 1e9 * median_seconds(
        lambda: run_bomb_trials(spec, LARGE, 7), repeats) / LARGE
    return out
