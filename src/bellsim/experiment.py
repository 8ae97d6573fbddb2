"""Experiment orchestration: trial batches in, CHSH statistics out.

Stream ids are allocated per setting pair in canonical PAIR_ORDER: pair i
of a run owns ids [base + i*N, base + (i+1)*N), so every trial's stream is
fixed by the configuration alone. run_chsh_experiment is the one place
that lays them out; `chsh` and the counterfactual verdict's statistics
both sample through it. Sampled runs never load the polytope module.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable

from .models import ModelDescriptor, count_chunk
from .quantum import expectation, sum_in_order
from .stats import (
    PAIR_ORDER, ChshResult, CoincidenceCounts, DEFAULT_SIGN_PATTERN, chsh_s, correlation
)

if TYPE_CHECKING:
    from .polytope import CorrelationVector


def run_chsh_experiment(
    model: ModelDescriptor,
    trials_per_pair: int,
    seed: int,
    sign_pattern: Iterable[int] = DEFAULT_SIGN_PATTERN,
    stream_base: int = 0,
) -> ChshResult:
    """Run trials for all four setting pairs, counted as one schedule of chunks, and estimate S.

    Each pair's CorrelationEstimate holds the CoincidenceCounts of its
    trials_per_pair trials, built once from the counting threads' tallies.
    """
    from .streams import map_chunks

    if trials_per_pair < 1:
        raise ValueError(f"trials_per_pair must be at least 1, got {trials_per_pair}")
    ranges = [(stream_base + i * trials_per_pair, trials_per_pair) for i in range(len(PAIR_ORDER))]
    # The tables, counting plans included, are built here, before any counting thread starts.
    tallies = map_chunks(functools.partial(count_chunk, model._tables, seed), ranges, 4)
    counts = [correlation(CoincidenceCounts(*tally)) for tally in tallies]
    return chsh_s(dict(zip(PAIR_ORDER, counts)), sign_pattern)


def model_exact_correlations(model: ModelDescriptor) -> CorrelationVector:
    """The correlation vector a model produces in expectation, no sampling."""
    from .polytope import VERTICES, CorrelationVector

    if model.state is not None:  # quantum and nonlocal
        state = model.quantum_state()
        values = [
            expectation(state, model.angle_for(x), model.angle_for(y))
            for x, y in PAIR_ORDER
        ]
        return CorrelationVector(*values)
    if model.weights is not None:  # the LHV kinds
        return CorrelationVector(
            *(sum_in_order(w * e for w, e in zip(model.weights, c)) for c in zip(*VERTICES))
        )
    values = []
    for pair in PAIR_ORDER:
        p_pp, p_pm, p_mp, p_mm = model.table[pair]
        values.append(p_pp + p_mm - p_pm - p_mp)
    return CorrelationVector(*values)
