"""Deterministic multi-stream random numbers for reproducible trials.

Every trial in a run owns its own stream, addressed by (run seed, stream id).
Streams are counter-based rather than stateful-jump-based: the j-th variate
of stream s under seed k is

    u = fmix64(fmix64(k + GAMMA*(s+1)) + GAMMA*(j+1)) / 2**64

where fmix64 is the SplitMix64 finalizer and GAMMA its odd increment.
Because any (stream, position) pair is addressable in O(1), a batch of
uniforms over millions of streams vectorizes with numpy, and parallel
workers can generate disjoint stream ranges with no shared state and no
dependence on scheduling. That property is what makes run output identical
across worker counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# 53-bit mantissa conversion: uniforms lie in [0, 1).
_INV_2_53 = 2.0 ** -53

# Trials per batch. Work is cut at these fixed boundaries whatever the
# worker count, so results never depend on scheduling.
CHUNK = 1 << 16


def _fmix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _fmix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def stream_key(seed: int, stream_id: int) -> int:
    """Return the 64-bit key of stream `stream_id` under run seed `seed`."""
    return _fmix64((seed + _GAMMA * ((stream_id & _MASK64) + 1)) & _MASK64)


class TrialStream:
    """One random stream, keyed by (seed, stream_id), with a draw counter.

    Two streams constructed with the same (seed, stream_id) produce the
    same sequence of uniforms; that is the replay contract the trial
    ledger relies on.
    """

    __slots__ = ("seed", "stream_id", "_key", "_position")

    def __init__(self, seed: int, stream_id: int) -> None:
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._key = stream_key(self.seed, self.stream_id)
        self._position = 0

    def uniform(self) -> float:
        """Next uniform variate in [0, 1)."""
        self._position += 1
        h = _fmix64((self._key + _GAMMA * self._position) & _MASK64)
        return (h >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        """Next `n` uniform variates in [0, 1)."""
        return np.array([self.uniform() for _ in range(n)])


def batch_uniforms(seed: int, stream_ids: np.ndarray, draws: int) -> np.ndarray:
    """Uniforms for many fresh streams at once, shape (len(stream_ids), draws).

    Row i column j equals the j-th value TrialStream(seed, stream_ids[i])
    would produce, so a trial gets the same variates whether it is drawn
    alone or inside a batch.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = _fmix64_array(
            np.uint64(int(seed) & _MASK64) + np.uint64(_GAMMA) * (ids + np.uint64(1))
        )
        out = np.empty((ids.size, draws), dtype=np.float64)
        for j in range(draws):
            h = _fmix64_array(keys + np.uint64((_GAMMA * (j + 1)) & _MASK64))
            out[:, j] = (h >> np.uint64(11)) * _INV_2_53
    return out


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index k with cdf[k-1] <= u < cdf[k] for each uniform, clamped to the last index.

    `cdf` is one non-decreasing row of at most 128 entries for every
    uniform, or one such row per uniform. The index is the number of
    thresholds at or below u, the same as np.searchsorted(cdf, u,
    side="right"); leaving the last threshold out is the clamp.
    """
    thresholds = np.atleast_2d(cdf)[:, :-1].T
    return (u >= thresholds).sum(axis=0, dtype=np.int8)


def worker_count(threads: int, chunks: int, cpus: Optional[int]) -> int:
    """Threads worth starting: never more than the chunks or the cores."""
    return max(1, min(threads, chunks, cpus or 1))


def map_chunks(
    fn: Callable[[int, int], object], stream_start: int, count: int, threads: int = 1
) -> list:
    """fn(first stream id, size) per CHUNK of the ids stream_start..stream_start+count-1.

    Results come back in stream order. Workers build their own id arrays,
    so memory grows with the chunk size and the worker count, not `count`.
    """
    starts = range(stream_start, stream_start + count, CHUNK)
    sizes = [min(CHUNK, stream_start + count - start) for start in starts]
    workers = worker_count(threads, len(starts), os.cpu_count())
    if workers == 1:
        return list(map(fn, starts, sizes))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, starts, sizes))
