"""Deterministic multi-stream random numbers for reproducible trials.

Every trial in a run owns its own stream, addressed by (run seed, stream id).
Streams are counter-based rather than stateful-jump-based: the j-th variate
of stream s under seed k is

    u = fmix64(fmix64(k + GAMMA*(s+1)) + GAMMA*(j+1)) / 2**64

where fmix64 is the SplitMix64 finalizer and GAMMA its odd increment.
Because any (stream, position) pair is addressable in O(1), a batch of
uniforms over millions of streams vectorizes with numpy, and any range of
streams can be generated on its own. Work is cut into fixed CHUNKs of
stream ids, so run output does not depend on how it is batched, and
map_chunks spreads the chunks over up to one thread per CPU the process
may use.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# 53-bit mantissa conversion: uniforms lie in [0, 1).
_INV_2_53 = 2.0 ** -53
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)

# Trials per batch: memory grows with CHUNK, never with the trial count.
CHUNK = 1 << 16
# GAMMA * i for i < 4096, and GAMMA * 4096 * r for each of a chunk's 16
# blocks of 4096 ids: a chunk's pre-mix keys are one broadcast add away.
_KEY_STEPS = np.arange(4096, dtype=np.uint64) * np.uint64(_GAMMA)
_KEY_STRIDES = np.arange(CHUNK // 4096, dtype=np.uint64) * np.uint64(_GAMMA * 4096 & _MASK64)
# Fewest chunks per worker thread: below this, starting a thread costs more
# than the chunks it would count.
_CHUNKS_PER_WORKER = 8


def _fmix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _fmix64_inplace(z: np.ndarray, scratch: np.ndarray) -> None:
    """fmix64 over a uint64 array in place; `scratch` holds each shifted copy."""
    np.right_shift(z, 30, out=scratch)
    z ^= scratch
    z *= _M1
    np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= _M2
    np.right_shift(z, 31, out=scratch)
    z ^= scratch


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


def _mix_rows(out: np.ndarray, scratch: np.ndarray) -> None:
    """Write draw j of each stream into out[j], given its pre-mix key in out[-1].

    out[-1], read as uint64, holds seed + GAMMA * (stream id + 1) per stream
    and is mixed into the key there. Each draw is mixed in its own row,
    reinterpreted as uint64, and converted to float in place, the last row
    after every other has read the key, so no temporary is made. The 53-bit
    values convert through an int64 view, which gives the same doubles as
    uint64 and is cheaper. The cast is an element-for-element np.copyto
    onto the same memory, which copies nothing first; a ufunc whose `out`
    overlaps an input of another dtype would copy the whole row. Both the
    cast and the scaling by 2**-53 are exact below 2**53.
    """
    keys = out[-1].view(np.uint64)
    with np.errstate(over="ignore"):
        _fmix64_inplace(keys, scratch)
        for j in range(len(out)):
            h = out[j].view(np.uint64)
            np.add(keys, np.uint64((_GAMMA * (j + 1)) & _MASK64), out=h)
            _fmix64_inplace(h, scratch)
            h >>= np.uint64(11)
            np.copyto(out[j], h.view(np.int64))
            out[j] *= _INV_2_53


def batch_uniforms(seed: int, stream_ids: np.ndarray, draws: int) -> np.ndarray:
    """Uniforms for many fresh streams at once, shape (len(stream_ids), draws).

    Row i column j equals the j-th value TrialStream(seed, stream_ids[i])
    would produce, so a trial gets the same variates whether it is drawn
    alone or inside a batch. The result is the transpose of a (draws, n)
    buffer, so each draw's column is contiguous in memory.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    out = np.empty((draws, ids.size), dtype=np.float64)
    if draws == 0:
        return out.T
    keys = out[-1].view(np.uint64)
    with np.errstate(over="ignore"):
        np.add(ids, np.uint64(1), out=keys)
        keys *= np.uint64(_GAMMA)
        keys += np.uint64(int(seed) & _MASK64)
    _mix_rows(out, np.empty_like(keys))
    return out.T


class ChunkBuffers:
    """Uniform rows and one scratch array, reused from chunk to chunk.

    Allocating a chunk's buffers afresh costs a page fault per 4 KiB page
    on first touch, which takes longer than the arithmetic done in them;
    one ChunkBuffers touches its set once. A set belongs to one thread.
    The scratch is free once `uniforms` has mixed a chunk, and counting
    takes its bool rows from there (`work_rows`), so a counted chunk
    allocates nothing past the set.
    """

    def __init__(self) -> None:
        self._rows = np.empty((0, 0))
        self._scratch = np.empty(0, dtype=np.uint64)

    def uniforms(self, seed: int, start: int, size: int, draws: int) -> np.ndarray:
        """batch_uniforms(seed, ids start..start+size-1, draws).T, as (draws, size) rows.

        `size` is at most CHUNK. The rows are the buffer itself: they hold
        until the next call.
        """
        step = len(_KEY_STEPS)
        if size > step * len(_KEY_STRIDES):
            raise ValueError(f"a chunk holds at most {CHUNK} streams, got {size}")
        blocks = -(-size // step)  # keys are filled `step` ids at a time, padding included
        if self._rows.shape[0] < draws or self._rows.shape[1] < blocks * step:
            width = max(blocks * step, self._rows.shape[1])
            self._rows = np.empty((max(draws, self._rows.shape[0]), width))
            self._scratch = np.empty(width, dtype=np.uint64)
        # seed + GAMMA * (start + i + 1), stream i of the chunk, in one pass.
        first = np.uint64((int(seed) + _GAMMA * (start + 1)) & _MASK64)
        keys = self._rows[draws - 1, : blocks * step].view(np.uint64).reshape(blocks, step)
        np.add((_KEY_STRIDES[:blocks] + first)[:, None], _KEY_STEPS, out=keys)
        out = self._rows[:draws, :size]
        _mix_rows(out, self._scratch[:size])
        return out

    def work_rows(self, count: int, size: int) -> np.ndarray:
        """`count` bool rows of `size`, carved from the scratch, as (count, size).

        The scratch holds 8 such rows for any `size` the last `uniforms`
        call took. The rows are valid until the next `uniforms` call, which
        mixes in the scratch; their contents start undefined.
        """
        return self._scratch.view(np.bool_)[: count * size].reshape(count, size)


def inverse_cdf(cdf: np.ndarray, rows: "int | np.ndarray", u: np.ndarray) -> np.ndarray:
    """Index k with cdf[r, k-1] <= u < cdf[r, k] for each uniform u and its row r, clamped.

    `cdf` holds non-decreasing rows of at most 128 entries; `rows` is one
    row index for every uniform or one per uniform. The index is the number
    of thresholds at or below u, the same as np.searchsorted(cdf[r], u,
    side="right"); leaving the last threshold out is the clamp to the last
    index. The rows are compared one threshold column at a time, so no row
    is copied per uniform.
    """
    index = np.zeros(u.shape, dtype=np.int8)
    above = np.empty(u.shape, dtype=bool)
    for k in range(cdf.shape[1] - 1):
        np.greater_equal(u, cdf[rows, k], out=above)
        index += above
    return index


def threshold_counts(cdf: np.ndarray, u: np.ndarray, above: np.ndarray) -> np.ndarray:
    """np.bincount(inverse_cdf(cdf[None], 0, u), minlength=len(cdf)), with no index array.

    For one non-decreasing `cdf` row, a uniform's index is at least k exactly
    when u >= cdf[k-1], so each index's count is the difference of two
    neighbouring threshold counts; the last index takes everything at or
    above the last threshold it compares against, which is the clamp.
    `above` is a bool row of u's shape that each comparison is written to.
    Only thresholds that can change a count are compared: one at or below
    0 counts every uniform, +inf counts none, and one equal to the threshold
    before it (a zero-probability index) keeps that threshold's count.
    """
    thresholds = cdf[:-1].tolist()
    at_least = [u.size]
    for k, threshold in enumerate(thresholds):
        if threshold <= 0.0:
            n = u.size
        elif threshold == np.inf:
            n = 0
        elif k == 0 or threshold != thresholds[k - 1]:
            np.greater_equal(u, threshold, out=above)
            n = np.count_nonzero(above)
        at_least.append(n)
    at_least.append(0)
    return -np.diff(at_least)


def _workers(chunks: int) -> int:
    """Threads to count `chunks` chunks on: one per usable CPU, one per 8 chunks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, chunks // _CHUNKS_PER_WORKER))


def map_chunks(
    fn: Callable[[ChunkBuffers, int, int], object], ranges: Sequence[tuple[int, int]]
) -> list:
    """Per (first stream id, count) range, the sum of fn(buffers, start, size) over its CHUNKs.

    No chunk spans two ranges, and a range of no ids gives None. The calling
    thread and up to _workers(chunks of the run) - 1 more each claim the next
    unclaimed chunk with a ChunkBuffers of their own and add its result to
    its range's total with `+` as soon as it finishes, so chunk results must
    add associatively and commutatively: counts, or None where `fn` writes its
    chunk's rows itself (a None is never added). The first exception any
    thread raises stops every thread and is raised here.
    """
    claims = ((r, start) for r, (first, count) in enumerate(ranges)
              for start in range(first, first + count, CHUNK))
    totals: list = [None] * len(ranges)
    lock = threading.Lock()
    failures: list[BaseException] = []

    def work() -> None:
        buffers = ChunkBuffers()
        try:
            while not failures:
                with lock:
                    r, start = next(claims, (None, None))
                if r is None:
                    return
                first, count = ranges[r]
                result = fn(buffers, start, min(CHUNK, first + count - start))
                with lock:
                    totals[r] = result if totals[r] is None else totals[r] + result
        except BaseException as exc:  # raised again by the calling thread
            failures.append(exc)

    chunks = sum(-(-count // CHUNK) for _, count in ranges)
    helpers = [threading.Thread(target=work) for _ in range(_workers(chunks) - 1)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    if failures:
        raise failures[0]
    return totals
