"""Deterministic multi-stream random numbers for reproducible trials.

Every trial in a run owns its own stream, addressed by (run seed, stream id).
Streams are counter-based rather than stateful-jump-based: the j-th word
of stream s under seed k is the 53-bit

    w = fmix64(fmix64(k + GAMMA*(s+1)) + GAMMA*(j+1)) >> 11

where fmix64 is the SplitMix64 finalizer and GAMMA its odd increment, and
its uniform is u = w * 2**-53. Because any (stream, position) pair is
addressable in O(1), a batch of words over millions of streams vectorizes
with numpy, and any range of streams can be generated on its own. Chunks
stop at the words and compare them, read as float64, with word thresholds
(word_thresholds), which gives the same answers as comparing uniforms.
Work is cut into fixed CHUNKs of stream ids, so run output does not depend
on how it is batched, and map_chunks spreads the chunks over up to one
thread per CPU the process may use.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Callable, Sequence

import numpy as np

from ._record import record

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# 53-bit mantissa conversion: uniforms lie in [0, 1).
_INV_2_53 = 2.0 ** -53
_WORD_LIMIT = 2.0 ** 53
# m(1), the word threshold that no 53-bit word reaches, read as a float64.
_NO_WORD = float(np.uint64(1 << 53).view(np.float64))
# The float64 view of word 1, the least subnormal: above 0 unless the CPU
# flushes subnormals to zero, which word compares cannot work under.
_WORD_ONE = 5e-324
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
    """Write word j of each stream into out[j], given its pre-mix key in out[-1].

    `out` is uint64; out[-1] holds seed + GAMMA * (stream id + 1) per stream
    and is mixed into the key there. Each draw is mixed in its own row, the
    last after every other has read the key, so no temporary is made, and
    stops at h >> 11: the draw's 53-bit word w, whose uniform is w * 2**-53.
    """
    keys = out[-1]
    _fmix64_inplace(keys, scratch)
    for j in range(len(out)):
        h = out[j]
        np.add(keys, _GAMMA * (j + 1) & _MASK64, out=h)
        _fmix64_inplace(h, scratch)
        h >>= 11


def batch_uniforms(seed: int, stream_ids: np.ndarray, draws: int) -> np.ndarray:
    """Uniforms for many fresh streams at once, shape (len(stream_ids), draws).

    Row i column j equals the j-th value TrialStream(seed, stream_ids[i])
    would produce, so a trial gets the same variates whether it is drawn
    alone or inside a batch. The result is the transpose of a (draws, n)
    array, so each draw's column is contiguous in memory.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    words = np.empty((draws, ids.size), dtype=np.uint64)
    if draws:
        keys = words[-1]
        np.add(ids, 1, out=keys)
        keys *= _GAMMA
        keys += int(seed) & _MASK64
        _mix_rows(words, np.empty_like(keys))
    return (words * _INV_2_53).T


def word_thresholds(c: "float | np.ndarray") -> np.ndarray:
    """For each threshold c, the float64 whose bits are m(c), the least word w with w*2**-53 >= c.

    m(c) is 0 for c <= 0, ceil(c * 2**53) for 0 < c < 1 and 2**53, which no
    word reaches, for c >= 1, +inf included. A word w < 2**53 read as a
    float64 is a non-negative finite number, and such floats sort as their
    bits do, so a word row viewed as float64 is at or above m(c)'s view
    exactly when its uniform is at or above c: one float compare per word,
    with no cast to a uniform and no slower integer compare. That needs
    subnormal floats, so a thread that flushes them to zero (as code built
    with -ffast-math can set up) gets a RuntimeError here.
    """
    if not _WORD_ONE > 0.0:
        raise RuntimeError("subnormal floats are flushed to zero; words cannot be compared")
    words = np.ceil(np.clip(np.asarray(c, dtype=np.float64), 0.0, 1.0) * _WORD_LIMIT)
    return words.astype(np.uint64).view(np.float64)


def as_words(u: np.ndarray) -> np.ndarray:
    """Stream uniforms w * 2**-53 as word rows, the float64 views of each w that `words` gives.

    Every stream uniform is a multiple of 2**-53, so the word is exact.
    """
    return (np.asarray(u, dtype=np.float64) * _WORD_LIMIT).astype(np.uint64).view(np.float64)


class ChunkBuffers:
    """Word rows and one scratch array, reused from chunk to chunk.

    Allocating a chunk's buffers afresh costs a page fault per 4 KiB page
    on first touch, which takes longer than the arithmetic done in them;
    one ChunkBuffers touches its set once. A set belongs to one thread.
    The scratch is free once `words` has mixed a chunk, and counting takes
    its bool rows from there (`work_rows`), so a counted chunk allocates
    nothing past the set.
    """

    def __init__(self) -> None:
        self._rows = np.empty((0, 0), dtype=np.uint64)
        self._scratch = np.empty(0, dtype=np.uint64)

    def words(self, seed: int, start: int, size: int, draws: int) -> np.ndarray:
        """The words of streams start..start+size-1, as (draws, size) rows viewed as float64.

        Row j holds each stream's j-th 53-bit word w, the uniform w * 2**-53
        that batch_uniforms gives, read as a float64 so that it compares
        with word_thresholds. `size` is at most CHUNK. The rows are the
        buffer itself: they hold until the next call.
        """
        step = len(_KEY_STEPS)
        if size > step * len(_KEY_STRIDES):
            raise ValueError(f"a chunk holds at most {CHUNK} streams, got {size}")
        blocks = -(-size // step)  # keys are filled `step` ids at a time, padding included
        if self._rows.shape[0] < draws or self._rows.shape[1] < blocks * step:
            width = max(blocks * step, self._rows.shape[1])
            self._rows = np.empty((max(draws, self._rows.shape[0]), width), dtype=np.uint64)
            self._scratch = np.empty(width, dtype=np.uint64)
        # seed + GAMMA * (start + i + 1), stream i of the chunk, in one pass.
        first = (int(seed) + _GAMMA * (start + 1)) & _MASK64
        keys = self._rows[draws - 1, : blocks * step].reshape(blocks, step)
        np.add(np.add(_KEY_STRIDES[:blocks], first)[:, None], _KEY_STEPS, out=keys)
        out = self._rows[:draws, :size]
        _mix_rows(out, self._scratch[:size])
        return out.view(np.float64)

    def work_rows(self, count: int, size: int) -> np.ndarray:
        """`count` bool rows of `size`, carved from the scratch, as (count, size).

        The scratch holds 8 such rows for any `size` the last `words` call
        took. The rows are valid until the next `words` call, which mixes
        in the scratch; their contents start undefined.
        """
        return self._scratch.view(np.bool_)[: count * size].reshape(count, size)


def inverse_cdf(cdf: np.ndarray, rows: "int | np.ndarray", u: np.ndarray) -> np.ndarray:
    """Index k with cdf[r, k-1] <= u < cdf[r, k] for each value u and its row r, clamped.

    `cdf` holds non-decreasing rows of at most 128 entries, word thresholds
    for word rows; `rows` is one row index for every value or one per
    value. The index is the number of thresholds at or below u, the same as
    np.searchsorted(cdf[r], u, side="right"); leaving the last threshold out
    is the clamp to the last index. The rows are compared one threshold
    column at a time, so no row is copied per value.
    """
    index = np.zeros(u.shape, dtype=np.int8)
    above = np.empty(u.shape, dtype=bool)
    for k in range(cdf.shape[1] - 1):
        np.greater_equal(u, cdf[rows, k], out=above)
        index += above
    return index


@record
class CountingPlan:
    """How one non-decreasing row of word thresholds tallies a word row into counters.

    Every word counts `fixed[k]` times in counter k; then, for each
    (threshold, gain, lose) of `compares`, each word at or above the
    threshold moves from counter `lose` to counter `gain`.
    """

    fixed: tuple[int, ...]
    compares: tuple[tuple[float, int, int], ...]


def counting_plan(
    thresholds: Sequence[float], answers: Sequence[int], counters: int
) -> CountingPlan:
    """The plan that counts each word's index on `thresholds` into its counter `answers[index]`.

    A word's index is the number of `thresholds`, a non-decreasing row of
    word thresholds one shorter than `answers`, at or below it, as
    inverse_cdf gives it. A run of equal thresholds moves the words at or
    above it from the counter of the index before the run to that of the
    index after it; a run between two indices with the same counter moves
    nothing and is not compared, a run at 0 moves every word and folds
    into `fixed`, and one at m(1) moves none.
    """
    fixed = [0] * counters
    fixed[answers[0]] = 1
    compares = []
    index = 0
    for threshold, run in itertools.groupby(thresholds):
        lose = answers[index]
        index += len(list(run))
        gain = answers[index]
        if gain == lose or threshold >= _NO_WORD:
            continue
        if threshold == 0.0:
            fixed[gain] += 1
            fixed[lose] -= 1
        else:
            compares.append((float(threshold), gain, lose))
    return CountingPlan(tuple(fixed), tuple(compares))


def count_words(plan: CountingPlan, words: np.ndarray, above: np.ndarray, tally: list) -> None:
    """Add to each counter of `tally` (plain ints) the words of one row that `plan` counts in it.

    `above` is a bool row of the words' shape that each comparison is written to.
    """
    size = words.size
    for k, times in enumerate(plan.fixed):
        tally[k] += times * size
    for threshold, gain, lose in plan.compares:
        np.greater_equal(words, threshold, out=above)
        n = int(np.count_nonzero(above))
        tally[gain] += n
        tally[lose] -= n


def _workers(chunks: int) -> int:
    """Threads to count `chunks` chunks on: one per usable CPU, one per 8 chunks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, chunks // _CHUNKS_PER_WORKER))


def map_chunks(
    fn: Callable[[ChunkBuffers, int, int, int, list], None],
    ranges: Sequence[tuple[int, int]],
    counters: int = 0,
) -> list[list[int]]:
    """Per (first stream id, count) range, `counters` integer counts summed over its CHUNKs.

    No chunk spans two ranges. The calling thread and up to _workers(chunks
    of the run) - 1 more each claim the next unclaimed chunk and call
    fn(buffers, r, start, size, tally), with a ChunkBuffers and, per range
    r, a list of `counters` ints of their own: fn adds its chunk's counts to
    `tally` (or writes its chunk's rows itself, with `counters` 0), so no
    lock is held past the claim. Once every thread has joined, each
    range's counts are the sums of its threads' tallies, the same in any
    order. The first exception any thread raises stops every thread and is
    raised here.
    """
    claims = ((r, start, min(CHUNK, first + count - start))
              for r, (first, count) in enumerate(ranges)
              for start in range(first, first + count, CHUNK))
    lock = threading.Lock()
    tallies: list[list[list[int]]] = []
    failures: list[BaseException] = []

    def work() -> None:
        buffers = ChunkBuffers()
        own = [[0] * counters for _ in ranges]
        tallies.append(own)
        try:
            while not failures:
                with lock:
                    r, start, size = next(claims, (None, 0, 0))
                if r is None:
                    return
                fn(buffers, r, start, size, own[r])
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
    return [[sum(column) for column in zip(*threads)] for threads in zip(*tallies)]
