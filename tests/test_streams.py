import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import streams
from bellsim.streams import (
    CHUNK,
    ChunkBuffers,
    TrialStream,
    batch_uniforms,
    count_words,
    counting_plan,
    inverse_cdf,
    stream_key,
    word_thresholds,
)

from oracles import FixedWords, traced_peak


def test_same_key_same_sequence():
    a = TrialStream(42, 7)
    b = TrialStream(42, 7)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]


def test_different_streams_differ():
    a = TrialStream(42, 0).uniforms(8)
    b = TrialStream(42, 1).uniforms(8)
    c = TrialStream(43, 0).uniforms(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed,base,draws", [(0, 0, 1), (42, 1000, 3), (2**63, 2**40, 2)])
def test_batch_matches_scalar(seed, base, draws):
    ids = np.arange(base, base + 50, dtype=np.uint64)
    batch = batch_uniforms(seed, ids, draws)
    for row, stream_id in enumerate(ids):
        scalar = TrialStream(seed, int(stream_id)).uniforms(draws)
        assert np.array_equal(batch[row], scalar)


def test_stream_key_is_64_bit_stable():
    assert stream_key(1, 2) == stream_key(1, 2)
    assert stream_key(1, 2) != stream_key(2, 1)
    assert 0 <= stream_key(123, 456) < 2**64


def test_uniformity_five_sigma():
    n = 10**6
    u = batch_uniforms(9001, np.arange(n, dtype=np.uint64), 1)[:, 0]
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # mean of Uniform(0,1): sigma = 1/sqrt(12 n)
    assert abs(u.mean() - 0.5) < 5.0 / np.sqrt(12.0 * n)
    # quartile occupancy: binomial with p = 1/4
    counts = np.bincount((u * 4).astype(int), minlength=4)
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n / 4) < 5.0 * sigma)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream_id=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_uniform_in_unit_interval(seed, stream_id):
    stream = TrialStream(seed, stream_id)
    for _ in range(4):
        value = stream.uniform()
        assert 0.0 <= value < 1.0


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0 / 3.0]), min_size=2, max_size=16),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_inverse_cdf_matches_searchsorted(weights, seed):
    # Zero weights make ties, and the running total may stop short of 1.
    cdf = np.cumsum(weights)
    u = batch_uniforms(seed, np.arange(500, dtype=np.uint64), 1)[:, 0] * max(cdf[-1], 1.0)
    u[:len(cdf)] = cdf  # uniforms sitting exactly on each threshold
    # A stored row leaves the last running total out: no index follows it.
    expected = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    assert np.array_equal(inverse_cdf(cdf[None, :-1], 0, u), expected)
    # Rows picked per uniform: the row itself, reversed weights and rolled weights.
    table = np.array([cdf, np.cumsum(weights[::-1]), np.cumsum(np.roll(weights, 1))])
    rows = (batch_uniforms(seed, np.arange(500, dtype=np.uint64), 2)[:, 1] * 3).astype(np.int8)
    expected = [min(np.searchsorted(table[r], x, side="right"), len(cdf) - 1)
                for r, x in zip(rows, u)]
    assert inverse_cdf(table[:, :-1], rows, u).tolist() == expected


def _uniforms(words):
    """The uniforms w * 2**-53 of word rows."""
    return words.view(np.uint64) * 2.0**-53


def _plan_counts(thresholds, words, counters=None):
    """Each index's count (or each counter's, given the counter of each index) by its plan."""
    counters = range(len(thresholds) + 1) if counters is None else counters
    plan = counting_plan(thresholds.tolist(), counters, max(counters) + 1)
    tally = [0] * (max(counters) + 1)
    count_words((plan,), 0, FixedWords(words), 0, 0, words.size, tally)
    assert all(type(n) is int for n in tally)
    return tally


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0 / 3.0]), min_size=1, max_size=16),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_counting_plans_match_bincount_of_indices(weights, seed):
    # Zero weights make ties; totals may stop short of 1 or pass it, which
    # puts thresholds at or above every uniform.
    cdf = np.cumsum(weights)
    words = word_thresholds(batch_uniforms(seed, np.arange(500, dtype=np.uint64), 1)[:, 0])
    words[:len(cdf)] = word_thresholds(np.minimum(cdf, 1.0 - 2.0**-53))  # words on thresholds
    u = _uniforms(words)
    indices = inverse_cdf(cdf[None, :-1], 0, u)
    expected = np.bincount(indices, minlength=len(cdf))
    thresholds = word_thresholds(cdf[:-1])  # the row as a model stores it
    assert np.array_equal(inverse_cdf(thresholds[None], 0, words), indices)
    assert _plan_counts(thresholds, words) == expected.tolist()
    assert _plan_counts(thresholds, words[:0]) == [0] * len(cdf)
    # Indices sharing a counter: counter k takes the indices k, k + 4, k + 8, ...
    counters = [k % 4 for k in range(len(cdf))]
    by_counter = np.bincount(counters, weights=expected, minlength=max(counters) + 1)
    assert _plan_counts(thresholds, words, counters) == by_counter.astype(int).tolist()


# Thresholds where words are scarce or crowded: 0, the subnormals, a tiny
# normal, the largest uniform, 1 and +inf, besides any float in [0, 1].
_EDGE_THRESHOLDS = [0.0, 5e-324, 2.0**-1074 * 3, 2.0**-1022 - 2.0**-1074, 2.0**-1022, 1e-300,
                    2.0**-53, 2.0**-52, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, np.inf]


@settings(max_examples=500, deadline=None)
@given(
    c=st.one_of(st.sampled_from(_EDGE_THRESHOLDS), st.floats(0.0, 1.0)),
    step=st.sampled_from([-1, 0, 1]),
)
def test_word_thresholds_compare_as_uniforms_do(c, step):
    # For the words m(c) - 1, m(c) and m(c) + 1 around a threshold's own
    # word, a word's float64 view is at or above the threshold's view
    # exactly when its uniform w * 2**-53 is at or above c.
    threshold = word_thresholds(c)
    m = int(threshold.view(np.uint64))
    assert m == (0 if c <= 0.0 else 2**53 if c >= 1.0 else math.ceil(c * 2.0**53))
    w = m + step
    if not 0 <= w < 2**53:  # words lie in [0, 2**53)
        return
    word = np.array([w], dtype=np.uint64).view(np.float64)
    assert bool(word[0] >= threshold) == (w * 2.0**-53 >= c)
    assert bool(word[0] < threshold) == (w * 2.0**-53 < c)
    assert word_thresholds(np.array([c, c]))[1] == threshold


def test_word_thresholds_pin_their_ends():
    assert word_thresholds(np.array([-1.0, 0.0, 5e-324, 1.0, np.inf])).view(np.uint64).tolist() == [
        0, 0, 1, 2**53, 2**53]
    assert word_thresholds(1.0 - 2.0**-53).view(np.uint64) == 2**53 - 1


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream_id=st.integers(min_value=0, max_value=2**64 - 1),
    draws=st.sampled_from([1, 2]),
)
def test_a_stream_uniforms_word_threshold_is_its_word(seed, stream_id, draws):
    # A stream uniform is w * 2**-53, so the least word at or above it is w.
    words = word_thresholds(TrialStream(seed, stream_id).uniforms(draws))
    chunk = ChunkBuffers().words(seed, stream_id, 1, draws)[:, 0]
    assert words.view(np.uint64).tolist() == chunk.view(np.uint64).tolist()


def test_word_thresholds_refuse_subnormals_flushed_to_zero(monkeypatch):
    # Flushed to zero, word 1 would read as 0 and every small word tie with it.
    monkeypatch.setattr(streams, "_WORD_ONE", 0.0)
    with pytest.raises(RuntimeError, match="flushed to zero"):
        word_thresholds(0.5)


def test_batch_rows_are_contiguous_per_draw():
    batch = batch_uniforms(5, np.arange(10, dtype=np.uint64), 2)
    assert batch.shape == (10, 2)
    assert batch[:, 0].flags.c_contiguous and batch[:, 1].flags.c_contiguous


def test_chunk_buffers_match_batch_uniforms_as_they_grow_and_shrink():
    buffers = ChunkBuffers()
    for seed, start, size, draws in [
        (1, 0, 10, 1), (1, 5, 300, 2), (9, 2**64 - 20, 20, 2), (3, 70, 7, 1), (3, 0, 0, 2),
        (2**63, 2**40, 1000, 1), (4, 11, 400, 3),
        # Either side of one and of all 16 blocks of 4,096 ids in the key tables,
        # and ids that wrap past 2**64 within a chunk.
        (5, 3, 4095, 2), (5, 9, 4096, 1), (6, 2**33, 4097, 3), (7, 1, CHUNK - 1, 2),
        (7, CHUNK, CHUNK, 1), (8, 2**64 - 5000, 9000, 2), (1, 0, 10, 1),
    ]:
        ids = np.uint64(start) + np.arange(size, dtype=np.uint64)
        rows = buffers.words(seed, start, size, draws)
        assert rows.shape == (draws, size) and rows.dtype == np.float64
        assert np.array_equal(_uniforms(rows), batch_uniforms(seed, ids, draws).T)


@pytest.mark.parametrize("draws", [1, 2])
def test_chunk_words_across_a_chunk_edge_are_batch_uniforms_exactly(draws):
    # Every word of a chunk that starts 700 ids before a chunk edge, scaled
    # by 2**-53, against batch_uniforms of the same ids; words lie below 2**53.
    buffers = ChunkBuffers()
    buffers.words(8, 0, CHUNK, 3)  # warm, holding another seed's rows
    seed, start = 2**64 - 3, CHUNK - 700
    words = buffers.words(seed, start, CHUNK, draws)
    ids = np.arange(start, start + CHUNK, dtype=np.uint64)
    assert words.view(np.uint64).max() < 2**53
    assert np.array_equal(_uniforms(words), batch_uniforms(seed, ids, draws).T)


@pytest.mark.parametrize("draws", [1, 2])
def test_chunk_rows_across_a_chunk_edge_match_scalar_streams(draws):
    # Pure-Python TrialStream draws, an oracle that shares no code with the
    # batch mixer, at each end of the call, either side of the chunk edge
    # it spans and either side of a 4,096-id key block.
    buffers = ChunkBuffers()
    buffers.words(8, 0, CHUNK, 3)  # warm, holding another seed's rows
    seed, start = 2**64 - 3, CHUNK - 700
    rows = _uniforms(buffers.words(seed, start, CHUNK, draws))
    for i in [0, 1, 699, 700, 701, 4095, 4096, CHUNK - 2, CHUNK - 1]:
        assert rows[:, i].tolist() == TrialStream(seed, start + i).uniforms(draws).tolist()


@pytest.mark.parametrize("draws", [1, 2])
def test_warm_chunk_buffers_allocate_nothing_per_chunk(draws):
    # Each draw is mixed into a word where it lies, so no row is copied.
    buffers = ChunkBuffers()
    buffers.words(1, 0, CHUNK, 2)
    assert traced_peak(lambda: buffers.words(3, 17, CHUNK, draws)) < 16 * 1024


def test_work_rows_leave_the_word_rows_alone():
    buffers = ChunkBuffers()
    for size in (CHUNK, 4097, 1):
        rows = buffers.words(6, 40, size, 2)
        work = buffers.work_rows(8, size)
        work.fill(True)
        assert work.shape == (8, size) and work.dtype == bool and work.all()
        ids = np.arange(40, 40 + size, dtype=np.uint64)
        assert np.array_equal(_uniforms(rows), batch_uniforms(6, ids, 2).T)


def test_module_arrays_fit_in_64_kib():
    # Every sampled process keeps these for its lifetime.
    arrays = [v for v in vars(streams).values() if isinstance(v, np.ndarray)]
    assert arrays and sum(a.nbytes for a in arrays) < 64 * 1024


def test_chunk_buffers_reject_more_than_a_chunk():
    with pytest.raises(ValueError, match="at most"):
        ChunkBuffers().words(1, 0, CHUNK + 1, 1)


def _affinity_count():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.parametrize("chunks", [0, 1, 7, 8, 15, 16, 17, 24, 1000, 10**9])
def test_workers_never_exceed_the_cpus_or_one_per_eight_chunks(chunks):
    assert streams._workers(chunks) == max(1, min(_affinity_count(), chunks // 8))


def test_workers_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert [streams._workers(n) for n in (7, 16, 24, 80)] == [1, 2, 3, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert streams._workers(80) == 1


def _claimed(ranges):
    """Each range's chunks as (start, size), in id order, as map_chunks handed them out."""
    seen = [[] for _ in ranges]

    def note(buffers, r, start, size, tally):
        seen[r].append((start, size))

    assert streams.map_chunks(note, ranges) == [[] for _ in ranges]
    return [sorted(chunks) for chunks in seen]


def _count_sizes(buffers, r, start, size, tally):
    tally[0] += size
    tally[1] += 1


def test_map_chunks_gives_every_chunk_once_at_any_worker_count(monkeypatch):
    start, count = CHUNK - 5, 3 * CHUNK + 9
    expected = [(CHUNK - 5, CHUNK), (2 * CHUNK - 5, CHUNK), (3 * CHUNK - 5, CHUNK),
                (4 * CHUNK - 5, 9)]
    for workers in (1, 2, 3, 9):
        monkeypatch.setattr(streams, "_workers", lambda chunks: workers)
        assert _claimed([(start, count)]) == [expected]
        assert streams.map_chunks(_count_sizes, [(start, count)], 2) == [[count, 4]]
    assert _claimed([(7, 0)]) == [[]]
    assert streams.map_chunks(_count_sizes, [(7, 0)], 2) == [[0, 0]]
    assert _claimed([]) == []


def test_no_chunk_spans_two_ranges_that_meet_inside_a_chunk(monkeypatch):
    # The second range starts 100 ids into the chunk the first one ends in.
    ranges = [(CHUNK - 5, CHUNK + 105), (2 * CHUNK + 100, CHUNK + 1), (3 * CHUNK + 101, 0)]
    expected = [
        [(CHUNK - 5, CHUNK), (2 * CHUNK - 5, 105)],
        [(2 * CHUNK + 100, CHUNK), (3 * CHUNK + 100, 1)],
        [],
    ]
    for workers in (1, 2, 3):
        monkeypatch.setattr(streams, "_workers", lambda chunks: workers)
        assert _claimed(ranges) == expected
    assert streams.map_chunks(_count_sizes, ranges, 2) == [
        [CHUNK + 105, 2], [CHUNK + 1, 2], [0, 0]]


def test_each_worker_tallies_in_its_own_counters(monkeypatch):
    # Two workers, and the first chunk finishes only once a later one has
    # been tallied: no chunk waits for another, and each thread adds to
    # counters no other thread touches, which map_chunks sums once joined.
    monkeypatch.setattr(streams, "_workers", lambda chunks: 2)
    tallied = threading.Event()
    owners = {}

    def count(buffers, r, start, size, tally):
        if start == 0:
            assert tallied.wait(timeout=10.0), "a later chunk waited for the first one"
        owner = owners.setdefault(id(tally), threading.get_ident())
        assert owner == threading.get_ident()
        tally[0] += size
        tallied.set()

    assert streams.map_chunks(count, [(0, 2 * CHUNK + 1)], 1) == [[2 * CHUNK + 1]]
    assert len(set(owners.values())) == len(owners) == 2
    assert threading.active_count() == 1


def test_many_workers_switching_often_run_every_chunk_once(monkeypatch):
    # More workers than cores, each handing over the interpreter lock every
    # microsecond: a chunk claimed twice or never shows in the call log, and
    # a chunk written to rows not its own shows in the uniforms.
    monkeypatch.setattr(streams, "CHUNK", 16)
    monkeypatch.setattr(streams, "_workers", lambda chunks: 12)
    calls = []
    rows = np.empty((4000, 2))

    def draw(buffers, r, start, size, tally):
        calls.append(start)
        rows[start - 5 : start - 5 + size] = _uniforms(buffers.words(3, start, size, 2)).T

    expected = batch_uniforms(3, np.arange(5, 5 + 4000, dtype=np.uint64), 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        for _ in range(3):
            calls.clear()
            rows.fill(np.nan)
            assert streams.map_chunks(draw, [(5, 4000)]) == [[]]
            assert sorted(calls) == list(range(5, 4005, 16))
            assert np.array_equal(rows, expected)
            assert streams.map_chunks(_count_sizes, [(5, 4000)], 2) == [[4000, 250]]
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 60.0
    assert threading.active_count() == 1


def test_a_worker_failure_is_raised_by_the_caller(monkeypatch):
    monkeypatch.setattr(streams, "_workers", lambda chunks: 3)

    def fail_on_chunk_five(buffers, r, start, size, tally):
        if start == 5 * CHUNK:
            raise ValueError("chunk five")
        _count_sizes(buffers, r, start, size, tally)

    with pytest.raises(ValueError, match="chunk five"):
        streams.map_chunks(fail_on_chunk_five, [(0, 40 * CHUNK)], 2)
    assert threading.active_count() == 1
    assert streams.map_chunks(fail_on_chunk_five, [(0, 3 * CHUNK + 1)], 2) == [[3 * CHUNK + 1, 4]]
