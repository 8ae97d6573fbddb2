import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.streams import (
    ChunkBuffers,
    TrialStream,
    batch_uniforms,
    inverse_cdf,
    stream_key,
    threshold_counts,
)


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
    expected = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    assert np.array_equal(inverse_cdf(cdf, u), expected)
    per_row = np.tile(cdf, (len(u), 1))
    assert np.array_equal(inverse_cdf(per_row, u), expected)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0 / 3.0]), min_size=1, max_size=16),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_threshold_counts_match_bincount_of_indices(weights, seed):
    # Zero weights make ties; totals may stop short of 1 or pass it, which
    # puts thresholds at or above every uniform.
    cdf = np.cumsum(weights)
    u = batch_uniforms(seed, np.arange(500, dtype=np.uint64), 1)[:, 0]
    u[:len(cdf)] = np.minimum(cdf, 1.0 - 2.0**-53)  # uniforms sitting exactly on thresholds
    expected = np.bincount(inverse_cdf(cdf, u), minlength=len(cdf))
    assert np.array_equal(threshold_counts(cdf, u), expected)
    assert np.array_equal(threshold_counts(cdf, u[:0]), np.zeros(len(cdf)))


def test_batch_rows_are_contiguous_per_draw():
    batch = batch_uniforms(5, np.arange(10, dtype=np.uint64), 2)
    assert batch.shape == (10, 2)
    assert batch[:, 0].flags.c_contiguous and batch[:, 1].flags.c_contiguous


def test_chunk_buffers_match_batch_uniforms_as_they_grow_and_shrink():
    buffers = ChunkBuffers()
    for seed, start, size, draws in [
        (1, 0, 10, 1), (1, 5, 300, 2), (9, 2**64 - 20, 20, 2), (3, 70, 7, 1), (3, 0, 0, 2),
        (2**63, 2**40, 1000, 1), (4, 11, 400, 3),
    ]:
        ids = np.uint64(start) + np.arange(size, dtype=np.uint64)
        rows = buffers.uniforms(seed, start, size, draws)
        assert rows.shape == (draws, size)
        assert np.array_equal(rows, batch_uniforms(seed, ids, draws).T)

