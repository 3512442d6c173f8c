"""chebyshev.interpolate's kept factors against tests/chebyshev_oracle.py, which builds them on every call.

interpolate keeps c = weights/(s - points), its row sums and the on-point
indices per degree and per grid (s's dtype and exact bytes), for the last
KEPT_GRIDS grids with len(s) (n + 5) <= KEPT_VALUES, and builds larger grids
per call.  Either way the result must be the oracle's bit for bit, on a
first call and on the cache hit after it; level points, the ends 0 and 1,
duplicates and NaN in s included, and grids of one block, one point short
of it, one past it and two blocks and more.  The kept arrays are read-only,
every result is a new array, and many grids hold no more than the bound.
"""

import gc
import math
import tracemalloc

import chebyshev_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refleq import chebyshev
from refleq.chebyshev import BLOCK, KEPT_GRIDS, KEPT_VALUES

DEGREES = (1, 16, 32, 64, 256)
LENGTHS = (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7)


@st.composite
def samplings(draw):
    """(values, s): s mixes level points, 0, 1, NaN and their duplicates into uniform points, short or BLOCK-sized."""
    n = draw(st.sampled_from(DEGREES))
    special = st.sampled_from([*chebyshev.level(n).points.tolist(), 0.0, 1.0, math.nan])
    head = draw(st.lists(st.one_of(special, st.floats(0.0, 1.0)), max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.sampled_from((len(head),) + LENGTHS))
    s = rng.uniform(0.0, 1.0, length)
    if head and length > len(head):  # each drawn point twice, at random places in the whole grid
        s[rng.choice(length, 2 * len(head), replace=False)] = head + head
    else:
        s[: len(head)] = head
    return rng.standard_normal((n + 1, draw(st.sampled_from((1, 2, 3))))), s


def _bits(a):
    return a.view(np.int64)


@settings(max_examples=120)
@given(samplings())
def test_interpolate_is_the_oracle_bit_for_bit_and_again_from_the_cache(sampling):
    values, s = sampling
    with np.errstate(over="ignore"):  # c overflows within about 1e-308 of a point, in the oracle as in the library
        expected = _bits(chebyshev_oracle.interpolate(values, s))
        assert np.array_equal(_bits(chebyshev.interpolate(values, s)), expected)
        hits = chebyshev._sampling.cache_info().hits
        assert np.array_equal(_bits(chebyshev.interpolate(values, s.copy())), expected)  # the same bytes, another array
    kept = len(s) * (len(values) + 4) <= KEPT_VALUES
    assert chebyshev._sampling.cache_info().hits == hits + kept


@pytest.mark.parametrize("length", LENGTHS)
def test_every_kind_of_point_at_each_block_length(length):
    n = 16
    points = chebyshev.level(n).points
    s = np.resize(np.concatenate([points, [0.0, 1.0, math.nan, 0.25, 0.25]]), length)
    values = np.random.default_rng(length).standard_normal((n + 1, 2))
    expected = _bits(chebyshev_oracle.interpolate(values, s))
    for _ in range(2):
        assert np.array_equal(_bits(chebyshev.interpolate(values, s)), expected)


def test_a_grid_of_another_dtype_with_the_same_bytes_is_another_grid():
    values = np.random.default_rng(2).standard_normal((17, 1))
    for s in (np.array([0.5, 0.75]), np.array([0.5, 0.75]).view(np.float32), np.array([0.5, 0.75]).view(np.int64)):
        with np.errstate(over="ignore", invalid="ignore"):  # the float32 and int64 readings lie far outside [0, 1]
            expected = _bits(chebyshev_oracle.interpolate(values, s))
            assert np.array_equal(_bits(chebyshev.interpolate(values, s)), expected)


def test_the_kept_arrays_are_read_only():
    s = np.linspace(0.0, 1.0, 101)
    chebyshev.interpolate(np.ones((17, 1)), s)
    for array in chebyshev._sampling(16, s.dtype.str, s.tobytes()):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_each_result_is_a_new_array():
    values, s = np.random.default_rng(1).standard_normal((17, 2)), np.linspace(0.0, 1.0, 101)
    first = chebyshev.interpolate(values, s)
    expected = first.copy()
    first[...] = 7.0
    second = chebyshev.interpolate(values, s)
    assert not np.shares_memory(first, second)
    assert np.array_equal(second, expected)


def test_the_kept_grids_stay_within_the_bound_and_an_oversize_grid_is_not_kept():
    # len(s) (n + 5) values: c's n + 1 columns, its sums, the key's bytes and the two on-point index arrays, which
    # are longest where every point of s lies on a point of the level
    n = 16
    assert KEPT_GRIDS * KEPT_VALUES * 8 <= 8.7e6  # the bound the docstring states
    length = KEPT_VALUES // (n + 5)
    on_points = np.resize(chebyshev.level(n).points, length)
    grids = [np.roll(on_points, j) for j in range(3 * KEPT_GRIDS)]
    values = np.ones((n + 1, 2))
    chebyshev._sampling.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for s in grids:
            chebyshev.interpolate(values, s)
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - base <= KEPT_GRIDS * KEPT_VALUES * 8 + 65536  # object headers
    finally:
        tracemalloc.stop()
    assert chebyshev._sampling.cache_info().currsize == KEPT_GRIDS
    misses = chebyshev._sampling.cache_info().misses
    oversize = np.linspace(0.0, 1.0, length + 1)
    assert np.array_equal(_bits(chebyshev.interpolate(values, oversize)), _bits(chebyshev_oracle.interpolate(values, oversize)))
    assert chebyshev._sampling.cache_info().misses == misses  # built per call, not kept
    chebyshev._sampling.cache_clear()
