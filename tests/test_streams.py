import numpy as np
import pytest
from hypothesis import given, strategies as st

from wishminors import DomainError
from wishminors.streams import chunk_sizes, map_ordered, substreams


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=257),
)
def test_chunk_sizes_partition_the_total(total, chunks):
    sizes = chunk_sizes(total, chunks)
    assert len(sizes) == chunks
    assert sum(sizes) == total
    assert max(sizes) - min(sizes) <= 1
    # larger chunks come first, so the layout is a pure function of inputs
    assert sizes == sorted(sizes, reverse=True)


def test_substreams_are_independent_and_reproducible():
    a = substreams(42, 4)
    b = substreams(42, 4)
    draws_a = [g.standard_normal(8) for g in a]
    draws_b = [g.standard_normal(8) for g in b]
    for x, y in zip(draws_a, draws_b):
        assert np.array_equal(x, y)
    # different substreams differ
    assert not np.array_equal(draws_a[0], draws_a[1])


def test_substreams_prefix_stability():
    # first k streams of a larger spawn match a smaller spawn
    few = [g.standard_normal(4) for g in substreams(7, 2)]
    many = [g.standard_normal(4) for g in substreams(7, 5)[:2]]
    for x, y in zip(few, many):
        assert np.array_equal(x, y)


def test_seed_validation():
    with pytest.raises(DomainError):
        substreams(-1, 2)
    with pytest.raises(DomainError):
        substreams(2**64, 2)


def test_map_ordered_matches_serial():
    items = list(range(23))
    assert map_ordered(lambda x: x * x, iter(items)) == [x * x for x in items]
