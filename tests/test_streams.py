import numpy as np
import pytest
from hypothesis import given, strategies as st

from wishminors import DomainError
from wishminors.gpi import SearchConfig, _draw_instance, search
from wishminors.streams import chunk_sizes, map_ordered, stream, stream_seed, substreams

# The spawn tree as ``SeedSequence.spawn`` builds it, for seeds at both ends
# of [0, 2**64) and one between; the path rule must reach the same nodes.
SEEDS = [0, 808, 2**64 - 1]


def spawned(seed, n, i):
    return np.random.SeedSequence(seed).spawn(n)[i]


def philox(seq):
    return np.random.Generator(np.random.Philox(seq))


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
    for make in (substreams, stream, stream_seed):
        with pytest.raises(DomainError):
            make(-1, 2)
        with pytest.raises(DomainError):
            make(2**64, 2)


def test_map_ordered_matches_serial():
    items = list(range(23))
    assert map_ordered(lambda x: x * x, iter(items)) == [x * x for x in items]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("i", [1, 4])
def test_stream_is_the_spawned_child(seed, i):
    want = philox(spawned(seed, 5, i))
    got = stream(seed, i)
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
    assert np.array_equal(got.standard_normal(8), want.standard_normal(8))
    child = substreams(seed, 5)[i]
    assert np.array_equal(child.standard_normal(8), stream(seed, i).standard_normal(8))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("i", [1, 4])
def test_stream_and_seed_are_the_spawned_grandchildren(seed, i):
    grandchildren = spawned(seed, 5, i).spawn(3)
    for j, node in enumerate(grandchildren):
        want = philox(node)
        got = stream(seed, i, j)
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert np.array_equal(got.standard_normal(8), want.standard_normal(8))
        assert stream_seed(seed, i, j) == int(node.generate_state(1, np.uint64)[0])


def test_search_trials_take_their_streams_by_path():
    # Trial i draws its instance at (i, 0) and seeds its estimate and its
    # escalation at (i, 1) and (i, 2).
    config = SearchConfig(
        kind="wishart", dims=(1, 3), alpha_range=(1.0, 6.0), trials=3, samples=200, seed=808
    )
    records = sorted(search(config).trials, key=lambda r: r.index)
    assert [r.index for r in records] == [0, 1, 2]
    for i, record in enumerate(records):
        want = _draw_instance(config, stream(808, i, 0), i)
        got = record.result.instance
        assert got.params.alpha == want.params.alpha
        assert np.array_equal(got.params.sigma.entries, want.params.sigma.entries)
        assert got.query.partition.sizes == want.query.partition.sizes
        assert got.query.nu == want.query.nu
        assert record.estimate_seed == stream_seed(808, i, 1)
        assert record.escalation_seed == stream_seed(808, i, 2)
