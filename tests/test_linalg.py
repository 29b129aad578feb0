import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wishminors import (
    BlockPartition,
    DimensionMismatch,
    NotPositiveDefinite,
    SpdMatrix,
    cholesky,
    leading_logdets,
    schur_complement,
)
from conftest import random_partition, random_spd

REL = 1e-10


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(2)), np.eye(2))

    def test_hand_elimination(self):
        low = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(low, [[2.0, 0.0], [1.0, 2.0]], rtol=0, atol=1e-14)
        assert np.allclose(low @ low.T, [[4.0, 2.0], [2.0, 5.0]], rtol=REL)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))

    def test_pure_bitwise(self, rng):
        m = random_spd(rng, 5)
        assert np.array_equal(cholesky(m), cholesky(m.copy()))


class TestSpdMatrix:
    def test_reconstruction_and_logdet(self, rng):
        for dim in (1, 3, 8, 16):
            a = random_spd(rng, dim, cond=1e4)
            m = SpdMatrix.from_array(a)
            sign, logdet = np.linalg.slogdet(a)
            assert sign > 0
            (ld,) = leading_logdets(m, BlockPartition((dim,)))
            assert ld == pytest.approx(logdet, rel=REL)

    def test_entries_read_only(self, rng):
        m = SpdMatrix.from_array(random_spd(rng, 3))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 9.0

    def test_symmetrize_option(self):
        # Callers symmetrize before they build; asymmetric input is refused.
        a = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
        with pytest.raises(NotPositiveDefinite):
            SpdMatrix.from_array(a)


class TestBlockPartition:
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8))
    def test_prefix_sums(self, sizes):
        part = BlockPartition(tuple(sizes))
        assert part.prefix[0] == 0
        assert part.total == sum(sizes)
        for k, s in enumerate(sizes, start=1):
            assert part.prefix[k] - part.prefix[k - 1] == s

    def test_rejects_bad_sizes(self):
        with pytest.raises(DimensionMismatch):
            BlockPartition(())
        with pytest.raises(DimensionMismatch):
            BlockPartition((2, 0))


class TestLeadingLogdets:
    def test_identity(self):
        m = SpdMatrix.from_array(np.eye(4))
        assert np.allclose(leading_logdets(m, BlockPartition((2, 2))), 0.0, atol=1e-15)

    def test_hand_checked(self):
        m = SpdMatrix.from_array(np.array([[4.0, 2.0], [2.0, 5.0]]))
        got = leading_logdets(m, BlockPartition((1, 1)))
        assert got == pytest.approx([math.log(4), math.log(16)], rel=REL)

    def test_against_subdeterminant_oracle(self, rng):
        a = random_spd(rng, 6, cond=1e4)
        m = SpdMatrix.from_array(a)
        got = leading_logdets(m, BlockPartition((2, 2, 2)))
        for val, stop in zip(got, (2, 4, 6)):
            _, want = np.linalg.slogdet(a[:stop, :stop])
            assert val == pytest.approx(want, rel=REL)

    def test_dim_mismatch(self, rng):
        m = SpdMatrix.from_array(random_spd(rng, 4))
        with pytest.raises(DimensionMismatch):
            leading_logdets(m, BlockPartition((2, 3)))


class TestSchurComplement:
    def test_hand_values(self):
        got = schur_complement(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
        assert np.allclose(got, [[1.5]], rtol=0, atol=1e-14)
        got = schur_complement(np.array([[4.0, 2.0], [2.0, 5.0]]), 1)
        assert np.allclose(got, [[4.0]], rtol=0, atol=1e-14)

    def test_identity_any_split(self):
        for k in (1, 2, 3):
            got = schur_complement(np.eye(4), k)
            assert np.array_equal(got, np.eye(4 - k))

    def test_determinant_factorization(self, rng):
        for dim in (2, 4, 7, 16):
            a = random_spd(rng, dim, cond=1e4)
            for k in range(1, dim):
                _, full = np.linalg.slogdet(a)
                _, head = np.linalg.slogdet(a[:k, :k])
                _, tail = np.linalg.slogdet(schur_complement(a, k))
                assert full == pytest.approx(head + tail, rel=REL)

    def test_k_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            schur_complement(np.eye(3), 3)
        with pytest.raises(DimensionMismatch):
            schur_complement(np.eye(3), 0)

    def test_pure_bitwise(self, rng):
        a = random_spd(rng, 5)
        assert np.array_equal(schur_complement(a, 2), schur_complement(a.copy(), 2))


def schur_chain(m, partition):
    """Iterated Schur complements along ``partition``; stage k has k blocks eliminated."""
    stages = [np.array(m.entries)]
    for size in partition.sizes[:-1]:
        stages.append(schur_complement(stages[-1], size))
    return stages


def head_block(stages, partition, k):
    size = partition.sizes[k]
    return stages[k][:size, :size]


class TestSchurChain:
    def test_identity_stages(self):
        m = SpdMatrix.from_array(np.eye(3))
        stages = schur_chain(m, BlockPartition((1, 1, 1)))
        assert [s.shape[0] for s in stages] == [3, 2, 1]
        for s in stages:
            assert np.array_equal(s, np.eye(s.shape[0]))

    def test_two_by_two(self):
        m = SpdMatrix.from_array(np.array([[2.0, 1.0], [1.0, 2.0]]))
        stages = schur_chain(m, BlockPartition((1, 1)))
        assert np.allclose(stages[1], [[1.5]], rtol=0, atol=1e-14)

    def test_stage_determinants_multiply(self, rng):
        a = random_spd(rng, 4, cond=1e3)
        part = BlockPartition((1, 2, 1))
        stages = schur_chain(SpdMatrix.from_array(a), part)
        total = 0.0
        for k in range(3):
            _, ld = np.linalg.slogdet(head_block(stages, part, k))
            total += ld
        _, want = np.linalg.slogdet(a)
        assert total == pytest.approx(want, rel=REL)

    def test_spd_closure(self, rng):
        a = random_spd(rng, 6, cond=1e4)
        stages = schur_chain(SpdMatrix.from_array(a), BlockPartition((2, 1, 2, 1)))
        for stage in stages:
            cholesky(stage)

    def test_quotient_property(self, rng):
        # Chain stages of a leading submatrix match the full chain's stages
        # on the shared top-left blocks.
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            a = random_spd(rng, dim, cond=1e3)
            part = random_partition(rng, dim)
            full = schur_chain(SpdMatrix.from_array(a), part)
            for i in range(1, part.blocks + 1):
                p_i = part.prefix[i]
                sub_part = BlockPartition(part.sizes[:i])
                sub = schur_chain(
                    SpdMatrix.from_array(np.ascontiguousarray(a[:p_i, :p_i])), sub_part
                )
                for k in range(i):
                    want = head_block(full, part, k)
                    got = head_block(sub, sub_part, k)
                    assert np.allclose(got, want, rtol=REL, atol=0)

    def test_leading_logdets_match_stage_blocks(self, rng):
        a = random_spd(rng, 7, cond=1e3)
        m = SpdMatrix.from_array(a)
        part = BlockPartition((2, 3, 2))
        stages = schur_chain(m, part)
        lds = leading_logdets(m, part)
        acc = 0.0
        for i in range(part.blocks):
            _, ld = np.linalg.slogdet(head_block(stages, part, i))
            acc += ld
            assert lds[i] == pytest.approx(acc, rel=REL)
