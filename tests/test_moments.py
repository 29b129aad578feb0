import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wishminors import (
    BlockPartition,
    DimensionMismatch,
    DomainError,
    MomentQuery,
    NotBlockDiagonal,
    SingularRegime,
    SpdMatrix,
    WishartParams,
    block_moments_log,
    disjoint_moment_block_diag_log,
    disjoint_moment_log,
    embedded_moment_log,
    single_minor_moment_log,
)
from conftest import random_partition, random_spd

# Frozen pre-build oracle for the (alpha=4, I3, blocks (1,2), nu=(0.5,1.5))
# configuration: 1e7 independent sum-of-outer-products draws, evaluated via
# slogdet, on a generator unrelated to the package's samplers.
GOLDEN_MC_MEAN = 575.841145429357
GOLDEN_MC_STDERR = 0.9561050196704981


def spd(a):
    return SpdMatrix.from_array(np.asarray(a, dtype=float))


def params(alpha, sigma):
    return WishartParams(alpha=alpha, sigma=sigma)


class TestMomentQuery:
    @given(st.lists(st.floats(min_value=0, max_value=8), min_size=1, max_size=6))
    def test_suffix_recursion(self, nu):
        part = BlockPartition((1,) * len(nu))
        q = MomentQuery(partition=part, nu=tuple(nu))
        ext = q.suffix + (0.0,)
        for k in range(len(nu)):
            assert ext[k] == pytest.approx(q.nu[k] + ext[k + 1], abs=1e-12)
        assert all(a >= b for a, b in zip(q.suffix, q.suffix[1:]))

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            MomentQuery(partition=BlockPartition((2,)), nu=(-0.5,))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0,))


class TestSingleMinorMoment:
    def test_chi_square_mean(self):
        assert single_minor_moment_log(params(2.0, spd([[1.0]])), 1.0) == pytest.approx(
            math.log(2), abs=1e-13
        )

    def test_zero_exponent(self):
        assert single_minor_moment_log(params(2.0, spd([[1.0]])), 0.0) == 0.0

    def test_bivariate_determinant_mean(self):
        # E det X = alpha (alpha - 1) det Sigma for p = 2
        got = single_minor_moment_log(params(3.0, spd(np.eye(2))), 1.0)
        assert got == pytest.approx(math.log(6), abs=1e-13)

    def test_alpha_at_boundary_rejected(self):
        with pytest.raises(DomainError):
            single_minor_moment_log(params(1.0, spd(np.eye(2))), 1.0)

    def test_scale_covariance(self, rng):
        base = random_spd(rng, 3, cond=50.0)
        for c in (0.25, 4.0):
            a = single_minor_moment_log(params(5.0, spd(base)), 1.25)
            b = single_minor_moment_log(params(5.0, spd(c * base)), 1.25)
            assert b - a == pytest.approx(1.25 * 3 * math.log(c), abs=1e-10)


class TestEmbeddedMoment:
    def test_all_zero_exponents(self, rng):
        sigma = spd(random_spd(rng, 4))
        q = MomentQuery(partition=BlockPartition((2, 2)), nu=(0.0, 0.0))
        em = embedded_moment_log(params(5.0, sigma), q)
        assert em.log_value == 0.0

    def test_single_block_collapse(self, rng):
        sigma = spd(random_spd(rng, 3, cond=30.0))
        q = MomentQuery(partition=BlockPartition((3,)), nu=(1.75,))
        em = embedded_moment_log(params(4.5, sigma), q)
        want = single_minor_moment_log(params(4.5, sigma), 1.75)
        assert em.log_value == pytest.approx(want, abs=1e-11)

    def test_two_scalar_blocks(self):
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        em = embedded_moment_log(params(3.0, spd(np.eye(2))), q)
        assert math.exp(em.log_value) == pytest.approx(30.0, rel=1e-12)

    def test_golden_oracle(self):
        q = MomentQuery(partition=BlockPartition((1, 2)), nu=(0.5, 1.5))
        em = embedded_moment_log(params(4.0, spd(np.eye(3))), q)
        assert abs(math.exp(em.log_value) - GOLDEN_MC_MEAN) <= 4 * GOLDEN_MC_STDERR

    def test_factors_sum_to_log_value(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 8))
            part = random_partition(rng, dim)
            nu = tuple(rng.uniform(0, 2.5, size=part.blocks))
            sigma = spd(random_spd(rng, dim, cond=100.0))
            em = embedded_moment_log(params(dim + 1.5, sigma), MomentQuery(part, nu))
            total = sum(f.det_term + f.gamma_term for f in em.factors)
            assert em.log_value == pytest.approx(total, abs=1e-12)

    def test_suffix_only_last_block(self, rng):
        # nu = (0, ..., 0, v) reduces to the full-matrix single minor
        sigma = spd(random_spd(rng, 5, cond=200.0))
        part = BlockPartition((2, 2, 1))
        q = MomentQuery(partition=part, nu=(0.0, 0.0, 1.3))
        em = embedded_moment_log(params(6.0, sigma), q)
        want = single_minor_moment_log(params(6.0, sigma), 1.3)
        assert em.log_value == pytest.approx(want, abs=1e-11)

    def test_scaling_covariance(self, rng):
        base = random_spd(rng, 4, cond=100.0)
        part = BlockPartition((1, 2, 1))
        nu = (0.5, 1.0, 2.0)
        q = MomentQuery(partition=part, nu=nu)
        a = embedded_moment_log(params(5.0, spd(base)), q).log_value
        for c in (0.1, 3.0):
            b = embedded_moment_log(params(5.0, spd(c * base)), q).log_value
            want = sum(v * pi * math.log(c) for v, pi in zip(nu, part.prefix[1:]))
            assert b - a == pytest.approx(want, abs=1e-10)

    def test_permutation_within_block(self, rng):
        # shuffling rows/columns inside one block leaves block minors alone
        base = random_spd(rng, 5, cond=50.0)
        part = BlockPartition((2, 3))
        q = MomentQuery(partition=part, nu=(1.2, 0.7))
        perm = np.array([0, 1, 4, 2, 3])  # permutes only the second block
        shuffled = base[np.ix_(perm, perm)]
        a = embedded_moment_log(params(6.5, spd(base)), q).log_value
        b = embedded_moment_log(params(6.5, spd(shuffled)), q).log_value
        assert a == pytest.approx(b, abs=1e-10)

    def test_domain_and_dimension_errors(self):
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        with pytest.raises(DomainError):
            embedded_moment_log(params(1.0, spd(np.eye(2))), q)
        with pytest.raises(DimensionMismatch):
            embedded_moment_log(params(4.0, spd(np.eye(3))), q)


@pytest.mark.parametrize(
    "disjoint",
    [lambda p, q: disjoint_moment_log(p, q).log_value, disjoint_moment_block_diag_log],
    ids=["oracle", "log-value"],
)
class TestDisjointBlockDiag:
    def test_independent_chi_squares(self, disjoint):
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        got = disjoint(params(2.0, spd(np.eye(2))), q)
        assert math.exp(got) == pytest.approx(4.0, rel=1e-12)

    def test_scaled_diagonal(self, disjoint):
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        got = disjoint(params(3.0, spd(np.diag([2.0, 3.0]))), q)
        assert math.exp(got) == pytest.approx(54.0, rel=1e-12)

    def test_equals_sum_of_single_minors(self, rng, disjoint):
        blocks = [random_spd(rng, 2, cond=20.0), random_spd(rng, 3, cond=20.0)]
        sigma = np.zeros((5, 5))
        sigma[:2, :2] = blocks[0]
        sigma[2:, 2:] = blocks[1]
        q = MomentQuery(partition=BlockPartition((2, 3)), nu=(1.5, 0.5))
        got = disjoint(params(6.0, spd(sigma)), q)
        want = single_minor_moment_log(params(6.0, spd(blocks[0])), 1.5) + (
            single_minor_moment_log(params(6.0, spd(blocks[1])), 0.5)
        )
        assert got == pytest.approx(want, abs=1e-11)

    def test_off_block_coupling_refused(self, disjoint):
        sigma = spd([[1.0, 0.5], [0.5, 1.0]])
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        with pytest.raises(NotBlockDiagonal) as err:
            disjoint(params(2.0, sigma), q)
        assert "0, 1" in str(err.value) or "1, 0" in str(err.value)

    def test_tolerance_scales_with_diagonal(self, disjoint):
        # coupling at 1e-13 of the largest diagonal entry passes
        sigma = np.diag([1e4, 1e4])
        sigma[0, 1] = sigma[1, 0] = 1e-9
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        got = disjoint(params(2.0, spd(sigma)), q)
        assert math.exp(got) == pytest.approx(4.0 * 1e8, rel=1e-9)

    def test_singular_alpha_unit_blocks(self, disjoint):
        # alpha = 1 on unit blocks: independent chi2(1) entries, each of mean 1.
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        got = disjoint(params(1.0, spd(np.eye(2))), q)
        assert math.exp(got) == pytest.approx(1.0, rel=1e-12)


class TestBlockMoments:
    def test_marginal_product_for_any_scale(self, rng):
        # Off-block coupling is allowed: each factor is one block's marginal
        # moment, and a singular shape is fine while alpha > p_k - 1.
        sigma = random_spd(rng, 4, cond=20.0)
        part = BlockPartition((1, 2, 1))
        q = MomentQuery(partition=part, nu=(1.5, 0.5, 2.0))
        for alpha in (2.0, 5.5):
            got = block_moments_log(params(alpha, spd(sigma)), q)
            assert [f.block for f in got.factors] == [1, 2, 3]
            for k, f in enumerate(got.factors):
                a, b = part.prefix[k], part.prefix[k + 1]
                want = single_minor_moment_log(params(alpha, spd(sigma[a:b, a:b])), q.nu[k])
                assert f.det_term + f.gamma_term == pytest.approx(want, abs=1e-12)
            assert got.log_value == sum(f.det_term + f.gamma_term for f in got.factors)
        with pytest.raises(SingularRegime, match="blocks of size <= alpha"):
            block_moments_log(params(1.0, spd(sigma)), q)
        with pytest.raises(DimensionMismatch):
            block_moments_log(params(5.5, spd(sigma[:3, :3])), q)


class TestDisjointOracle:
    def test_factors_are_the_block_product(self, rng):
        sigma = np.zeros((4, 4))
        sigma[:1, :1] = 2.0
        sigma[1:3, 1:3] = random_spd(rng, 2, cond=20.0)
        sigma[3:, 3:] = 0.5
        q = MomentQuery(partition=BlockPartition((1, 2, 1)), nu=(1.5, 0.5, 2.0))
        got = disjoint_moment_log(params(5.5, spd(sigma)), q)
        want = block_moments_log(params(5.5, spd(sigma)), q)
        assert got.factors == want.factors  # MomentFactor equality is field for field
        assert got.log_value == want.log_value

    def test_zero_exponent_block_may_be_coupled(self):
        # A block with exponent 0 is a factor of exactly 1, so its coupling
        # does not matter: the value is block 1's marginal moment.
        sigma = spd([[1.0, 0.5], [0.5, 1.0]])
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 0.0))
        got = disjoint_moment_log(params(3.0, sigma), q)
        assert got == block_moments_log(params(3.0, sigma), q)
        assert math.exp(got.log_value) == pytest.approx(3.0, rel=1e-12)  # E X_11 = alpha

    @pytest.mark.parametrize("s13", [0.0, 0.3], ids=["uncoupled", "coupled"])
    def test_only_weighted_blocks_are_checked(self, s13):
        # Blocks 1 and 3 carry the exponents and block 2 is coupled to both;
        # blocks 1 and 3 are independent exactly when sigma_13 = 0.
        sigma = spd([[2.0, 0.5, s13], [0.5, 1.0, 0.4], [s13, 0.4, 1.5]])
        q = MomentQuery(partition=BlockPartition((1, 1, 1)), nu=(1.0, 0.0, 1.0))
        if s13 == 0.0:
            got = disjoint_moment_log(params(4.0, sigma), q)
            assert got == block_moments_log(params(4.0, sigma), q)
            return
        with pytest.raises(NotBlockDiagonal) as err:
            disjoint_moment_log(params(4.0, sigma), q)
        assert "0, 2" in str(err.value) or "2, 0" in str(err.value)

    def test_coupled_scale_refused_alike(self, rng):
        p = params(5.5, spd(random_spd(rng, 3, cond=20.0)))
        q = MomentQuery(partition=BlockPartition((1, 2)), nu=(1.5, 0.5))
        with pytest.raises(NotBlockDiagonal) as oracle:
            disjoint_moment_log(p, q)
        with pytest.raises(NotBlockDiagonal) as log_value:
            disjoint_moment_block_diag_log(p, q)
        assert str(oracle.value) == str(log_value.value)
