import math
import tracemalloc

import numpy as np
import pytest

from wishminors import (
    DomainError,
    NonIntegerAlpha,
    SingularRegime,
    SpdMatrix,
    WishartParams,
    sample_bartlett,
    sample_gaussian_sum,
)
from wishminors.streams import chunk_sizes, substreams
from wishminors.wishart import _bartlett_dofs, _bartlett_variates, _factor_rows
from conftest import random_spd, reference_factor


def params_of(alpha, sigma):
    return WishartParams(alpha=alpha, sigma=SpdMatrix.from_array(sigma))


class TestWishartParams:
    def test_regimes(self):
        assert params_of(2.5, np.eye(2)).nonsingular is True
        assert params_of(0.5, np.eye(1)).nonsingular is True
        assert params_of(2.0, np.eye(3)).nonsingular is False
        assert params_of(1.0, np.eye(2)).nonsingular is False

    def test_inadmissible_shapes(self):
        with pytest.raises(DomainError):
            params_of(0.0, np.eye(2))  # degenerate point mass
        with pytest.raises(DomainError):
            params_of(1.5, np.eye(3))  # non-integer below dim - 1
        with pytest.raises(DomainError):
            params_of(-1.0, np.eye(1))

    def test_refusal_names_integer_ranks_only_from_dim_two(self):
        # A 1x1 scale has no singular rank: every alpha > 0 is nonsingular.
        with pytest.raises(DomainError, match=r"dimension 1: need a finite alpha > 0$"):
            params_of(0.0, np.eye(1))
        with pytest.raises(DomainError, match=r"alpha > 2 or an integer in \[1, 2\]$"):
            params_of(1.5, np.eye(3))


class TestSampleBartlett:
    def test_empty_batch(self):
        batch = sample_bartlett(params_of(3.0, np.eye(2)), 0, seed=0)
        assert batch.draws.shape == (0, 2, 2)
        assert batch.factors.shape == (0, 2, 2)

    def test_reproducible_across_calls(self):
        pr = params_of(3.5, [[2.0, 1.0], [1.0, 3.0]])
        a = sample_bartlett(pr, 50, seed=9)
        b = sample_bartlett(pr, 50, seed=9)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.factors, b.factors)

    def test_factors_reconstruct_draws(self, rng):
        pr = params_of(4.0, random_spd(rng, 3, cond=10.0))
        batch = sample_bartlett(pr, 20, seed=4)
        rebuilt = np.matmul(batch.factors, batch.factors.transpose(0, 2, 1))
        assert np.allclose(batch.draws, rebuilt, rtol=1e-12, atol=1e-12)

    def test_draws_are_spd_symmetric(self, rng):
        pr = params_of(3.2, random_spd(rng, 3, cond=10.0))
        batch = sample_bartlett(pr, 200, seed=2)
        assert np.array_equal(batch.draws, batch.draws.transpose(0, 2, 1))
        assert np.all(np.linalg.eigvalsh(batch.draws) > 0)

    def test_mean_univariate(self):
        batch = sample_bartlett(params_of(2.0, [[1.0]]), 100_000, seed=3)
        x = batch.draws[:, 0, 0]
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 2.0) <= 4 * se

    def test_mean_matrix(self):
        sigma = np.array([[2.0, 1.0], [1.0, 3.0]])
        batch = sample_bartlett(params_of(5.0, sigma), 100_000, seed=8)
        for i in range(2):
            for j in range(2):
                x = batch.draws[:, i, j]
                se = x.std(ddof=1) / math.sqrt(x.size)
                assert abs(x.mean() - 5.0 * sigma[i, j]) <= 4 * se

    def test_singular_regime_refused(self):
        with pytest.raises(SingularRegime):
            sample_bartlett(params_of(2.0, np.eye(3)), 10, seed=0)

    def test_chi_square_moments(self):
        # the squared factor diagonal of a unit-scale draw is chi-square;
        # check mean k, variance 2k, third central moment 8k
        pr = params_of(7.0, np.eye(3))
        batch = sample_bartlett(pr, 1_000_000, seed=12)
        t_diag = np.diagonal(batch.factors, axis1=1, axis2=2) ** 2
        for j, k in enumerate([7.0, 6.0, 5.0]):
            x = t_diag[:, j]
            n = x.size
            mean = x.mean()
            se_mean = x.std(ddof=1) / math.sqrt(n)
            assert abs(mean - k) <= 5 * se_mean
            c = x - mean
            var = (c**2).mean()
            se_var = (c**2).std(ddof=1) / math.sqrt(n)
            assert abs(var - 2 * k) <= 5 * se_var
            m3 = (c**3).mean()
            se_m3 = (c**3).std(ddof=1) / math.sqrt(n)
            assert abs(m3 - 8 * k) <= 5 * se_m3


class TestSampleGaussianSum:
    def test_non_integer_alpha_refused(self):
        with pytest.raises(NonIntegerAlpha):
            sample_gaussian_sum(params_of(2.5, np.eye(2)), 10, seed=0)

    def test_single_term_squares(self):
        batch = sample_gaussian_sum(params_of(1.0, [[1.0]]), 1_000_000, seed=5)
        x = batch.draws[:, 0, 0]
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) <= 4 * se

    def test_mean_identity_scale(self):
        batch = sample_gaussian_sum(params_of(3.0, np.eye(2)), 200_000, seed=6)
        for i in range(2):
            for j in range(2):
                x = batch.draws[:, i, j]
                se = x.std(ddof=1) / math.sqrt(x.size) or 1e-12
                assert abs(x.mean() - (3.0 if i == j else 0.0)) <= 4 * se

    def test_rank_deficient_draws(self):
        # one outer product in dimension 2: determinant 0 up to roundoff
        batch = sample_gaussian_sum(params_of(1.0, np.eye(2)), 500, seed=7)
        dets = np.linalg.det(batch.draws)
        scale = np.abs(batch.draws).max(axis=(1, 2)) ** 2
        assert np.all(np.abs(dets) <= 1e-12 * np.maximum(scale, 1.0))

    def test_reproducible(self):
        pr = params_of(2.0, [[1.0, 0.25], [0.25, 1.0]])
        a = sample_gaussian_sum(pr, 64, seed=11)
        b = sample_gaussian_sum(pr, 64, seed=11)
        assert np.array_equal(a.draws, b.draws)
        assert a.factors is None


SAMPLERS = [("bartlett", sample_bartlett), ("gaussian-sum", sample_gaussian_sum)]


class TestBatchLayout:
    @pytest.mark.parametrize("method, sampler", SAMPLERS, ids=["bartlett", "gaussian_sum"])
    def test_matches_chunkwise_reference(self, rng, method, sampler):
        # 1001 = 64 * 15 + 41: the chunks differ in size, and each writes
        # its own rows of one array.
        pr = params_of(7.0, random_spd(rng, 6, cond=10.0))
        count = 1001
        draw = reference_factor(pr, method)
        t = np.concatenate([
            draw(g, m) for g, m in zip(substreams(13, 64), chunk_sizes(count, 64))
        ])
        x = np.matmul(t, t.transpose(0, 2, 1))
        batch = sampler(pr, count, seed=13)
        # The sampler's row recurrence and Gram round differently from the
        # reference's BLAS products: entry (r, s) may move by 1e-14 of
        # sqrt(x_rr x_ss), the scale of |T_r| |T_s| (largest seen 5e-16).
        norms = np.sqrt(np.diagonal(x, axis1=1, axis2=2))
        scale = norms[:, :, None] * norms[:, None, :]
        assert np.all(np.abs(batch.draws - x) <= 1e-14 * scale)
        assert np.array_equal(batch.draws, batch.draws.transpose(0, 2, 1))
        if method == "bartlett":
            assert np.all(np.abs(batch.factors - t) <= 1e-14 * norms[:, :, None])
            assert np.all(np.triu(batch.factors, k=1) == 0.0)
        assert not batch.draws.flags.writeable
        assert batch.factors is None or not batch.factors.flags.writeable

    @pytest.mark.parametrize(
        "sampler", [sample_bartlett, sample_gaussian_sum], ids=["bartlett", "gaussian_sum"]
    )
    def test_peak_memory_is_the_batch(self, rng, sampler):
        # Chunks write into the returned arrays, so beyond them only one
        # chunk's temporaries are alive at a time.
        pr = params_of(7.0, random_spd(rng, 6, cond=10.0))
        tracemalloc.start()
        try:
            batch = sampler(pr, 20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = batch.draws.nbytes + (batch.factors.nbytes if batch.factors is not None else 0)
        assert peak <= 1.25 * held


def recurrence_rows(chol, chisq, normals):
    """T's batch-last rows by the package's row recurrence, from fresh variates."""
    d, z = np.sqrt(chisq.T), normals.T
    rows = []
    for i in range(len(d)):
        t = chol[i, : i + 1, None] * d[: i + 1]
        for l in range(1, i + 1):
            t[:l] += chol[i, l] * z[l * (l - 1) // 2 :][:l]
        rows.append(t)
    return rows


class TestBartlettFactor:
    def test_each_chunk_gets_fresh_factors(self, rng):
        # Chunks of different sizes on one thread: each chunk's rows match
        # the dense L A of its own variates, row i keeps its i + 1 leading
        # entries, and no later chunk writes into an earlier one's rows.
        # The builder reuses its normals arrays, sliced for the 4-draw chunks
        # and grown for the 12-draw one; the rows must still equal, bit for
        # bit, the recurrence on freshly drawn variates.
        pr = params_of(7.5, random_spd(rng, 5, cond=10.0))
        p, chol = pr.dim, pr.sigma.chol
        dofs = _bartlett_dofs(pr.alpha, p)
        _, chunk_rows = _factor_rows(pr, "bartlett")
        reference = reference_factor(pr, "bartlett")
        gen, ref, twin = (np.random.default_rng(17) for _ in range(3))
        returned = []
        for m in (9, 4, 12, 4):
            rows = chunk_rows(gen, m)(0, p)
            t = reference(ref, m)
            fresh = recurrence_rows(chol, *_bartlett_variates(twin, dofs, m))
            assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state)
            assert np.all(np.triu(t, k=1) == 0.0)
            for i, row in enumerate(rows):
                assert row.shape == (i + 1, m)
                np.testing.assert_allclose(row, t[:, i, : i + 1].T, rtol=1e-13, atol=1e-13)
                assert np.array_equal(row, fresh[i])
            returned.append([(row, row.copy()) for row in rows])
        for chunk in returned:
            for row, kept in chunk:
                assert np.array_equal(row, kept)


class TestSamplerAgreement:
    def test_integer_alpha_cross_check(self):
        # both samplers target the same law: compare E(X) entrywise and
        # E(log det X) at matched sample sizes via pooled standard errors
        sigma = np.array([[2.0, 0.8], [0.8, 1.5]])
        pr = params_of(5.0, sigma)
        n = 200_000
        bart = sample_bartlett(pr, n, seed=21)
        gsum = sample_gaussian_sum(pr, n, seed=22)
        for i in range(2):
            for j in range(2):
                xa = bart.draws[:, i, j]
                xb = gsum.draws[:, i, j]
                pooled = math.hypot(
                    xa.std(ddof=1) / math.sqrt(n), xb.std(ddof=1) / math.sqrt(n)
                )
                assert abs(xa.mean() - xb.mean()) <= 5 * pooled
        la = np.linalg.slogdet(bart.draws)[1]
        lb = np.linalg.slogdet(gsum.draws)[1]
        pooled = math.hypot(la.std(ddof=1) / math.sqrt(n), lb.std(ddof=1) / math.sqrt(n))
        assert abs(la.mean() - lb.mean()) <= 5 * pooled
