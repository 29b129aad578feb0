import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import block_diag

import wishminors.montecarlo
from wishminors import (
    BlockPartition,
    DegenerateEstimate,
    DomainError,
    McEstimate,
    MomentQuery,
    SingularRegime,
    SpdMatrix,
    Verdict,
    WishartParams,
    WishminorsError,
    block_moments_log,
    compare,
    disjoint_moment_block_diag_log,
    embedded_moment_log,
    estimate_disjoint,
    estimate_embedded,
    estimate_log_statistic,
    gpi_ratio,
    sample_bartlett,
    sample_gaussian_sum,
)
from wishminors.gpi import WishartGpiInstance
from wishminors.montecarlo import _embedded_stat_factory, _gram_logdet, _verdict_for
from wishminors.streams import chunk_sizes, substreams
from wishminors.wishart import _factor_rows, _gram
from conftest import random_spd, reference_factor


def params_of(alpha, sigma):
    return WishartParams(alpha=alpha, sigma=SpdMatrix.from_array(sigma))


def make_estimate(**kw):
    base = dict(n=1000, mean_log=0.0, stderr_log=math.log(0.1), max_log=1.0)
    base.update(kw)
    return McEstimate(**base)


class TestEngine:
    def test_matches_naive_mean(self):
        # stabilized path equals the plain mean when nothing overflows
        def stat(rng, m):
            return np.log(rng.chisquare(3.0, size=m))

        est = estimate_log_statistic(stat, 20_000, seed=31)
        gens = substreams(31, 64)
        sizes = chunk_sizes(20_000, 64)
        naive = np.concatenate(
            [g.chisquare(3.0, size=m) for g, m in zip(gens, sizes)]
        )
        assert est.mean == pytest.approx(naive.mean(), rel=1e-12)
        assert est.max_log == pytest.approx(math.log(naive.max()), rel=1e-12)

    def test_deterministic(self):
        def stat(rng, m):
            return rng.standard_normal(m)

        a = estimate_log_statistic(stat, 5_000, seed=7)
        b = estimate_log_statistic(stat, 5_000, seed=7)
        assert (a.mean_log, a.stderr_log) == (b.mean_log, b.stderr_log)

    def test_extreme_scale_stays_finite_in_logs(self):
        def stat(rng, m):
            return 800.0 + rng.standard_normal(m)  # exp overflows doubles

        est = estimate_log_statistic(stat, 2_000, seed=5)
        assert math.isinf(est.mean)
        assert math.isfinite(est.mean_log)
        assert math.isfinite(est.stderr_log)
        assert est.mean_log == pytest.approx(800.5, abs=0.2)

    def test_constant_statistic(self):
        def stat(rng, m):
            rng.standard_normal(m)
            return np.zeros(m)

        est = estimate_log_statistic(stat, 999, seed=2)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.mean_log == 0.0

    def test_minus_inf_chunks_merge(self):
        # A chunk whose every draw is -inf adds nothing; the rest stay finite.
        def stat(rng, m):
            if rng.random() < 0.5:
                return np.full(m, -np.inf)
            return np.log(rng.chisquare(3.0, size=m))

        est = estimate_log_statistic(stat, 6_400, seed=4)
        assert math.isfinite(est.mean_log) and math.isfinite(est.stderr_log)

    def test_all_draws_minus_inf_degenerate(self):
        with pytest.raises(DegenerateEstimate, match="-inf"):
            estimate_log_statistic(lambda r, m: np.full(m, -np.inf), 1_000, seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_draw_degenerate(self, bad):
        def stat(rng, m):
            s = rng.standard_normal(m)
            s[m // 2] = bad
            return s

        with pytest.raises(DegenerateEstimate, match="non-finite"):
            estimate_log_statistic(stat, 1_000, seed=1)

    @pytest.mark.parametrize(
        "estimate, nu",
        [(estimate_embedded, 1e307), (estimate_disjoint, 1e308)],
        ids=["embedded-nu-1e307", "disjoint-nu-1e308"],
    )
    def test_overflowing_draws_warn_nothing(self, estimate, nu):
        # A draw past double range gives a typed result, never a numpy warning too.
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(nu, nu))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = estimate(params_of(3.0, np.diag([1.0, 2.0])), q, 100, seed=0)
            except WishminorsError:
                return
        assert isinstance(got, McEstimate)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            estimate_log_statistic(lambda r, m: np.zeros(m), 0, seed=1)

        def refuse(rng, m):
            raise AssertionError("drew before refusing one sample")

        # One draw has no standard error; it is refused before any draw.
        with pytest.raises(DomainError, match=">= 2"):
            estimate_log_statistic(refuse, 1, seed=1)


class TestEstimateEmbedded:
    def test_zero_exponents(self):
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(0.0, 0.0))
        est = estimate_embedded(params_of(3.0, np.eye(2)), q, 10_000, seed=1)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_thirty_config(self):
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        est = estimate_embedded(params_of(3.0, np.eye(2)), q, 200_000, seed=13)
        assert abs(est.mean - 30.0) <= 4 * est.stderr

    def test_chi_square_second_moment(self):
        # E X^2 = alpha (alpha + 2) = 8 for the univariate shape-2 case
        q = MomentQuery(partition=BlockPartition((1,)), nu=(2.0,))
        est = estimate_embedded(params_of(2.0, [[1.0]]), q, 200_000, seed=17)
        assert abs(est.mean - 8.0) <= 4 * est.stderr

    def test_agreement_with_exact_general_sigma(self, rng):
        sigma = random_spd(rng, 4, cond=100.0)
        q = MomentQuery(partition=BlockPartition((2, 2)), nu=(0.75, 1.25))
        exact = embedded_moment_log(params_of(5.5, sigma), q)
        est = estimate_embedded(params_of(5.5, sigma), q, 300_000, seed=19)
        rep = compare(exact.log_value, est)
        assert rep.verdict is Verdict.CONSISTENT

    def test_singular_refused(self):
        # The estimator and the exact moment share one admission rule.
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        pr = params_of(1.0, np.eye(2))
        with pytest.raises(SingularRegime) as est_info:
            estimate_embedded(pr, q, 100, seed=0)
        with pytest.raises(SingularRegime) as exact_info:
            embedded_moment_log(pr, q)
        assert str(est_info.value) == str(exact_info.value)

    @pytest.mark.parametrize("nu", [(0.0, 1.0), (0.5, 0.5), (1.0, 0.25)])
    def test_boundary_shape_against_exact(self, nu):
        # alpha = p - 1 + 1e-3: the last Bartlett chi-square has 1e-3 degrees
        # of freedom, far below where a linear-space draw underflows to 0.
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        pr = params_of(1.001, sigma)
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=nu)
        exact = embedded_moment_log(pr, q).log_value
        for seed in range(5):
            est = estimate_embedded(pr, q, 100_000, seed=seed)
            assert abs(compare(exact, est).z) <= 4.0

    @pytest.mark.parametrize(
        "sizes, alpha, nu",
        [
            ((2, 1, 3), 7.0, (0.5, 0.25, 0.5)),
            ((1, 1, 1, 1), 4.0, (0.5, 0.25, 0.5, 0.25)),
            ((3, 3), 6.0, (0.5, 0.5)),
        ],
        ids=["2,1,3", "1,1,1,1", "3,3"],
    )
    def test_nested_formula_without_bartlett(self, rng, sizes, alpha, nu):
        # Wilks' nested-minor formula checked on Gaussian-sum draws, with no
        # Bartlett chi-square: each leading minor det X[:P_i, :P_i] is the
        # product of its Gram's elimination pivots, the iterated Schur
        # complements of the paper's proof.
        params = params_of(alpha, random_spd(rng, sum(sizes), cond=30.0))
        query = MomentQuery(partition=BlockPartition(sizes), nu=nu)
        _, chunk_rows = _factor_rows(params, "gaussian-sum")
        prefix = query.partition.prefix[1:]

        def stat(gen, m):
            rows = chunk_rows(gen, m)
            return sum(v * _gram_logdet(rows[0:b]) for v, b in zip(nu, prefix))

        def exact(exponents):
            return embedded_moment_log(params, dataclasses.replace(query, nu=exponents)).log_value

        n = 50_000
        m1 = exact(nu)
        r = math.sqrt(math.expm1(exact(tuple(2.0 * v for v in nu)) - 2.0 * m1) / n)
        assert r <= 0.02
        for seed in range(5):
            assert abs(compare(m1, estimate_log_statistic(stat, n, seed)).z) <= 4.0

    @pytest.mark.parametrize("alpha", [3.5, 9.0])
    def test_draws_only_chi_squares_and_boost_uniforms(self, alpha):
        # dofs 3.5, 2.5, 1.5, 0.5 boost two columns; dofs 9 ... 6 boost none.
        sigma = np.diag([1.0, 2.0, 3.0, 4.0])
        pr = params_of(alpha, sigma)
        q = MomentQuery(partition=BlockPartition((1, 3)), nu=(0.5, 1.0))
        stat = _embedded_stat_factory(pr, q)
        m = 257
        rng = np.random.Generator(np.random.Philox(11))
        got = stat(rng, m)

        ref = np.random.Generator(np.random.Philox(11))
        dofs = alpha - np.arange(4.0)
        small = dofs < 2.0
        log_chisq = np.log(ref.chisquare(np.where(small, dofs + 2.0, dofs), size=(m, 4)))
        log_chisq[:, small] += np.log(ref.random((m, int(small.sum())))) * (
            2.0 / dofs[small]
        )
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        weights = np.array([1.5, 1.0, 1.0, 1.0])
        want = log_chisq @ weights + float(weights @ np.log(np.diag(sigma)))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-12)


class TestEstimateDisjoint:
    def test_wick_oracle(self):
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        est = estimate_disjoint(
            params_of(2.0, [[1.0, 0.5], [0.5, 1.0]]), q, 300_000, seed=23
        )
        assert abs(est.mean - 5.0) <= 4 * est.stderr

    def test_block_diag_exact_agreement(self, rng):
        sigma = np.zeros((4, 4))
        sigma[:2, :2] = random_spd(rng, 2, cond=10.0)
        sigma[2:, 2:] = random_spd(rng, 2, cond=10.0)
        q = MomentQuery(partition=BlockPartition((2, 2)), nu=(1.0, 0.5))
        exact = disjoint_moment_block_diag_log(params_of(5.0, sigma), q)
        est = estimate_disjoint(params_of(5.0, sigma), q, 200_000, seed=29)
        assert compare(exact, est).verdict is Verdict.CONSISTENT

    def test_singular_scalar_blocks_gaussian_sum(self):
        # alpha=1, p=2: E(X11 X22) = 1 + 2 rho^2 by Isserlis
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        est = estimate_disjoint(
            params_of(1.0, [[1.0, 0.5], [0.5, 1.0]]), q, 300_000, seed=31
        )
        assert abs(est.mean - 1.5) <= 4 * est.stderr

    def test_singular_large_block_refused(self):
        # A block larger than alpha has an almost-surely-zero minor.
        q = MomentQuery(partition=BlockPartition((3, 1)), nu=(1.0, 1.0))
        with pytest.raises(SingularRegime):
            estimate_disjoint(params_of(2.0, np.eye(4)), q, 100, seed=0)

    @pytest.mark.parametrize(
        "alpha, sampler, sizes",
        [
            (4.5, sample_bartlett, (1, 2, 1)),
            (2.0, sample_gaussian_sum, (2, 1, 1)),
            (4.5, sample_bartlett, (1, 1, 1, 1)),
        ],
    )
    def test_draws_match_sampler(self, rng, alpha, sampler, sizes):
        # The estimator's statistic is log prod det(X_kk)^nu_k of the sampler's draws.
        pr = params_of(alpha, random_spd(rng, 4, cond=20.0))
        part = BlockPartition(sizes)
        q = MomentQuery(partition=part, nu=(1.0, 0.5, 1.5, 1.0)[: len(sizes)])
        est = estimate_disjoint(pr, q, 3_000, seed=43)
        draws = sampler(pr, 3_000, seed=43).draws
        s = sum(
            nu * np.linalg.slogdet(draws[:, a:b, a:b])[1]
            for nu, a, b in zip(q.nu, part.prefix, part.prefix[1:])
        )
        top = np.max(s)
        want = top + math.log(np.mean(np.exp(s - top)))
        assert est.mean_log == pytest.approx(want, rel=1e-12)

    def test_merged_block_matches_embedded_tail(self, rng):
        # exponents supported on the last nested minor == single disjoint
        # block covering everything; same seed, same chi-square stream
        sigma = random_spd(rng, 3, cond=40.0)
        pr = params_of(4.5, sigma)
        q_nested = MomentQuery(partition=BlockPartition((1, 2)), nu=(0.0, 1.5))
        q_merged = MomentQuery(partition=BlockPartition((3,)), nu=(1.5,))
        a = estimate_embedded(pr, q_nested, 50_000, seed=37)
        b = estimate_disjoint(pr, q_merged, 50_000, seed=37)
        assert a.mean_log == pytest.approx(b.mean_log, rel=1e-10)
        assert a.stderr_log == pytest.approx(b.stderr_log, rel=1e-10)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux minor-fault counts")
    def test_repeat_estimate_maps_no_fresh_pages(self):
        # At p = 12 a 50k-draw estimate's chunks hold 782 draws, whose
        # Bartlett normals (about 400 KB) glibc hands back to the kernel when
        # they are freed.  Fresh arrays per chunk fault their pages in again
        # on every chunk (about 12k faults per estimate); reused ones do not
        # (about 200).  Smaller chunks stay with the allocator and fault
        # little either way, so the test needs this many draws.
        src = os.path.dirname(os.path.dirname(wishminors.montecarlo.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTS_SCRIPT], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 2_000


# Runs in a fresh interpreter: the minor page faults of a second 50k-draw
# disjoint estimate on a block-diagonal 12x12 scale, after a warm-up one.
_FAULTS_SCRIPT = """
import resource
import numpy as np
from wishminors import BlockPartition, MomentQuery, SpdMatrix, WishartParams, estimate_disjoint
sigma = np.kron(np.eye(3), np.full((4, 4), 0.5) + 0.5 * np.eye(4))
params = WishartParams(alpha=14.5, sigma=SpdMatrix.from_array(sigma))
query = MomentQuery(BlockPartition((4, 4, 4)), (0.5, 1.0, 0.75))
estimate_disjoint(params, query, 50_000, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
estimate_disjoint(params, query, 50_000, 2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def batch_last(rows):
    """The rows of an (m, k, n) block as the list of k batch-last (n, m) rows."""
    return list(rows.transpose(1, 2, 0))


class TestGramLogdet:
    """Batched elimination gives slogdet's log-determinant of the Gram of each row block."""

    @staticmethod
    def bartlett_rows(rng, m=400, p=8):
        params = params_of(9.5, random_spd(rng, p, cond=20.0))
        return reference_factor(params, "bartlett")(rng, m)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("view", ["square", "rows", "triangular"])
    def test_matches_slogdet(self, rng, k, view):
        t = self.bartlett_rows(rng)
        block = t[:, :k, :k] if view == "square" else t[:, 2 : 2 + k]
        sign, want = np.linalg.slogdet(block @ block.transpose(0, 2, 1))
        assert np.all(sign > 0)
        if view == "triangular":
            # Row i of a lower-triangular T holds i + 1 entries, as the
            # disjoint statistic passes a Bartlett block.
            rows = [np.ascontiguousarray(t[:, i, : i + 1].T) for i in range(2, 2 + k)]
        else:
            rows = batch_last(block)  # non-contiguous views
        np.testing.assert_allclose(_gram_logdet(rows), want, rtol=1e-12)

    @pytest.mark.parametrize("sizes", [(4, 4, 4), (2, 1, 3)])
    def test_truncated_rows_match_zero_padded(self, rng, sizes):
        # A Bartlett T is lower triangular, so row i is zero from column
        # i + 1 on, and the disjoint statistic passes only its leading entries.
        p = sum(sizes)
        params = params_of(p + 0.5, random_spd(rng, p, cond=20.0))
        t = reference_factor(params, "bartlett")(rng, 1563)
        assert np.all(np.triu(t, k=1) == 0.0)
        prefix = np.cumsum((0,) + sizes)
        for a, b in zip(prefix, prefix[1:]):
            truncated = [np.ascontiguousarray(t[:, i, : i + 1].T) for i in range(a, b)]
            padded = batch_last(t[:, a:b])
            np.testing.assert_allclose(
                _gram_logdet(truncated), _gram_logdet(padded), rtol=1e-13, atol=1e-13
            )

    @pytest.mark.parametrize(
        "singular", ["zero-row", "repeated-row", "leading-zero-row", "nan-row"]
    )
    def test_singular_block_is_minus_inf(self, rng, singular):
        rows = rng.standard_normal((50, 4, 6))
        if singular == "zero-row":
            rows[:, 2] = 0.0
        elif singular == "repeated-row":
            rows[:, 3] = rows[:, 1]
        elif singular == "leading-zero-row":
            rows[:, 0] = 0.0
        else:
            rows[:, 1] = np.nan
        rows[0] = rng.standard_normal((4, 6))  # one regular block in the batch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _gram_logdet(batch_last(rows))
        assert not np.any(np.isnan(got))
        assert np.isfinite(got[0])
        assert np.all(got[1:] == -np.inf)

    def test_estimate_makes_no_slogdet_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-matrix slogdet called")

        q = MomentQuery(partition=BlockPartition((4, 4, 4)), nu=(1.0, 0.5, 1.5))
        want = disjoint_moment_block_diag_log(params_of(14.0, np.eye(12)), q)
        monkeypatch.setattr(np.linalg, "slogdet", refuse)
        est = estimate_disjoint(params_of(14.0, np.eye(12)), q, 2_000, seed=53)
        assert abs(compare(want, est).z) <= 4.0


class TestUnitBartlettKernel:
    """Bartlett block minors come from the variates, with no factor drawn."""

    @staticmethod
    def matmul_reference(params, sizes, nu, rng, m):
        """The statistic from T = L A, with A filled from the Bartlett stream order.

        Unit blocks take ``X_ii = |T_i|^2``, larger blocks slogdet of their
        rows' Gram.  Also returns each draw's relative error bound for the
        unit blocks: the rounding of ``X_ii`` scales with the condition
        number ``sum_j (|L_i| |A|)_j^2 / X_ii``, which is large only where
        the terms of some ``T_ij`` cancel.
        """
        p = params.dim
        chisq = rng.chisquare(params.alpha - np.arange(p), size=(m, p))
        normals = rng.standard_normal((m, p * (p - 1) // 2))
        a = np.zeros((m, p, p))
        a[:, np.arange(p), np.arange(p)] = np.sqrt(chisq)
        low_r, low_c = np.tril_indices(p, -1)
        a[:, low_r, low_c] = normals
        chol = params.sigma.chol
        t = np.matmul(chol, a)
        x = np.einsum("mij,mij->mi", t, t)
        bound = np.matmul(np.abs(chol), np.abs(a))
        cond = np.einsum("mij,mij->mi", bound, bound) / np.where(x > 0, x, 1.0)
        s, unit_cond = np.zeros(m), np.zeros(m)
        prefix = np.cumsum((0,) + sizes)
        with np.errstate(divide="ignore"):
            for a_k, b_k, nu_k in zip(prefix, prefix[1:], nu):
                if b_k - a_k == 1:
                    s += nu_k * np.log(x[:, a_k])
                    unit_cond += nu_k * cond[:, a_k]
                else:
                    rows = t[:, a_k:b_k]
                    s += nu_k * np.linalg.slogdet(rows @ rows.transpose(0, 2, 1))[1]
        return s, unit_cond

    @pytest.mark.parametrize(
        "sizes",
        [
            pytest.param((1,), id="1"),
            pytest.param((1, 1), id="2"),
            pytest.param((1, 1, 1), id="3"),
            pytest.param((1,) * 5, id="5"),
            pytest.param((2, 1, 3), id="2,1,3"),
            pytest.param((4, 4, 4), id="4,4,4"),
        ],
    )
    @pytest.mark.parametrize("edge", [1.5, 1e-7], ids=["interior", "boundary"])
    def test_matches_matmul_reference(self, rng, sizes, edge):
        # alpha = p - 1 + 1e-7 leaves the last chi-square 1e-7 degrees of
        # freedom, so it underflows to 0; at p = 1 the minor is then 0.
        p = sum(sizes)
        params = params_of(p - 1 + edge, random_spd(rng, p, cond=20.0))
        nu = (1.0, 0.5, 1.5, 0.0, 2.0)[: len(sizes)]
        query = MomentQuery(partition=BlockPartition(sizes), nu=nu)
        m = 1563
        got_rng = np.random.Generator(np.random.Philox(61))
        _, chunk_rows = _factor_rows(params, "bartlett")
        got = wishminors.montecarlo._disjoint_stat(query, chunk_rows)(got_rng, m)
        want_rng = np.random.Generator(np.random.Philox(61))
        want, cond = self.matmul_reference(params, sizes, nu, want_rng, m)
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)
        assert not np.any(np.isnan(got))
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        if p == 1 and edge == 1e-7:
            assert np.any(np.isneginf(want))
        # The Gram elimination and LAPACK's LU round differently.
        rtol = 1e-12 if max(sizes) > 1 else 0.0
        finite = np.isfinite(want)
        rel = np.abs(np.expm1(got[finite] - want[finite]))
        assert np.all(rel <= 1e-14 * cond[finite] + rtol)


def per_block_disjoint_stat(params, query):
    """The disjoint statistic from the factor T and one slogdet per weighted block."""
    method = "bartlett" if params.nonsingular else "gaussian-sum"
    draw = reference_factor(params, method)
    prefix = query.partition.prefix

    def stat(rng, m):
        t = draw(rng, m)
        s = np.zeros(m)
        for a, b, nu_k in zip(prefix, prefix[1:], query.nu):
            if nu_k != 0.0:
                rows = t[:, a:b]
                s += nu_k * np.linalg.slogdet(rows @ rows.transpose(0, 2, 1))[1]
        return s

    return stat


class TestUnitBlockBatching:
    """Estimates and GPI ratios agree with a per-block slogdet of the factor's draws.

    The reference draws T from ``reference_factor``, which reads the same
    variates in the same order as the statistic, so the two agree to rounding.
    """

    @pytest.mark.parametrize(
        "alpha, sizes, nu",
        [
            pytest.param(4.5, (1, 1, 1), (1.0, 0.5, 1.5), id="unit-bartlett"),
            pytest.param(5.0, (1, 2, 1, 1), (0.5, 1.0, 0.0, 1.5), id="mixed-bartlett"),
            pytest.param(1.0, (1, 1, 1), (1.0, 1.0, 0.5), id="gaussian"),
            pytest.param(3.0, (1, 2, 1, 1), (1.0, 0.5, 1.5, 1.0), id="mixed-gaussian-sum"),
        ],
    )
    def test_matches_per_block_reference(self, rng, monkeypatch, alpha, sizes, nu):
        sigma = random_spd(rng, sum(sizes), cond=20.0)
        instance = WishartGpiInstance(
            params=params_of(alpha, sigma), partition=BlockPartition(sizes), nu=nu
        )

        def run():
            est = estimate_disjoint(instance.params, instance.query, 3_000, seed=47)
            gpi = gpi_ratio(instance, 3_000, seed=47)
            return (est.mean_log, est.stderr_log, est.max_log,
                    gpi.ratio_log, gpi.ratio_stderr, gpi.violation_z)

        got = run()
        monkeypatch.setattr(
            wishminors.montecarlo, "_disjoint_stat",
            lambda query, _: per_block_disjoint_stat(instance.params, query),
        )
        assert got == pytest.approx(run(), rel=1e-12)


class TestOneFactor:
    """The samplers and the disjoint statistic read one T from ``wishart._factor_rows``."""

    @pytest.mark.parametrize(
        "alpha, sampler, sizes, nu, n",
        [
            (6.0, sample_bartlett, (1, 2, 1), (1.0, 0.5, 1.5), 1001),
            (2.0, sample_gaussian_sum, (1, 2, 1), (1.0, 0.5, 1.5), 1001),
            (6.0, sample_bartlett, (1, 2, 1), (1.0, 0.5, 1.5), 50),
            (2.0, sample_gaussian_sum, (1, 2, 1), (1.0, 0.5, 1.5), 50),
            (2.0, sample_gaussian_sum, (1,), (1.0,), 1001),
            (6.0, sample_bartlett, (1, 2, 1), (1.0, 0.0, 1.5), 1001),
            (2.0, sample_gaussian_sum, (1, 2, 1), (1.0, 0.0, 1.5), 1001),
        ],
        ids=[
            "bartlett", "gaussian-sum", "bartlett-n50", "gaussian-sum-n50", "gaussian-sum-1x1",
            "bartlett-zero-exponent", "gaussian-sum-zero-exponent",
        ],
    )
    def test_sampler_blocks_are_the_eliminated_grams(
        self, rng, monkeypatch, alpha, sampler, sizes, nu, n
    ):
        # At alpha 2 the 4x4 shape is singular, so the statistic reads the
        # Gaussian-sum T; at alpha 6 it reads the Bartlett T.  At n = 50 every
        # chunk holds one draw.  A 1x1 scale is never singular, so there the
        # statistic is pointed at the Gaussian-sum T.  A block with a zero
        # exponent gets no Gram, yet its rows are built with the rest, so the
        # weighted block after it must still read its own rows of T.
        params = params_of(alpha, random_spd(rng, sum(sizes), cond=20.0))
        query = MomentQuery(partition=BlockPartition(sizes), nu=nu)
        grams = []

        def recording_gram(rows):
            g = _gram(rows)
            grams.append([[v.copy() for v in g_r] for g_r in g])  # the elimination overwrites g
            return g

        monkeypatch.setattr(wishminors.montecarlo, "_gram", recording_gram)
        if sizes == (1,):
            monkeypatch.setattr(
                wishminors.montecarlo, "_factor_rows",
                lambda one_by_one, _: _factor_rows(one_by_one, "gaussian-sum"),
            )
        estimate_disjoint(params, query, n, 29)
        draws = sampler(params, n, 29).draws
        prefix = query.partition.prefix
        weighted = [(a, b) for a, b, nu_k in zip(prefix, prefix[1:], nu) if nu_k != 0.0]
        assert len(grams) == len(weighted) * min(n, 64)
        for k, (a, b) in enumerate(weighted):
            chunks = grams[k :: len(weighted)]  # chunks run in order
            for r in range(b - a):
                for s in range(r + 1):
                    got = np.concatenate([g[r][s] for g in chunks])
                    assert np.array_equal(got, draws[:, a + r, a + s])


class TestCompare:
    def test_consistent_example(self):
        rep = compare(
            math.log(30.0), make_estimate(mean_log=math.log(30.02), stderr_log=math.log(0.05))
        )
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.z == pytest.approx(0.4, abs=0.02)

    def test_inconsistent_example(self):
        rep = compare(
            math.log(30.0), make_estimate(mean_log=math.log(31.0), stderr_log=math.log(0.05))
        )
        assert rep.verdict is Verdict.INCONSISTENT
        assert rep.z == pytest.approx(20.0, rel=0.05)
        assert dataclasses.replace(rep, z=0.4).verdict is Verdict.CONSISTENT

    def test_constant_statistic_consistent(self):
        rep = compare(0.0, make_estimate(mean_log=0.0, stderr_log=-math.inf))
        assert rep.z == 0.0
        assert rep.verdict is Verdict.CONSISTENT

    def test_constant_statistic_mismatch_degenerate(self):
        with pytest.raises(DegenerateEstimate):
            compare(0.5, make_estimate(mean_log=0.0, stderr_log=-math.inf))

    def test_constant_statistic_nan_gap_degenerate(self):
        with pytest.raises(DegenerateEstimate):
            compare(0.0, make_estimate(mean_log=math.nan, stderr_log=-math.inf))

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            compare(0.0, make_estimate(n=1))

    def test_huge_scale_z_stays_finite(self):
        rep = compare(2000.0, make_estimate(mean_log=2000.5, stderr_log=1990.0))
        assert math.isfinite(rep.z)

    @given(st.floats(min_value=-50, max_value=50))
    def test_verdict_thresholds(self, z):
        v = _verdict_for(z)
        if abs(z) <= 4:
            assert v is Verdict.CONSISTENT
        elif abs(z) <= 6:
            assert v is Verdict.SUSPICIOUS
        else:
            assert v is Verdict.INCONSISTENT


class TestErrorBar:
    @pytest.mark.parametrize(
        "path, alpha, sizes, nu, n",
        [
            ("embedded", 3.0, (1, 1), (1.0, 1.0), 16_000),
            ("embedded", 6.5, (2, 1), (1.5, 0.5), 16_000),
            ("disjoint", 5.5, (1, 2), (1.0, 0.5), 10_000),
            ("disjoint", 7.0, (2, 2), (0.5, 0.5), 10_000),
        ],
        ids=["embedded-1,1", "embedded-2,1", "disjoint-1,2", "disjoint-2,2"],
    )
    def test_rel_stderr_matches_exact_second_moment(self, rng, path, alpha, sizes, nu, n):
        # A draw's statistic exp(s) has second moment M(2 nu), so the plain
        # mean's exact relative standard error is
        # r = sqrt(expm1(M(2 nu) - 2 M(nu)) / n).  Where the tail is light,
        # the batch-means rel_stderr must average to r over seeds; one seed
        # spreads by about 0.1 of r, the mean of 40 by about 0.016.
        if path == "embedded":
            sigma = random_spd(rng, sum(sizes), cond=10.0)
            moment, estimate = embedded_moment_log, estimate_embedded
        else:
            sigma = block_diag(*(random_spd(rng, s, cond=10.0) for s in sizes))
            moment, estimate = block_moments_log, estimate_disjoint
        params = params_of(alpha, sigma)

        def query(exponents):
            return MomentQuery(partition=BlockPartition(sizes), nu=exponents)

        m1 = moment(params, query(nu)).log_value
        m2 = moment(params, query(tuple(2.0 * v for v in nu))).log_value
        r = math.sqrt(math.expm1(m2 - 2.0 * m1) / n)
        assert r <= 0.03
        ratios = [estimate(params, query(nu), n, seed=seed).rel_stderr / r for seed in range(40)]
        assert 0.9 <= np.mean(ratios) <= 1.1, f"mean rel_stderr / r = {np.mean(ratios):.3f}"


class TestAdvisoryFlag:
    def test_dominated_sum_flags(self):
        est = make_estimate(n=100, mean_log=0.0, max_log=math.log(100.0) + 0.5)
        assert est.unreliable
        assert est.flags == ("unreliable",)

    def test_balanced_sum_unflagged(self):
        est = make_estimate(n=100, mean_log=0.0, max_log=2.0)
        assert not est.unreliable
        assert est.flags == ()

    @pytest.mark.parametrize("scale, flags", [(40.0, ("unreliable",)), (1.0, ())])
    def test_estimate_flags_tail_dominated_sum(self, scale, flags):
        # At scale 40 one draw of exp(scale Z) over 6400 carries nearly all of
        # the sum: max s sits just below log(n * mean) but above log(n * mean / 2).
        est = estimate_log_statistic(lambda rng, m: scale * rng.standard_normal(m), 6400, 0)
        assert est.flags == flags
