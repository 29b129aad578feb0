import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    compare,
    disjoint_moment_block_diag_log,
    embedded_moment_log,
    estimate_disjoint,
    estimate_embedded,
    estimate_log_statistic,
)
from wishminors.montecarlo import _embedded_stat_factory, _verdict_for
from wishminors.streams import chunk_sizes
from conftest import WORKER_COUNTS, random_spd, serial_chunks_above


def params_of(alpha, sigma):
    return WishartParams(alpha=alpha, sigma=SpdMatrix.from_array(sigma))


def make_estimate(**kw):
    base = dict(
        n=1000,
        mean=1.0,
        stderr=0.1,
        mean_log=0.0,
        stderr_log=math.log(0.1),
        log_shift=0.0,
        min_log=-1.0,
        max_log=1.0,
        seed=0,
        worker_count=1,
    )
    base.update(kw)
    return McEstimate(**base)


class TestEngine:
    def test_matches_naive_mean(self):
        # stabilized path equals the plain mean when nothing overflows
        def stat(rng, m):
            return np.log(rng.chisquare(3.0, size=m))

        est = estimate_log_statistic(stat, 20_000, seed=31)
        gens = [np.random.Generator(np.random.Philox(c))
                for c in np.random.SeedSequence(31).spawn(64)]
        sizes = chunk_sizes(20_000, 64)
        naive = np.concatenate(
            [g.chisquare(3.0, size=m) for g, m in zip(gens, sizes)]
        )
        assert est.mean == pytest.approx(naive.mean(), rel=1e-12)
        assert est.min_log == pytest.approx(math.log(naive.min()), rel=1e-12)
        assert est.max_log == pytest.approx(math.log(naive.max()), rel=1e-12)

    def test_deterministic(self):
        def stat(rng, m):
            return rng.standard_normal(m)

        a = estimate_log_statistic(stat, 5_000, seed=7, workers=1)
        b = estimate_log_statistic(stat, 5_000, seed=7, workers=1)
        assert (a.mean_log, a.stderr_log) == (b.mean_log, b.stderr_log)

    def test_worker_count_invariant_below_chunk_floor(self):
        # the chunk layout is min(n, 64) whatever the worker count
        def stat(rng, m):
            return rng.standard_normal(m)

        a = estimate_log_statistic(stat, 10_000, seed=3, workers=1)
        b = estimate_log_statistic(stat, 10_000, seed=3, workers=4)
        assert a.mean_log == b.mean_log
        assert a.stderr_log == b.stderr_log

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
        assert est.min_log == -math.inf

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

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            estimate_log_statistic(lambda r, m: np.zeros(m), 0, seed=1)
        with pytest.raises(DomainError):
            estimate_log_statistic(lambda r, m: np.zeros(m), 10, seed=1, workers=0)


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
        q = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
        with pytest.raises(SingularRegime):
            estimate_embedded(params_of(1.0, np.eye(2)), q, 100, seed=0)

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
        q = MomentQuery(partition=BlockPartition((2, 1)), nu=(1.0, 1.0))
        with pytest.raises(SingularRegime):
            estimate_disjoint(params_of(2.0, np.eye(3)), q, 100, seed=0)

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

    @pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
    def test_estimate_ignores_workers(self, monkeypatch, workers):
        pr = params_of(4.5, [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.5]])
        q = MomentQuery(partition=BlockPartition((1, 2)), nu=(1.0, 0.5))
        want = estimate_disjoint(pr, q, 1_000, seed=41, workers=1)
        serial_chunks_above(monkeypatch, workers)
        got = estimate_disjoint(pr, q, 1_000, seed=41, workers=workers)
        assert got.worker_count == workers
        assert dataclasses.replace(got, worker_count=1) == want


class TestCompare:
    def test_consistent_example(self):
        rep = compare(
            math.log(30.0),
            make_estimate(
                mean=30.02,
                stderr=0.05,
                mean_log=math.log(30.02),
                stderr_log=math.log(0.05),
            ),
        )
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.z == pytest.approx(0.4, abs=0.02)

    def test_inconsistent_example(self):
        rep = compare(
            math.log(30.0),
            make_estimate(
                mean=31.0,
                stderr=0.05,
                mean_log=math.log(31.0),
                stderr_log=math.log(0.05),
            ),
        )
        assert rep.verdict is Verdict.INCONSISTENT
        assert rep.z == pytest.approx(20.0, rel=0.05)

    def test_constant_statistic_consistent(self):
        rep = compare(
            0.0, make_estimate(mean=1.0, stderr=0.0, mean_log=0.0, stderr_log=-math.inf)
        )
        assert rep.z == 0.0
        assert rep.verdict is Verdict.CONSISTENT

    def test_constant_statistic_mismatch_degenerate(self):
        with pytest.raises(DegenerateEstimate):
            compare(
                0.5,
                make_estimate(mean=1.0, stderr=0.0, mean_log=0.0, stderr_log=-math.inf),
            )

    def test_constant_statistic_nan_gap_degenerate(self):
        with pytest.raises(DegenerateEstimate):
            compare(
                0.0,
                make_estimate(
                    mean=math.nan, stderr=0.0, mean_log=math.nan, stderr_log=-math.inf
                ),
            )

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            compare(0.0, make_estimate(n=1))

    def test_huge_scale_z_stays_finite(self):
        rep = compare(
            2000.0,
            make_estimate(
                mean=math.inf,
                stderr=math.inf,
                mean_log=2000.5,
                stderr_log=1990.0,
            ),
        )
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


class TestAdvisoryFlag:
    def test_dominated_sum_flags(self):
        est = make_estimate(n=100, mean_log=0.0, max_log=math.log(100.0) + 0.5)
        assert est.unreliable
        assert est.flags == ("unreliable",)

    def test_balanced_sum_unflagged(self):
        est = make_estimate(n=100, mean_log=0.0, max_log=2.0)
        assert not est.unreliable
        assert est.flags == ()
