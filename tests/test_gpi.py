import json
import math

import numpy as np
import pytest

from wishminors import (
    BlockPartition,
    DomainError,
    SearchConfig,
    SingularRegime,
    SpdMatrix,
    Verdict,
    WishartGpiInstance,
    WishartParams,
    gaussian_moment_log,
    gpi_ratio,
    random_correlation,
    search,
    single_minor_moment_log,
)
from conftest import random_spd


def wishart_instance(alpha, sigma, nu):
    dim = np.asarray(sigma).shape[0]
    return WishartGpiInstance(
        params=WishartParams(alpha=alpha, sigma=SpdMatrix.from_array(sigma)),
        partition=BlockPartition((1,) * dim),
        nu=nu,
    )


def corr2(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


def gaussian_instance(corr, nu):
    # Z ~ N(0, R) is the alpha = 1, unit-block Wishart with scale R.
    return wishart_instance(1.0, corr, nu)


class TestGaussianMoment:
    def test_even_moments(self):
        # E Z^2 = 1, E Z^4 = 3, E Z^6 = 15 for a standard normal
        assert gaussian_moment_log(1.0) == pytest.approx(0.0, abs=1e-14)
        assert gaussian_moment_log(2.0) == pytest.approx(math.log(3), abs=1e-13)
        assert gaussian_moment_log(3.0) == pytest.approx(math.log(15), abs=1e-13)

    def test_variance_scaling(self):
        got = gaussian_moment_log(1.5, variance=4.0)
        want = gaussian_moment_log(1.5) + 1.5 * math.log(4.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_moment_log(-1.0)
        with pytest.raises(DomainError):
            gaussian_moment_log(1.0, variance=0.0)


class TestInstances:
    def test_wishart_rejects_singular(self):
        # A singular shape is admitted on unit blocks only: a size-2 block
        # of a rank-1 draw has determinant zero almost surely.
        with pytest.raises(SingularRegime):
            WishartGpiInstance(
                params=WishartParams(alpha=1.0, sigma=SpdMatrix.from_array(np.eye(3))),
                partition=BlockPartition((1, 2)),
                nu=(1.0, 1.0),
            )

    def test_gaussian_rejects_negative_exponent(self):
        with pytest.raises(DomainError):
            gaussian_instance(corr2(0.3), (1.0, -1.0))


class TestGpiRatio:
    def test_wishart_denominator_is_exact_product(self, rng):
        sigma = random_spd(rng, 3, cond=10.0)
        inst = wishart_instance(4.0, sigma, (1.0, 0.5, 2.0))
        res = gpi_ratio(inst, 5_000, seed=3)
        want = sum(
            single_minor_moment_log(
                WishartParams(alpha=4.0, sigma=SpdMatrix.from_array(sigma[i : i + 1, i : i + 1])),
                v,
            )
            for i, v in enumerate(inst.nu)
        )
        assert res.denominator_log == pytest.approx(want, abs=1e-12)

    def test_block_diagonal_equality_case(self):
        inst = wishart_instance(3.0, np.diag([1.0, 2.0]), (1.0, 1.5))
        res = gpi_ratio(inst, 200_000, seed=41)
        assert abs(res.ratio - 1.0) <= 4 * res.ratio_stderr
        assert res.verdict is Verdict.CONSISTENT

    def test_gaussian_denominator_is_scalar_gaussian_moments(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2, 3, 5):
            nu = tuple(float(v) for v in rng.choice([0.0, 0.5, 1.0, 1.5, 3.0], size=dim))
            inst = gaussian_instance(random_correlation(dim, rng), nu)
            res = gpi_ratio(inst, 1_000, seed=dim)
            want = sum(gaussian_moment_log(v) for v in nu)
            assert res.denominator_log == pytest.approx(want, abs=1e-14)

    def test_gaussian_isserlis_oracle(self):
        inst = gaussian_instance(corr2(0.5), (1.0, 1.0))
        res = gpi_ratio(inst, 300_000, seed=43)
        assert abs(res.ratio - 1.5) <= 4 * res.ratio_stderr

    def test_wishart_wick_oracle(self):
        inst = wishart_instance(2.0, [[1.0, 0.5], [0.5, 1.0]], (1.0, 1.0))
        res = gpi_ratio(inst, 300_000, seed=47)
        assert abs(res.ratio - 1.25) <= 4 * res.ratio_stderr

    def test_wick_ratio_curve(self):
        # exact d=2 unit-block ratio: 1 + 2 rho^2 / alpha
        alpha = 3.0
        for rho in (0.0, 0.4, 0.8):
            inst = wishart_instance(alpha, [[1.0, rho], [rho, 1.0]], (1.0, 1.0))
            res = gpi_ratio(inst, 150_000, seed=53)
            want = 1.0 + 2 * rho * rho / alpha
            assert abs(res.ratio - want) <= 4 * res.ratio_stderr

    def test_zero_exponents_give_unit_ratio(self):
        inst = gaussian_instance(corr2(0.7), (0.0, 0.0))
        res = gpi_ratio(inst, 1_000, seed=5)
        assert res.ratio == pytest.approx(1.0, abs=1e-12)
        assert res.violation_z == 0.0


class TestRandomCorrelation:
    def test_dim_one(self):
        rng = np.random.default_rng(1)
        assert np.array_equal(random_correlation(1, rng), [[1.0]])

    def test_unit_diagonal_and_range(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 5, 8):
            r = random_correlation(dim, rng)
            assert np.array_equal(np.diag(r), np.ones(dim))
            off = r[np.triu_indices(dim, 1)]
            assert np.all(np.abs(off) < 1.0)

    def test_spd_and_deterministic(self):
        a = random_correlation(3, np.random.Generator(np.random.Philox(77)))
        b = random_correlation(3, np.random.Generator(np.random.Philox(77)))
        assert np.array_equal(a, b)
        assert np.all(np.linalg.eigvalsh(a) > 0)


class TestSearch:
    def test_deterministic_reports(self):
        cfg = SearchConfig(
            kind="wishart",
            dims=(1, 3),
            trials=6,
            samples=4_000,
            seed=99,
            alpha_range=(1.0, 6.0),
        )
        a = search(cfg)
        b = search(cfg)
        assert [r.to_record() for r in a.trials] == [r.to_record() for r in b.trials]

    def test_worker_count_does_not_change_results(self):
        cfg = dict(
            kind="gaussian", dims=(2, 3), trials=5, samples=3_000, seed=17
        )
        a = search(SearchConfig(**cfg, workers=1))
        b = search(SearchConfig(**cfg, workers=3))
        assert [r.to_record() for r in a.trials] == [r.to_record() for r in b.trials]

    def test_rho_grid_isserlis_curve(self):
        cfg = SearchConfig(
            kind="gaussian",
            dims=(2, 2),
            trials=3,
            samples=100_000,
            seed=7,
            nu_grid=(1.0,),
            rho_grid=(0.0, 0.5, 0.9),
        )
        rep = search(cfg)
        by_index = sorted(rep.trials, key=lambda r: r.index)
        for rec, rho in zip(by_index, (0.0, 0.5, 0.9)):
            want = 1.0 + 2 * rho * rho
            assert abs(rec.result.ratio - want) <= 4 * rec.result.ratio_stderr
        ratios = [r.result.ratio for r in by_index]
        assert ratios == sorted(ratios)

    def test_ranked_by_violation_z(self):
        cfg = SearchConfig(
            kind="wishart",
            dims=(2, 2),
            trials=8,
            samples=3_000,
            seed=23,
            alpha_range=(1.5, 5.0),
        )
        rep = search(cfg)
        zs = [r.result.violation_z for r in rep.trials]
        assert zs == sorted(zs)

    def test_records_are_json_serializable_and_complete(self):
        cfg = SearchConfig(
            kind="wishart",
            dims=(1, 2),
            trials=2,
            samples=2_000,
            seed=3,
            alpha_range=(1.0, 4.0),
        )
        rep = search(cfg)
        for rec in rep.trials:
            row = json.loads(json.dumps(rec.to_record()))
            assert {"trial", "kind", "dim", "alpha", "sigma", "nu", "samples",
                    "estimate_seed", "ratio", "violation_z", "verdict"} <= row.keys()

    def test_trial_reproducible_from_record(self):
        # a reported line carries enough to re-run the estimate exactly
        cfg = SearchConfig(
            kind="wishart",
            dims=(2, 3),
            trials=3,
            samples=4_000,
            seed=29,
            alpha_range=(2.0, 6.0),
        )
        rep = search(cfg)
        rec = rep.trials[0]
        row = rec.to_record()
        inst = wishart_instance(row["alpha"], np.array(row["sigma"]), tuple(row["nu"]))
        redo = gpi_ratio(inst, row["samples"], row["estimate_seed"], workers=1)
        assert redo.ratio == rec.result.ratio
        assert redo.violation_z == rec.result.violation_z

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SearchConfig(kind="other", dims=(1, 2), trials=1, samples=100, seed=0)
        with pytest.raises(DomainError):
            SearchConfig(kind="wishart", dims=(1, 2), trials=1, samples=100, seed=0)
        with pytest.raises(DomainError):
            SearchConfig(
                kind="wishart", dims=(2, 4), trials=1, samples=100, seed=0,
                alpha_range=(1.0, 2.5),
            )
        with pytest.raises(DomainError):
            SearchConfig(
                kind="gaussian", dims=(2, 3), trials=1, samples=100, seed=0,
                rho_grid=(0.5,),
            )
