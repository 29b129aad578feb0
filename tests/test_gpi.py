import dataclasses
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
from wishminors import gpi
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
        # A singular shape is admitted on blocks of size at most alpha: a
        # size-2 block of a rank-1 draw has determinant zero almost surely.
        with pytest.raises(SingularRegime):
            WishartGpiInstance(
                params=WishartParams(alpha=1.0, sigma=SpdMatrix.from_array(np.eye(3))),
                partition=BlockPartition((1, 2)),
                nu=(1.0, 1.0),
            )

    def test_stores_the_query_once(self):
        inst = gaussian_instance(corr2(0.3), (1, 2))
        names = [f.name for f in dataclasses.fields(WishartGpiInstance)]
        assert names == ["params", "query", "denominator_log"]
        assert inst.query.nu == (1.0, 2.0) and inst.query.partition.sizes == (1, 1)
        assert not hasattr(inst, "partition") and not hasattr(inst, "nu")

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
            for i, v in enumerate(inst.query.nu)
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

    def test_denominator_computed_once_per_instance(self, monkeypatch):
        inst = gaussian_instance(corr2(0.3), (1.0, 2.0))
        calls = []
        original = gpi.block_moments_log
        monkeypatch.setattr(
            gpi, "block_moments_log", lambda *a: calls.append(a) or original(*a)
        )
        # A first pass and an escalated rerun on the same instance.
        first = gpi_ratio(inst, 1_000, seed=5)
        rerun = gpi_ratio(inst, 10_000, seed=6)
        assert calls == []
        assert first.denominator_log == rerun.denominator_log == inst.denominator_log

    def test_derived_values_follow_the_stored_ones(self):
        res = gpi_ratio(gaussian_instance(corr2(0.3), (1.0, 1.0)), 1_000, seed=5)
        assert res.escalated is False
        assert dataclasses.replace(res, first_pass_z=-5.0).escalated is True
        assert dataclasses.replace(res, violation_z=-7.0).verdict is Verdict.INCONSISTENT

    def test_violation_verdict_is_one_sided(self):
        want = {
            10.0: Verdict.CONSISTENT,
            -4.0: Verdict.CONSISTENT,
            -4.0001: Verdict.SUSPICIOUS,
            -6.0: Verdict.SUSPICIOUS,
            -6.0001: Verdict.INCONSISTENT,
        }
        assert {z: gpi._violation_verdict(z) for z in want} == want


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

    def test_makes_no_cholesky_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("random_correlation factorized its result")

        monkeypatch.setattr(gpi, "cholesky", refuse)
        r = random_correlation(4, np.random.default_rng(3))
        assert SpdMatrix.from_array(r).dim == 4  # the one check, made by _draw_instance

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
        redo = gpi_ratio(inst, row["samples"], row["estimate_seed"])
        assert redo.ratio == rec.result.ratio
        assert redo.violation_z == rec.result.violation_z

    def test_escalated_trial_reports_its_rerun(self, monkeypatch):
        # Scaling every first-pass statistic by 1/e forces each trial to escalate.
        cfg = SearchConfig(
            kind="wishart",
            dims=(1, 3),
            trials=4,
            samples=2_000,
            seed=37,
            alpha_range=(2.0, 6.0),
            nu_grid=(0.5, 1.0),
        )
        original = gpi.estimate_disjoint

        def lowered_first_pass(params, query, n, seed, *rest):
            est = original(params, query, n, seed, *rest)
            if n != cfg.samples:
                return est
            return dataclasses.replace(
                est, mean_log=est.mean_log - 1, stderr_log=est.stderr_log - 1,
                max_log=est.max_log - 1,
            )

        monkeypatch.setattr(gpi, "estimate_disjoint", lowered_first_pass)
        rep = search(cfg)
        monkeypatch.undo()
        for rec in rep.trials:
            row = rec.to_record()
            assert row["escalated"] is True
            assert row["first_pass_z"] < -4
            assert row["samples"] == 10 * cfg.samples
            inst = wishart_instance(row["alpha"], np.array(row["sigma"]), tuple(row["nu"]))
            redo = gpi_ratio(inst, row["samples"], row["escalation_seed"])
            assert redo.ratio == row["ratio"]
            assert redo.violation_z == row["violation_z"]
            assert redo.verdict.value == row["verdict"]

    def test_gaussian_kind_is_the_unit_alpha_range(self):
        cfg = dict(kind="gaussian", dims=(1, 3), trials=4, samples=2_000, seed=31)
        plain = search(SearchConfig(**cfg))
        spelled = search(SearchConfig(**cfg, alpha_range=(1, 1)))
        assert SearchConfig(**cfg).alpha_range == (1.0, 1.0)
        assert [r.to_record() for r in plain.trials] == [r.to_record() for r in spelled.trials]
        assert all(r.result.instance.params.alpha == 1.0 for r in plain.trials)

    def test_single_integer_shape_at_any_dimension(self):
        # alpha = 2 is singular for dims 3 and 4, which unit blocks admit.
        cfg = SearchConfig(
            kind="wishart", dims=(1, 4), trials=8, samples=2_000, seed=13,
            alpha_range=(2, 2),
        )
        rows = [r.to_record() for r in search(cfg).trials]
        assert {row["alpha"] for row in rows} == {2.0}
        assert max(row["dim"] for row in rows) > 2

    def test_rho_grid_serves_the_wishart_kind(self):
        cfg = SearchConfig(
            kind="wishart", dims=(2, 2), trials=3, samples=2_000, seed=19,
            alpha_range=(1.5, 5.0), rho_grid=(0.3,),
        )
        for rec in search(cfg).trials:
            row = rec.to_record()
            assert row["sigma"] == [[1.0, 0.3], [0.3, 1.0]]
            assert 1.5 <= row["alpha"] <= 5.0

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param({"trials": 2.5}, id="trials"),
            pytest.param({"samples": 100.5}, id="samples"),
            pytest.param({"dims": (1.5, 2)}, id="dims"),
            *(
                pytest.param({key: (value, 2) if key == "dims" else value}, id=f"{key}-{value!r}")
                for key in ("trials", "samples", "dims", "seed")
                for value in (math.nan, math.inf, 2.0, True, -1)
            ),
        ],
    )
    def test_config_refuses_non_integer_counts(self, bad):
        # The config refuses them itself: a search would otherwise raise a raw
        # TypeError (trials), refuse only inside its first trial (samples)
        # or run (dims, and a float or boolean count or seed).
        cfg = dict(kind="wishart", dims=(1, 2), trials=2, samples=100, seed=1, alpha_range=(1, 4))
        with pytest.raises(DomainError, match="integer"):
            SearchConfig(**{**cfg, **bad})

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SearchConfig(kind="other", dims=(1, 2), trials=1, samples=100, seed=0)
        with pytest.raises(DomainError):
            SearchConfig(kind="wishart", dims=(1, 2), trials=1, samples=100, seed=0)
        # Reversed, or below hi - 1 and not one integer shape: dim 4 gets no shape.
        for alpha_range in ((1.0, 2.5), (2.5, 2.5), (0.0, 0.0), (3.0, 2.0)):
            with pytest.raises(DomainError):
                SearchConfig(
                    kind="wishart", dims=(2, 4), trials=1, samples=100, seed=0,
                    alpha_range=alpha_range,
                )
        with pytest.raises(DomainError, match="alpha"):
            SearchConfig(
                kind="gaussian", dims=(2, 2), trials=1, samples=100, seed=0,
                alpha_range=(2.0, 5.0),
            )
        for kind in ("gaussian", "wishart"):
            with pytest.raises(DomainError):
                SearchConfig(
                    kind=kind, dims=(2, 3), trials=1, samples=100, seed=0,
                    alpha_range=(1, 1), rho_grid=(0.5,),
                )
