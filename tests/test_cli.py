import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import wishminors
from wishminors import SpdMatrix, Verdict, WishartParams, sample_bartlett, sample_gaussian_sum
from wishminors.cli import (
    EXIT_DOMAIN,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    fmt_float,
    main,
    read_matrix_csv,
    write_matrix_csv,
)
from conftest import random_spd


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_quietly(capsys, *argv):
    """``run``, asserting that no RuntimeWarning was raised or printed on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in err
    return code, out, err


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def sigma_file(tmp_path, matrix, name="sigma.csv"):
    path = tmp_path / name
    write_matrix_csv(np.asarray(matrix, dtype=float), str(path))
    return str(path)


class TestMatrixCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        a = np.array([[2.0, math.sqrt(2) / 3], [math.sqrt(2) / 3, 1.0 / 3.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(a, str(path))
        assert np.array_equal(read_matrix_csv(str(path)), a)

    def test_missing_file(self):
        with pytest.raises(Exception) as info:
            read_matrix_csv("/no/such/file.csv")
        assert "cannot read" in str(info.value)

    @pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["empty", "blank-lines"])
    def test_empty_scale_file_exits_parse(self, tmp_path, capsys, text):
        path = tmp_path / "sigma.csv"
        path.write_text(text)
        code, out, err = run(
            capsys, "exact", "--alpha", "3", "--sigma", str(path),
            "--partition", "1", "--nu", "1",
        )
        assert code == EXIT_PARSE
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("wishminors:"), err

    def test_fmt_float_round_trips(self):
        for x in (0.1, 1 / 3, 2.0, 1e300, math.pi):
            assert float(fmt_float(x)) == x


class TestExact:
    def test_scalar_mean(self, tmp_path, capsys):
        # p = 1: E X^1 = alpha * sigma
        path = sigma_file(tmp_path, [[1.0]])
        code, out, _ = run(
            capsys, "exact", "--alpha", "2", "--sigma", path,
            "--partition", "1", "--nu", "1",
        )
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["log_value"] == pytest.approx(math.log(2.0), abs=1e-14)
        assert rec["value_or_inf"] == pytest.approx(2.0, rel=1e-14)
        assert rec["tool"]["name"] == "wishminors"
        assert rec["config"]["command"] == "exact"
        assert len(rec["factors"]) == 1

    def test_nested_minor_product(self, tmp_path, capsys):
        path = sigma_file(tmp_path, np.eye(3))
        code, out, _ = run(
            capsys, "exact", "--alpha", "4", "--sigma", path,
            "--partition", "1,2", "--nu", "0.5,1.5",
        )
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["value_or_inf"] == pytest.approx(576.0, rel=1e-10)
        assert [f["block"] for f in rec["factors"]] == [1, 2]

    def test_disjoint_blockdiag(self, tmp_path, capsys):
        path = sigma_file(tmp_path, np.diag([1.0, 2.0]))
        code, out, _ = run(
            capsys, "exact", "--alpha", "3", "--sigma", path,
            "--partition", "1,1", "--nu", "1,1", "--disjoint-blockdiag",
        )
        assert code == EXIT_OK
        rec = json.loads(out)
        # product of diagonal means: (3 * 1) * (3 * 2)
        assert rec["value_or_inf"] == pytest.approx(18.0, rel=1e-12)
        assert rec["config"]["disjoint_blockdiag"] is True
        assert [f["block"] for f in rec["factors"]] == [1, 2]
        total = sum(f["det_term"] + f["gamma_term"] for f in rec["factors"])
        assert total == rec["log_value"]

    def test_disjoint_blockdiag_zero_exponent_block_may_be_coupled(self, tmp_path, capsys):
        path = sigma_file(tmp_path, [[1.0, 0.5], [0.5, 1.0]])
        code, out, _ = run(
            capsys, "exact", "--alpha", "3", "--sigma", path,
            "--partition", "1,1", "--nu", "1,0", "--disjoint-blockdiag",
        )
        assert code == EXIT_OK
        assert json.loads(out)["value_or_inf"] == pytest.approx(3.0, rel=1e-12)  # E X_11

    def test_singular_alpha_exits_domain(self, tmp_path, capsys):
        path = sigma_file(tmp_path, np.eye(2))
        code, _, err = run(
            capsys, "exact", "--alpha", "1", "--sigma", path,
            "--partition", "2", "--nu", "1",
        )
        assert code == EXIT_DOMAIN
        assert "wishminors:" in err

    def test_asymmetric_sigma_exits_domain(self, tmp_path, capsys):
        path = sigma_file(tmp_path, [[1.0, 0.3], [0.1, 1.0]])
        code, _, err = run(
            capsys, "exact", "--alpha", "3", "--sigma", path,
            "--partition", "2", "--nu", "1",
        )
        assert code == EXIT_DOMAIN
        assert "asymmetry" in err

    def test_missing_sigma_exits_parse(self, capsys):
        code, _, err = run(
            capsys, "exact", "--alpha", "3", "--sigma", "/no/file.csv",
            "--partition", "1", "--nu", "1",
        )
        assert code == EXIT_PARSE
        assert "cannot read" in err

    def test_bad_nu_exits_parse(self, tmp_path, capsys):
        path = sigma_file(tmp_path, [[1.0]])
        with pytest.raises(SystemExit) as info:
            main(["exact", "--alpha", "3", "--sigma", path,
                  "--partition", "1", "--nu", "abc"])
        assert info.value.code == EXIT_PARSE
        assert "--nu" in capsys.readouterr().err

    def test_unknown_flag_exits_parse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["exact", "--frobnicate"])
        assert info.value.code == EXIT_PARSE
        capsys.readouterr()

    def test_out_file(self, tmp_path, capsys):
        path = sigma_file(tmp_path, [[1.0]])
        dest = tmp_path / "rec.json"
        code, out, _ = run(
            capsys, "exact", "--alpha", "2", "--sigma", path,
            "--partition", "1", "--nu", "1", "--out", str(dest),
        )
        assert code == EXIT_OK and out == ""
        assert json.loads(dest.read_text())["value_or_inf"] == pytest.approx(2.0)


class TestVerify:
    def test_embedded_consistent(self, tmp_path, capsys):
        path = sigma_file(tmp_path, np.eye(2))
        code, out, _ = run(
            capsys, "verify", "--alpha", "3", "--sigma", path,
            "--partition", "1,1", "--nu", "1,1", "--mode", "embedded",
            "--samples", "20000", "--seed", "11",
        )
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["verdict"] == "consistent"
        assert abs(rec["z"]) <= 4
        assert {"tool", "config", "exact_log", "n", "mean_log", "mean",
                "stderr", "z", "verdict", "flags"} <= rec.keys()
        assert rec["n"] == 20000 and rec["config"]["seed"] == 11

    def test_zero_exponents_give_exact_zero_z(self, tmp_path, capsys):
        path = sigma_file(tmp_path, np.eye(2))
        code, out, _ = run(
            capsys, "verify", "--alpha", "3", "--sigma", path,
            "--partition", "2", "--nu", "0", "--mode", "embedded",
            "--samples", "100",
        )
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["exact_log"] == 0.0 and rec["z"] == 0.0

    def test_disjoint_without_blockdiag_reports_mc_only(self, tmp_path, capsys):
        path = sigma_file(tmp_path, [[1.0, 0.5], [0.5, 1.0]])
        code, out, _ = run(
            capsys, "verify", "--alpha", "2", "--sigma", path,
            "--partition", "1,1", "--nu", "1,1", "--mode", "disjoint",
            "--samples", "50000", "--seed", "5",
        )
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["exact_log"] is None and rec["verdict"] is None
        assert "note" in rec and "block diagonal" in rec["note"]
        # Wick: E(X11 X22) = alpha^2 + 2 alpha rho^2 = 5 here
        assert rec["mean"] == pytest.approx(5.0, abs=5 * rec["stderr"])

    def test_disjoint_zero_exponents_on_coupled_scale_are_exact(self, tmp_path, capsys):
        # Zero exponents make the moment exactly 1, whatever couples the blocks.
        path = sigma_file(tmp_path, [[1.0, 0.5], [0.5, 1.0]])
        code, out, _ = run(
            capsys, "verify", "--alpha", "3", "--sigma", path,
            "--partition", "1,1", "--nu", "0,0", "--mode", "disjoint",
            "--samples", "1000",
        )
        assert code == EXIT_OK
        rec = strict_json(out)
        assert rec["exact_log"] == 0.0 and rec["z"] == 0.0
        assert rec["verdict"] == "consistent" and "note" not in rec

    @pytest.mark.parametrize("mode", ["embedded", "disjoint"])
    @pytest.mark.parametrize(
        "sigma", [np.eye(2), [[1.0, 0.5], [0.5, 1.0]]], ids=["blockdiag", "coupled"]
    )
    def test_one_sample_exits_domain_before_drawing(
        self, tmp_path, capsys, monkeypatch, mode, sigma
    ):
        # One draw has no standard error, with or without an exact value.
        def refuse(*args, **kwargs):
            raise AssertionError("drew before refusing one sample")

        monkeypatch.setattr(wishminors.montecarlo, "map_chunks", refuse)
        code, out, err = run(
            capsys, "verify", "--alpha", "3", "--sigma", sigma_file(tmp_path, sigma),
            "--partition", "1,1", "--nu", "1,1", "--mode", mode, "--samples", "1",
        )
        assert code == EXIT_DOMAIN and out == ""
        assert err == "wishminors: sample count must be an integer >= 2, got 1\n"

    @pytest.mark.parametrize("nu", ["0,1", "0.5,0.5", "1,0.25"])
    def test_embedded_boundary_record_is_strict_json(self, tmp_path, capsys, nu):
        # alpha = p - 1 + 1e-7: the last chi-square would underflow in linear space.
        path = sigma_file(tmp_path, [[2.0, 0.6], [0.6, 1.0]])
        code, out, _ = run(
            capsys, "verify", "--alpha", "1.0000001", "--sigma", path,
            "--partition", "1,1", "--nu", nu, "--mode", "embedded",
            "--samples", "100000", "--seed", "3",
        )
        assert code in (EXIT_OK, EXIT_INCONSISTENT)
        rec = strict_json(out)
        assert math.isfinite(rec["mean_log"]) and math.isfinite(rec["z"])

    def test_disjoint_all_draws_minus_inf_exits_domain(self, tmp_path, capsys):
        # chi2(1e-7) underflows to 0 on every draw, so no estimate exists;
        # the -inf log is expected and must not warn.
        path = sigma_file(tmp_path, [[1.0]])
        code, out, err = run_quietly(
            capsys, "verify", "--alpha", "1e-7", "--sigma", path,
            "--partition", "1", "--nu", "1", "--mode", "disjoint",
            "--samples", "1000", "--seed", "0",
        )
        assert code == EXIT_DOMAIN and out == ""
        assert "-inf" in err

    def test_disjoint_singular_block_draws_do_not_crash(self, tmp_path, capsys):
        # Most draws have a singular 2x2 block, whose log-determinant is -inf.
        path = sigma_file(tmp_path, np.diag([1.0, 2.0]))
        code, out, _ = run(
            capsys, "verify", "--alpha", "1.0000001", "--sigma", path,
            "--partition", "2", "--nu", "1", "--mode", "disjoint",
            "--samples", "1000", "--seed", "0",
        )
        assert code in (EXIT_OK, EXIT_INCONSISTENT)
        rec = strict_json(out)
        assert math.isfinite(rec["mean_log"]) and math.isfinite(rec["z"])

    def test_disjoint_singular_unit_blocks_get_a_verdict(self, tmp_path, capsys):
        path = sigma_file(tmp_path, np.diag([1.0, 2.0, 3.0, 4.0]))
        code, out, _ = run(
            capsys, "verify", "--alpha", "2", "--sigma", path,
            "--partition", "1,1,1,1", "--nu", "1,0.5,1,2", "--mode", "disjoint",
            "--samples", "100000", "--seed", "3",
        )
        assert code == EXIT_OK
        rec = strict_json(out)
        # E X_kk^nu = (2 s_k)^nu Gamma(1 + nu) / Gamma(1) for chi2(2)-scaled entries.
        want = sum(
            v * math.log(2.0 * s) + math.lgamma(1.0 + v)
            for s, v in zip((1.0, 2.0, 3.0, 4.0), (1.0, 0.5, 1.0, 2.0))
        )
        assert rec["exact_log"] == pytest.approx(want, rel=1e-12)
        assert rec["verdict"] == "consistent" and "note" not in rec

    def test_disjoint_singular_unit_blocks_coupled_reports_mc_only(
        self, tmp_path, capsys
    ):
        sigma = np.diag([1.0, 2.0, 3.0, 4.0])
        sigma[0, 1] = sigma[1, 0] = 0.3
        path = sigma_file(tmp_path, sigma)
        code, out, _ = run(
            capsys, "verify", "--alpha", "2", "--sigma", path,
            "--partition", "1,1,1,1", "--nu", "1,0.5,1,2", "--mode", "disjoint",
            "--samples", "10000", "--seed", "3",
        )
        assert code == EXIT_OK
        rec = strict_json(out)
        assert rec["exact_log"] is None and rec["verdict"] is None
        assert "block diagonal" in rec["note"]
        assert math.isfinite(rec["mean_log"])

    def test_tail_dominated_estimate_is_flagged(self, tmp_path, capsys):
        # Near alpha = p - 1 a few draws carry the whole estimate, so its
        # batch-means error is unreliable and z = +12 is no evidence.
        path = sigma_file(tmp_path, [[2.0, 0.6], [0.6, 1.0]])
        code, out, _ = run(
            capsys, "verify", "--alpha", "1.0000001", "--sigma", path,
            "--partition", "1,1", "--nu", "0.5,0.5", "--mode", "embedded",
            "--samples", "100000", "--seed", "0",
        )
        assert code == EXIT_INCONSISTENT
        assert strict_json(out)["flags"] == ["unreliable"]

    def test_inconsistent_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "wishminors.cli.compare",
            lambda *a, **k: SimpleNamespace(z=25.0, verdict=Verdict.INCONSISTENT),
        )
        path = sigma_file(tmp_path, np.eye(2))
        code, out, _ = run(
            capsys, "verify", "--alpha", "3", "--sigma", path,
            "--partition", "2", "--nu", "1", "--mode", "embedded",
            "--samples", "200",
        )
        assert code == EXIT_INCONSISTENT
        assert json.loads(out)["verdict"] == "inconsistent"


SIGMA_3 = [[2.0, 0.5, 0.1], [0.5, 1.0, 0.0], [0.1, 0.0, 1.5]]
SIGMA_6 = random_spd(np.random.default_rng(6), 6, cond=20.0)


class TestSample:
    def test_requires_out(self, tmp_path, capsys):
        path = sigma_file(tmp_path, [[1.0]])
        with pytest.raises(SystemExit) as info:
            main(["sample", "--alpha", "3", "--sigma", path,
                  "--count", "2", "--method", "bartlett"])
        assert info.value.code == EXIT_PARSE
        assert "--out" in capsys.readouterr().err

    def test_draws_round_trip(self, tmp_path, capsys):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        path = sigma_file(tmp_path, sigma)
        dest = tmp_path / "draws.csv"
        code, out, _ = run(
            capsys, "sample", "--alpha", "2.5", "--sigma", path,
            "--count", "3", "--method", "bartlett", "--seed", "9",
            "--workers", "1", "--out", str(dest),
        )
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["rows_written"] == 9  # 3 draws x 3 upper-triangle cells
        lines = dest.read_text().splitlines()
        assert lines[0] == "draw,i,j,value"
        assert len(lines) == 10
        got = np.zeros((3, 2, 2))
        for line in lines[1:]:
            t, i, j, v = line.split(",")
            got[int(t), int(i), int(j)] = float(v)
            got[int(t), int(j), int(i)] = float(v)
        params = WishartParams(alpha=2.5, sigma=SpdMatrix.from_array(sigma))
        want = sample_bartlett(params, 3, 9).draws
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "sigma, method, alpha, sampler",
        [
            pytest.param(SIGMA_3, "bartlett", 2.5, sample_bartlett,
                         id="bartlett-2.5-sample_bartlett"),
            pytest.param(SIGMA_3, "gaussian-sum", 3.0, sample_gaussian_sum,
                         id="gaussian-sum-3.0-sample_gaussian_sum"),
            pytest.param([[2.0]], "bartlett", 2.5, sample_bartlett, id="1x1-bartlett"),
            pytest.param([[2.0]], "gaussian-sum", 3.0, sample_gaussian_sum,
                         id="1x1-gaussian-sum"),
            # The shape of the sample_csv benchmark workload.
            pytest.param(SIGMA_6, "bartlett", 8.0, sample_bartlett, id="6x6-bartlett-8.0"),
            pytest.param(SIGMA_6, "gaussian-sum", 8.0, sample_gaussian_sum,
                         id="6x6-gaussian-sum-8.0"),
        ],
    )
    def test_draws_file_bytes(self, tmp_path, capsys, sigma, method, alpha, sampler):
        # Each CSV value is read off the Gram of T's rows, X[r, c] = g[c][r] for
        # r <= c; it must be the sampler's draw entry, byte for byte.
        sigma = np.asarray(sigma)
        p = len(sigma)
        path = sigma_file(tmp_path, sigma)
        dest = tmp_path / "draws.csv"
        params = WishartParams(alpha=alpha, sigma=SpdMatrix.from_array(sigma))
        # 1001 draws: chunks of 16 and of 15, each numbered from its own start.
        for count in (70, 1001):
            draws = sampler(params, count, 4).draws
            want = "draw,i,j,value\n" + "".join(
                f"{t},{r},{c},{fmt_float(draw[r, c])}\n"
                for t, draw in enumerate(draws)
                for r, c in zip(*np.triu_indices(p))
            )
            for workers in ("1", "2"):
                code, out, _ = run(
                    capsys, "sample", "--alpha", repr(alpha), "--sigma", path,
                    "--count", str(count), "--method", method, "--seed", "4",
                    "--workers", workers, "--out", str(dest),
                )
                assert code == EXIT_OK
                assert json.loads(out)["rows_written"] == p * (p + 1) // 2 * count
                assert dest.read_text() == want

    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
    @pytest.mark.parametrize(
        "flags, code_want",
        [
            (["--alpha", "2.5", "--method", "gaussian-sum", "--count", "5"], EXIT_DOMAIN),
            (["--alpha", "1", "--method", "bartlett", "--count", "5"], EXIT_DOMAIN),
            (["--alpha", "4", "--method", "bartlett", "--count", "-1"], EXIT_DOMAIN),
            (["--alpha", "4", "--method", "bartlett", "--count", "2.5"], EXIT_PARSE),
            (["--alpha", "4", "--method", "bartlett", "--count", "5", "--seed", "-1"],
             EXIT_DOMAIN),
            # Draws that numpy could not hold in one array, at the count or at the shape.
            (["--alpha", "3", "--method", "bartlett", "--count", str(10**20)], EXIT_DOMAIN),
            (["--alpha", "1e300", "--method", "gaussian-sum", "--count", "1"], EXIT_DOMAIN),
            # A chunk past 2**47 bytes, which no allocator can grant.
            (["--alpha", "3", "--method", "bartlett", "--count", str(10**17)], EXIT_DOMAIN),
        ],
        ids=["non-integer-alpha", "singular-bartlett", "negative-count", "non-integer-count",
             "negative-seed", "count-past-numpy", "alpha-past-numpy", "count-past-memory"],
    )
    def test_refusal_leaves_out_untouched(self, tmp_path, capsys, flags, code_want, existing):
        path = sigma_file(tmp_path, np.eye(2))
        dest = tmp_path / "draws.csv"
        if existing:
            dest.write_bytes(b"the user's data\n")
        try:
            code = main(["sample", "--sigma", path, *flags, "--out", str(dest)])
        except SystemExit as exc:  # argparse refuses a non-integer count
            code = exc.code
        assert code == code_want
        assert capsys.readouterr().out == ""
        if existing:
            assert dest.read_bytes() == b"the user's data\n"
        else:
            assert not dest.exists()

    def test_memory_holds_one_chunk(self, tmp_path, capsys):
        # The old batch held count * p * p doubles of draws, and as much
        # again of Bartlett factors; a run now holds one chunk of count/64 draws.
        p = 3
        path = sigma_file(tmp_path, np.eye(p) + 0.3)
        dest = tmp_path / "draws.csv"

        def peak(count, method):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                code, _, _ = run(
                    capsys, "sample", "--alpha", "4", "--sigma", path, "--count", str(count),
                    "--method", method, "--workers", "2", "--out", str(dest),
                )
                assert code == EXIT_OK
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        for method in ("bartlett", "gaussian-sum"):
            peak(100, method)  # one-time allocations of the first run
            small, large = peak(2_000, method), peak(20_000, method)
            assert large <= 2 * small, (method, small, large)
            assert large < 20_000 * p * p * 8, (method, large)

    def test_count_zero_writes_header_only(self, tmp_path, capsys):
        path = sigma_file(tmp_path, [[1.0]])
        dest = tmp_path / "draws.csv"
        code, out, _ = run(
            capsys, "sample", "--alpha", "3", "--sigma", path,
            "--count", "0", "--method", "bartlett", "--out", str(dest),
        )
        assert code == EXIT_OK
        assert dest.read_text() == "draw,i,j,value\n"
        assert json.loads(out)["rows_written"] == 0

    def test_gaussian_sum_non_integer_alpha_exits_domain(self, tmp_path, capsys):
        path = sigma_file(tmp_path, np.eye(2))
        dest = tmp_path / "draws.csv"
        code, _, err = run(
            capsys, "sample", "--alpha", "2.5", "--sigma", path,
            "--count", "2", "--method", "gaussian-sum", "--out", str(dest),
        )
        assert code == EXIT_DOMAIN
        assert "integer" in err

    def test_gaussian_sum_singular_regime_allowed(self, tmp_path, capsys):
        path = sigma_file(tmp_path, np.eye(3))
        dest = tmp_path / "draws.csv"
        code, out, _ = run(
            capsys, "sample", "--alpha", "2", "--sigma", path,
            "--count", "2", "--method", "gaussian-sum", "--out", str(dest),
        )
        assert code == EXIT_OK
        assert json.loads(out)["rows_written"] == 12


GPI_SEARCHES = {
    "wishart": ["--kind", "wishart", "--dims", "1:3", "--alpha-range", "1:6"],
    "gaussian": ["--kind", "gaussian", "--dims", "2:3"],
}

# One run of each subcommand; every one but gpi also takes a --sigma.
MOMENT_ARGS = ["--alpha", "4.5", "--partition", "1,2", "--nu", "1,0.5"]
SUBCOMMAND_RUNS = {
    "exact": ["exact", *MOMENT_ARGS],
    "verify-embedded": ["verify", *MOMENT_ARGS, "--mode", "embedded", "--samples", "2000"],
    "verify-disjoint": ["verify", *MOMENT_ARGS, "--mode", "disjoint", "--samples", "2000"],
    "sample": [
        "sample", "--alpha", "4.5", "--count", "200", "--method", "bartlett",
        "--out", "draws.csv",
    ],
    "gpi": ["gpi", *GPI_SEARCHES["wishart"], "--trials", "3", "--samples", "2000"],
}


def assert_verdict_counts(header, rows, trials):
    """The header's ``verdicts`` counts the trial lines' verdicts, over ``trials`` lines."""
    counts = {v.value: sum(r["verdict"] == v.value for r in rows) for v in Verdict}
    assert header["verdicts"] == counts
    assert sum(header["verdicts"].values()) == trials == len(rows)


class TestGpi:
    @pytest.mark.parametrize("search", GPI_SEARCHES)
    def test_trial_lines_ignore_workers(self, capsys, search):
        outs = []
        for workers in ("1", "4"):
            code, out, _ = run(
                capsys, "gpi", *GPI_SEARCHES[search], "--trials", "4",
                "--samples", "2000", "--seed", "17", "--workers", workers,
            )
            assert code == EXIT_OK
            outs.append(out)
        assert len(outs[0].splitlines()) == 5 and outs[0] == outs[1]

    @pytest.mark.parametrize("argv", SUBCOMMAND_RUNS.values(), ids=SUBCOMMAND_RUNS)
    def test_search_starts_no_thread(self, monkeypatch, tmp_path, capsys, argv):
        # Every subcommand runs on the calling thread, whatever --workers says,
        # and a successful run writes nothing to stderr.
        def refuse(thread):
            raise AssertionError(f"{argv[0]} started thread {thread.name}")

        if argv[0] != "gpi":
            sigma = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.3], [0.0, 0.3, 1.5]]
            argv = [*argv, "--sigma", sigma_file(tmp_path, sigma)]
        dest = tmp_path / "out.txt"
        monkeypatch.setattr(threading.Thread, "start", refuse)
        code, _, err = run(capsys, *argv, "--workers", "4", "--out", str(dest))
        assert code == EXIT_OK and dest.stat().st_size > 0
        assert err == ""

    @pytest.mark.parametrize("argv", SUBCOMMAND_RUNS.values(), ids=SUBCOMMAND_RUNS)
    def test_workers_defaults_to_one(self, argv):
        # Not the machine's core count: the flag is checked, and changes nothing.
        sigma = [] if argv[0] == "gpi" else ["--sigma", "sigma.csv"]
        assert build_parser().parse_args([*argv, *sigma]).workers == 1

    def test_gaussian_rho_sweep_jsonl(self, tmp_path, capsys):
        dest = tmp_path / "trials.jsonl"
        code, out, err = run(
            capsys, "gpi", "--kind", "gaussian", "--dims", "2",
            "--trials", "2", "--samples", "5000", "--nu-grid", "1",
            "--rho-grid", "0.0,0.6", "--seed", "21", "--out", str(dest),
        )
        assert code == EXIT_OK and out == "" and err == ""
        lines = [json.loads(s) for s in dest.read_text().splitlines()]
        header, rows = lines[0], lines[1:]
        assert header["tool"]["name"] == "wishminors"
        assert header["config"]["rho_grid"] == [0.0, 0.6]
        assert len(rows) == 2
        assert_verdict_counts(header, rows, trials=2)
        zs = [r["violation_z"] for r in rows]
        assert zs == sorted(zs)
        for row in rows:
            assert row["kind"] == "gaussian" and row["verdict"] == "consistent"
            assert list(row) == [
                "trial", "kind", "dim", "corr", "nu", "samples", "estimate_seed",
                "escalation_seed", "ratio", "ratio_stderr", "ratio_log",
                "denominator_log", "violation_z", "verdict", "escalated",
                "first_pass_z", "flags",
            ]

    @pytest.mark.parametrize("nu_grid, unreliable", [("1", False), ("50", True)])
    def test_trial_line_flags_unreliable_estimate(self, tmp_path, capsys, nu_grid, unreliable):
        # At nu = 50 and rho = 0.99 a few draws carry the whole mean, and the
        # trial line carries the heavy-tail flag.
        dest = tmp_path / "trials.jsonl"
        code, _, _ = run(
            capsys, "gpi", "--kind", "gaussian", "--dims", "2", "--rho-grid", "0.99",
            "--nu-grid", nu_grid, "--trials", "1", "--samples", "2000", "--seed", "1",
            "--out", str(dest),
        )
        assert code == EXIT_OK
        trial = json.loads(dest.read_text().splitlines()[1])
        assert trial["flags"] == (["unreliable"] if unreliable else [])

    def test_negative_rho_grid_needs_equals_form(self, tmp_path, capsys):
        # A value that starts with "-" must be attached with "=", or the
        # parser reads it as a flag.
        dest = tmp_path / "trials.jsonl"
        code, _, _ = run(
            capsys, "gpi", "--kind", "gaussian", "--dims", "2",
            "--trials", "2", "--samples", "2000", "--nu-grid", "1",
            "--rho-grid=-0.5,0.3", "--seed", "21", "--out", str(dest),
        )
        assert code == EXIT_OK
        lines = [json.loads(s) for s in dest.read_text().splitlines()]
        assert lines[0]["config"]["rho_grid"] == [-0.5, 0.3]
        assert sorted(row["corr"][0][1] for row in lines[1:]) == [-0.5, 0.3]

    def test_wishart_search_stdout(self, capsys):
        code, out, err = run(
            capsys, "gpi", "--kind", "wishart", "--dims", "1:2",
            "--alpha-range", "1.5:4", "--trials", "3", "--samples", "4000",
            "--seed", "2",
        )
        assert code == EXIT_OK and err == ""
        lines = [json.loads(s) for s in out.splitlines()]
        assert len(lines) == 4  # header + one line per trial
        assert lines[0]["config"]["dims"] == [1, 2]
        assert all("alpha" in row for row in lines[1:])
        assert_verdict_counts(lines[0], lines[1:], trials=3)

    def test_all_draws_minus_inf_exits_domain(self, tmp_path, capsys):
        dest = tmp_path / "trials.jsonl"
        code, out, err = run_quietly(
            capsys, "gpi", "--kind", "wishart", "--dims", "1",
            "--alpha-range", "1e-7:1e-7", "--trials", "2", "--samples", "1000",
            "--seed", "0", "--out", str(dest),
        )
        assert code == EXIT_DOMAIN and out == ""
        assert "-inf" in err and not dest.exists()

    def test_wishart_without_alpha_range_exits_domain(self, capsys):
        code, _, err = run(
            capsys, "gpi", "--kind", "wishart", "--dims", "2",
            "--trials", "1", "--samples", "100",
        )
        assert code == EXIT_DOMAIN
        assert "alpha range" in err

    def test_bad_dims_exits_parse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gpi", "--kind", "gaussian", "--dims", "1:2:3",
                  "--trials", "1", "--samples", "100"])
        assert info.value.code == EXIT_PARSE
        assert "--dims" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", SUBCOMMAND_RUNS.values(), ids=SUBCOMMAND_RUNS)
    def test_format_flag_exits_parse(self, capsys, argv):
        # Every subcommand writes only its JSON record, so none takes --format.
        sigma = [] if argv[0] == "gpi" else ["--sigma", "sigma.csv"]
        with pytest.raises(SystemExit) as info:
            main([*argv, *sigma, "--format", "csv"])
        assert info.value.code == EXIT_PARSE
        assert "--format" in capsys.readouterr().err


class TestRecordConfig:
    @pytest.mark.parametrize(
        "argv, parsed",
        [
            (["exact", "--alpha", "3", "--partition", "1,1", "--nu", "1,0.5"],
             {"partition": [1, 1], "nu": [1.0, 0.5], "disjoint_blockdiag": False}),
            (["verify", "--alpha", "3", "--partition", "2", "--nu", "1",
              "--mode", "embedded", "--samples", "200"],
             {"partition": [2], "nu": [1.0], "samples": 200, "mode": "embedded"}),
            (["sample", "--alpha", "3", "--count", "2", "--method", "bartlett"],
             {"count": 2, "method": "bartlett"}),
            (["gpi", "--kind", "wishart", "--dims", "2", "--alpha-range", "1.5:4",
              "--trials", "1", "--samples", "100"],
             {"dims": [2, 2], "alpha_range": [1.5, 4.0],
              "nu_grid": [0.5, 1.0, 1.5, 2.0, 3.0], "rho_grid": None}),
            # The header echoes the range a gaussian search resolves to.
            (["gpi", "--kind", "gaussian", "--dims", "2", "--trials", "1", "--samples", "100"],
             {"kind": "gaussian", "dims": [2, 2], "alpha_range": [1.0, 1.0]}),
        ],
        ids=["exact", "verify", "sample", "gpi", "gpi-gaussian"],
    )
    def test_config_is_the_parsed_namespace(self, tmp_path, capsys, argv, parsed):
        if argv[0] != "gpi":
            argv = argv + ["--sigma", sigma_file(tmp_path, np.eye(2))]
        if argv[0] == "sample":
            argv = argv + ["--out", str(tmp_path / "draws.csv")]
        argv = argv + ["--seed", "5", "--workers", "1"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        config = strict_json(out.splitlines()[0] if argv[0] == "gpi" else out)["config"]
        dests = [k for k in vars(build_parser().parse_args(argv)) if k not in ("func", "workers")]
        assert list(config) == dests
        assert config["command"] == argv[0] and config["seed"] == 5
        assert {k: config[k] for k in parsed} == parsed


def run_subprocess(*args):
    """``python *args`` in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(wishminors.__file__))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


class TestOutOfRangeInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["exact", "--alpha", "inf", "--partition", "1,1", "--nu", "1,1"],
                         id="exact-alpha-inf"),
            pytest.param(["exact", "--alpha", "3", "--partition", "1,1",
                          "--nu", "1e308,1e308"], id="exact-nu-1e308"),
            pytest.param(["sample", "--alpha", "inf", "--count", "3",
                          "--method", "bartlett"], id="sample-alpha-inf"),
            pytest.param(["verify", "--alpha", "inf", "--partition", "1,1", "--nu", "1,1",
                          "--mode", "embedded", "--samples", "100"], id="verify-alpha-inf"),
            pytest.param(["verify", "--alpha", "3", "--partition", "1,1", "--nu", "1e308,1e308",
                          "--mode", "disjoint", "--samples", "100"],
                         id="verify-disjoint-nu-1e308"),
            pytest.param(["verify", "--alpha", "inf", "--partition", "1,1", "--nu", "1,1",
                          "--mode", "disjoint", "--samples", "100"],
                         id="verify-disjoint-alpha-inf"),
            pytest.param(["gpi", "--kind", "gaussian", "--dims", "2", "--trials", "1",
                          "--samples", "100", "--seed", "-1"], id="gpi-seed-negative"),
            pytest.param(["gpi", "--kind", "gaussian", "--dims", "2", "--trials", "1",
                          "--samples", "100", "--seed", str(2**64)], id="gpi-seed-2**64"),
            pytest.param(["gpi", "--kind", "wishart", "--dims", "2", "--alpha-range", "1:inf",
                          "--trials", "1", "--samples", "100"], id="gpi-alpha-range-inf"),
            pytest.param(["gpi", "--kind", "gaussian", "--dims", "2", "--alpha-range", "2:5",
                          "--trials", "1", "--samples", "100"], id="gpi-gaussian-alpha-range"),
            # Counts whose largest chunk numpy could not hold in one array.
            pytest.param(["verify", "--alpha", "3", "--partition", "1,1", "--nu", "1,1",
                          "--mode", "embedded", "--samples", str(10**20)],
                         id="verify-embedded-samples-10**20"),
            pytest.param(["verify", "--alpha", "3", "--partition", "1,1", "--nu", "1,1",
                          "--mode", "disjoint", "--samples", str(10**20)],
                         id="verify-disjoint-samples-10**20"),
            pytest.param(["gpi", "--kind", "wishart", "--dims", "1", "--alpha-range", "2:3",
                          "--trials", "1", "--samples", str(10**20)], id="gpi-samples-10**20"),
            pytest.param(["sample", "--method", "gaussian-sum", "--alpha", "1e300",
                          "--count", "1"], id="sample-gaussian-sum-alpha-1e300"),
            # Counts whose largest chunk, past 2**47 bytes, no allocator can grant.
            pytest.param(["verify", "--alpha", "3", "--partition", "1,1", "--nu", "1,1",
                          "--mode", "embedded", "--samples", str(10**17)],
                         id="verify-embedded-samples-10**17"),
            pytest.param(["verify", "--alpha", "3", "--partition", "1,1", "--nu", "1,1",
                          "--mode", "disjoint", "--samples", str(10**17)],
                         id="verify-disjoint-samples-10**17"),
            pytest.param(["gpi", "--kind", "wishart", "--dims", "1", "--alpha-range", "2:3",
                          "--trials", "1", "--samples", str(10**17)], id="gpi-samples-10**17"),
        ],
    )
    def test_exits_domain_with_one_line(self, tmp_path, argv):
        if argv[0] != "gpi":
            argv = argv + ["--sigma", sigma_file(tmp_path, np.eye(2))]
        if argv[0] == "sample":
            argv = argv + ["--out", str(tmp_path / "draws.csv")]
        proc = run_subprocess("-m", "wishminors.cli", *argv, "--workers", "1")
        assert proc.returncode == EXIT_DOMAIN, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("wishminors:"), proc.stderr
        assert "Traceback" not in proc.stderr
        if argv[0] == "verify" and "1e308,1e308" in argv:  # the exact value's cause
            assert "overflows double range" in lines[0]
        if "1e300" in argv:  # its byte count, past 300 digits, prints compactly
            assert len(lines[0]) < 200, lines[0]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--alpha", "3", "--partition", "1,1", "--nu", "1,1"],
            ["verify", "--alpha", "3", "--partition", "1,1", "--nu", "1,1",
             "--mode", "embedded", "--samples", "100"],
            ["sample", "--alpha", "3", "--count", "3", "--method", "bartlett"],
            ["gpi", "--kind", "gaussian", "--dims", "2", "--trials", "1", "--samples", "100"],
        ],
        ids=["exact", "verify", "sample", "gpi"],
    )
    def test_workers_below_one_exits_domain(self, tmp_path, capsys, argv, workers):
        dest = tmp_path / "out.txt"
        if argv[0] != "gpi":
            argv = argv + ["--sigma", sigma_file(tmp_path, np.eye(2))]
        code, out, err = run(capsys, *argv, "--out", str(dest), "--workers", workers)
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"wishminors: workers must be an integer >= 1, got {workers}\n"
        assert not dest.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("argv", SUBCOMMAND_RUNS.values(), ids=SUBCOMMAND_RUNS)
    def test_seed_out_of_range_exits_domain(self, tmp_path, capsys, argv, seed):
        if argv[0] != "gpi":
            argv = [*argv, "--sigma", sigma_file(tmp_path, np.eye(3))]
        dest = tmp_path / "out.txt"
        code, out, err = run(capsys, *argv, "--seed", seed, "--out", str(dest))
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"wishminors: seed must be an integer in [0, {2**64}), got {seed}\n"
        assert not dest.exists()

    @pytest.mark.parametrize(
        "alpha, partition, nu, want_logs",
        [
            # E[X] = alpha for X ~ chi2(alpha); a plain lgamma difference cancels to log 2 here.
            pytest.param(1e300, "1", "1", [math.log(1e300)], id="exact-alpha-1e300"),
            # I_2, nu (1, 1): 2^3 (a/2)(a/2 + 1)(a/2 - 1/2); each lgamma alone overflows.
            pytest.param(1e306, "1,1", "1,1",
                         [3 * math.log(2.0), math.log(5e305), math.log(5e305 + 1),
                          math.log(5e305 - 0.5)], id="exact-alpha-1e306"),
        ],
    )
    def test_large_alpha_gives_finite_value(self, tmp_path, capsys, alpha, partition, nu,
                                            want_logs):
        dim = len(partition.split(","))
        code, out, _ = run(
            capsys, "exact", "--alpha", repr(alpha), "--sigma", sigma_file(tmp_path, np.eye(dim)),
            "--partition", partition, "--nu", nu,
        )
        assert code == EXIT_OK
        assert strict_json(out)["log_value"] == pytest.approx(math.fsum(want_logs), rel=1e-14)

    def test_disjoint_blockdiag_singular_unit_blocks_match_verify(self, tmp_path, capsys):
        path = sigma_file(tmp_path, np.diag([1.0, 2.0, 1.5, 1.0]))
        moment = ["--alpha", "2", "--sigma", path, "--partition", "1,1,1,1", "--nu", "1,1,1,1"]
        code, out, _ = run(capsys, "exact", *moment, "--disjoint-blockdiag")
        assert code == EXIT_OK
        exact = strict_json(out)
        code, out, _ = run(
            capsys, "verify", *moment, "--mode", "disjoint", "--samples", "1000"
        )
        assert code == EXIT_OK
        assert exact["log_value"] == strict_json(out)["exact_log"]
        # product of the diagonal means alpha * sigma_kk
        assert exact["value_or_inf"] == pytest.approx(48.0, rel=1e-12)

    def test_disjoint_blockdiag_singular_blocks_up_to_alpha_match_verify(
        self, tmp_path, capsys
    ):
        # alpha = 2 on 2x2 blocks: each block is a nonsingular Wishart(2, sigma_kk).
        path = sigma_file(tmp_path, np.diag([1.0, 2.0, 1.5, 1.0]))
        moment = ["--alpha", "2", "--sigma", path, "--partition", "2,2", "--nu", "1,0.5"]
        code, out, _ = run(capsys, "exact", *moment, "--disjoint-blockdiag")
        assert code == EXIT_OK
        exact = strict_json(out)
        code, out, _ = run_quietly(
            capsys, "verify", *moment, "--mode", "disjoint",
            "--samples", "100000", "--seed", "1",
        )
        assert code == EXIT_OK
        rec = strict_json(out)
        assert rec["exact_log"] == exact["log_value"]
        assert rec["verdict"] == "consistent"

    @pytest.mark.parametrize("coupled", [False, True], ids=["diagonal", "coupled"])
    @pytest.mark.parametrize(
        "alpha, partition, nu, message",
        [
            # alpha = 2 on a 3x3 block: the block's minor is zero almost surely.
            ("2", "3,1", "1,1", "supports only blocks of size <= alpha, got sizes (3, 1)"),
            ("6", "2,1", "1,1", "partition covers 3 rows, matrix has 4"),
            ("6", "2,2", "1", "1 exponents for 2 blocks"),
        ],
        ids=["singular-block", "not-covering", "exponent-count"],
    )
    def test_disjoint_blockdiag_refuses_block_above_singular_alpha_like_verify(
        self, tmp_path, capsys, coupled, alpha, partition, nu, message
    ):
        # Every admission refusal comes first, also on a scale coupled across
        # the blocks, so exact and verify refuse with one line.
        sigma = np.eye(4)
        if coupled:
            sigma[0, 3] = sigma[3, 0] = 0.5
        path = sigma_file(tmp_path, sigma)
        moment = ["--alpha", alpha, "--sigma", path, "--partition", partition, "--nu", nu]
        exact = run(capsys, "exact", *moment, "--disjoint-blockdiag")
        verify = run(capsys, "verify", *moment, "--mode", "disjoint", "--samples", "100")
        for code, out, err in (exact, verify):
            assert (code, out) == (EXIT_DOMAIN, "")
            assert err.count("\n") == 1 and message in err
        assert exact[2] == verify[2]


class TestRerunByteIdentity:
    def test_exact_verify_gpi_stdout(self, tmp_path, capsys):
        path = sigma_file(tmp_path, [[1.0, 0.25], [0.25, 2.0]])
        cases = [
            ["exact", "--alpha", "3.5", "--sigma", path,
             "--partition", "1,1", "--nu", "0.5,1.5"],
            ["verify", "--alpha", "3.5", "--sigma", path, "--partition", "2",
             "--nu", "1", "--mode", "embedded", "--samples", "5000",
             "--seed", "4"],
            ["gpi", "--kind", "gaussian", "--dims", "2", "--trials", "2",
             "--samples", "2000", "--rho-grid", "0.3,0.7", "--seed", "8"],
        ]
        for argv in cases:
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first[0] == EXIT_OK
            assert second[1] == first[1]

    def test_sample_file_bytes(self, tmp_path, capsys):
        path = sigma_file(tmp_path, np.eye(2))
        outs = []
        for name in ("a.csv", "b.csv"):
            dest = tmp_path / name
            code, out, _ = run(
                capsys, "sample", "--alpha", "4", "--sigma", path,
                "--count", "5", "--method", "bartlett", "--seed", "13",
                "--workers", "2", "--out", str(dest),
            )
            assert code == EXIT_OK
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method", ["bartlett", "gaussian-sum"])
    def test_sample_file_ignores_workers(self, tmp_path, capsys, method):
        path = sigma_file(tmp_path, [[2.0, 0.5], [0.5, 1.0]])
        outs = []
        for workers in ("1", "2"):
            dest = tmp_path / f"draws{workers}.csv"
            code, _, _ = run(
                capsys, "sample", "--alpha", "4", "--sigma", path,
                "--count", "100", "--method", method, "--seed", "7",
                "--workers", workers, "--out", str(dest),
            )
            assert code == EXIT_OK
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]


class TestEntrypoint:
    def test_module_execution(self, tmp_path):
        path = sigma_file(tmp_path, [[1.0]])
        proc = run_subprocess(
            "-m", "wishminors.cli", "exact", "--alpha", "2",
            "--sigma", path, "--partition", "1", "--nu", "1",
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["value_or_inf"] == pytest.approx(2.0)

    def test_missing_subcommand_exits_parse(self):
        proc = run_subprocess("-m", "wishminors.cli")
        assert proc.returncode == EXIT_PARSE


# Runs in a fresh interpreter: the Schur complement's values as float hex, then
# which scipy modules the CLI import and that call have loaded.
_FOOTPRINT_SCRIPT = """
import json, sys
import numpy as np
import wishminors.cli
from wishminors import schur_complement
sig = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.5]])
schur = [v.hex() for v in schur_complement(sig, 1).ravel()]
loaded = [m for m in ("scipy", "scipy.special", "scipy.linalg") if m in sys.modules]
print(json.dumps({"loaded": loaded, "schur": schur}))
"""


_NO_POOL_SCRIPT = """
import sys
import numpy, scipy
before = "concurrent.futures" in sys.modules
import wishminors.cli
print(before, "concurrent.futures" in sys.modules)
"""


class TestImportFootprint:
    def test_cli_import_loads_no_thread_pool(self):
        # numpy and scipy do not load concurrent.futures; the package must not either.
        proc = run_subprocess("-c", _NO_POOL_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n"

    def test_cli_import_loads_no_scipy_submodule(self):
        proc = run_subprocess("-c", _FOOTPRINT_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout)
        # bench/child.py reads sys.modules["scipy"].__version__, so the top level stays.
        assert rec["loaded"] == ["scipy"]
        # The values scipy.linalg.solve_triangular gave, bit for bit.
        assert rec["schur"] == [
            "0x1.e8f5c28f5c290p-1", "-0x1.b851eb851eb85p-3",
            "-0x1.b851eb851eb85p-3", "0x1.7eb851eb851ecp+0",
        ]
