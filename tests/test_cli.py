import json
import math
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from wishminors import SpdMatrix, Verdict, WishartParams, sample_bartlett
from wishminors.cli import (
    EXIT_DOMAIN,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_PARSE,
    fmt_float,
    main,
    read_matrix_csv,
    write_matrix_csv,
)


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
        code, _, err = run(
            capsys, "exact", "--alpha", "3", "--sigma", path,
            "--partition", "1", "--nu", "abc",
        )
        assert code == EXIT_PARSE
        assert "--nu" in err

    def test_unknown_flag_exits_parse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["exact", "--frobnicate"])
        assert info.value.code == EXIT_PARSE
        capsys.readouterr()

    def test_csv_and_table_formats(self, tmp_path, capsys):
        path = sigma_file(tmp_path, [[1.0]])
        base = ["exact", "--alpha", "2", "--sigma", path,
                "--partition", "1", "--nu", "1"]
        code, out, _ = run(capsys, *base, "--format", "csv")
        assert code == EXIT_OK
        assert out.startswith("key,value\n")
        assert "factors.0.gamma_term," in out
        code, out, _ = run(capsys, *base, "--format", "table")
        assert code == EXIT_OK
        assert "log_value" in out and "," not in out.splitlines()[0].split()[0]

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
                "stderr", "z", "verdict", "flags", "seed",
                "worker_count"} <= rec.keys()
        assert rec["n"] == 20000 and rec["seed"] == 11

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
        # Most draws have a singular 2x2 block, which Cholesky refuses.
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


class TestSample:
    def test_requires_out(self, tmp_path, capsys):
        path = sigma_file(tmp_path, [[1.0]])
        code, _, err = run(
            capsys, "sample", "--alpha", "3", "--sigma", path,
            "--count", "2", "--method", "bartlett",
        )
        assert code == EXIT_PARSE
        assert "--out" in err

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
        want = sample_bartlett(params, 3, 9, workers=1).draws
        assert np.array_equal(got, want)

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


class TestGpi:
    def test_gaussian_rho_sweep_jsonl(self, tmp_path, capsys):
        dest = tmp_path / "trials.jsonl"
        code, out, err = run(
            capsys, "gpi", "--kind", "gaussian", "--dims", "2",
            "--trials", "2", "--samples", "5000", "--nu-grid", "1",
            "--rho-grid", "0.0,0.6", "--seed", "21", "--out", str(dest),
        )
        assert code == EXIT_OK and out == ""
        assert "gpi search: 2 trials" in err
        lines = [json.loads(s) for s in dest.read_text().splitlines()]
        header, rows = lines[0], lines[1:]
        assert header["tool"]["name"] == "wishminors"
        assert header["config"]["rho_grid"] == [0.0, 0.6]
        assert len(rows) == 2
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

    def test_wishart_search_stdout(self, capsys):
        code, out, err = run(
            capsys, "gpi", "--kind", "wishart", "--dims", "1:2",
            "--alpha-range", "1.5:4", "--trials", "3", "--samples", "4000",
            "--seed", "2",
        )
        assert code == EXIT_OK
        lines = [json.loads(s) for s in out.splitlines()]
        assert len(lines) == 4  # header + one line per trial
        assert lines[0]["config"]["dims"] == [1, 2]
        assert all("alpha" in row for row in lines[1:])
        assert "verdict" in err or "consistent" in err

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
        code, _, err = run(
            capsys, "gpi", "--kind", "gaussian", "--dims", "1:2:3",
            "--trials", "1", "--samples", "100",
        )
        assert code == EXIT_PARSE


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "wishminors.cli", *argv], capture_output=True, text=True
    )


class TestOutOfRangeInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["exact", "--alpha", "inf", "--partition", "1,1", "--nu", "1,1"],
                         id="exact-alpha-inf"),
            pytest.param(["exact", "--alpha", "1e306", "--partition", "1,1", "--nu", "1,1"],
                         id="exact-alpha-1e306"),
            pytest.param(["exact", "--alpha", "3", "--partition", "1,1",
                          "--nu", "1e308,1e308"], id="exact-nu-1e308"),
            pytest.param(["sample", "--alpha", "inf", "--count", "3",
                          "--method", "bartlett"], id="sample-alpha-inf"),
            pytest.param(["verify", "--alpha", "inf", "--partition", "1,1", "--nu", "1,1",
                          "--mode", "embedded", "--samples", "100"], id="verify-alpha-inf"),
            pytest.param(["gpi", "--kind", "gaussian", "--dims", "2", "--trials", "1",
                          "--samples", "100", "--seed", "-1"], id="gpi-seed-negative"),
            pytest.param(["gpi", "--kind", "gaussian", "--dims", "2", "--trials", "1",
                          "--samples", "100", "--seed", str(2**64)], id="gpi-seed-2**64"),
            pytest.param(["gpi", "--kind", "wishart", "--dims", "2", "--alpha-range", "1:inf",
                          "--trials", "1", "--samples", "100"], id="gpi-alpha-range-inf"),
        ],
    )
    def test_exits_domain_with_one_line(self, tmp_path, argv):
        if argv[0] != "gpi":
            argv = argv + ["--sigma", sigma_file(tmp_path, np.eye(2))]
        if argv[0] == "sample":
            argv = argv + ["--out", str(tmp_path / "draws.csv")]
        proc = run_subprocess(*argv, "--workers", "1")
        assert proc.returncode == EXIT_DOMAIN, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("wishminors:"), proc.stderr
        assert "Traceback" not in proc.stderr

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
        proc = subprocess.run(
            [sys.executable, "-m", "wishminors.cli", "exact", "--alpha", "2",
             "--sigma", path, "--partition", "1", "--nu", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["value_or_inf"] == pytest.approx(2.0)

    def test_missing_subcommand_exits_parse(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wishminors.cli"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_PARSE
