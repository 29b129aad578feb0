"""Benchmark workloads: seeded inputs, the op cycle of each, and the output checks.

Every input comes from the run seed.  Random SPD scales are written as CSV
files into the run's work directory; the program receives only files and
flags.  Each run cycles through a fixed list of op specs drawn from the seed,
so a run holds few distinct statistical checks however many ops fit into it.
Checks run in the parent process, never inside the timed call.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

WORKERS = 2
LOG2 = math.log(2.0)


class Miss(str):
    """A failure reason from a 4-standard-error gate that a correct estimator
    still misses now and then (for heavy-tailed ratios, about once in 300 ops).
    It counts as a failed op but, unlike every other reason, not against
    the run's ``correct``; a miss beyond 6 standard errors is a plain failure."""


class Defect(str):
    """A failure of the kind the pinned boundary op is known to have on the seed
    code: a record that is not strict JSON, a non-finite mean_log or z, or an
    inconsistent verdict (exit code 3).  It counts as a failed op; it leaves the
    run's ``correct`` alone on a pinned op only, never on any other op."""


class Op:
    """One CLI call: its argv, the Wishart draws it makes, and how to check it."""

    def __init__(self, kind, argv, draws, check, pinned=False, out=None):
        self.kind = kind
        self.argv = argv
        self.draws = draws
        self.check = check  # check(code, stdout) -> failure reason or None
        self.pinned = pinned  # known defect: a Defect here counts in `failed` only
        self.out = out  # file the op writes, removed after its check


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _random_spd(rng, p):
    a = rng.standard_normal((p, 2 * p))
    s = a @ a.T / (2 * p)
    return 0.5 * (s + s.T)


def _write_csv(path, matrix):
    with open(path, "w", encoding="ascii") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def _logdet(m):
    sign, value = np.linalg.slogdet(m)
    if sign <= 0:
        raise ValueError("oracle scale is not positive definite")
    return float(value)


def _log_gamma_ratio(p, beta, shift):
    return sum(math.lgamma(beta - j / 2 + shift) - math.lgamma(beta - j / 2) for j in range(p))


def embedded_log_moment(alpha, sigma, sizes, nu):
    """Exact log E[prod_i det(X[:P_i, :P_i])^nu_i], from slogdet and math.lgamma."""
    total, prev, suffix = 0.0, 0, float(sum(nu))
    for size, nu_i in zip(sizes, nu):
        here = prev + size
        total += nu_i * (here * LOG2 + _logdet(sigma[:here, :here]))
        total += _log_gamma_ratio(size, alpha / 2 - prev / 2, suffix)
        suffix -= nu_i
        prev = here
    return total


def blockdiag_log_moment(alpha, sigma, sizes, nu):
    """Exact log E[prod_k det(X_kk)^nu_k] for a scale that is block diagonal along sizes."""
    total, prev = 0.0, 0
    for size, nu_k in zip(sizes, nu):
        here = prev + size
        total += nu_k * (size * LOG2 + _logdet(sigma[prev:here, prev:here]))
        total += _log_gamma_ratio(size, alpha / 2, nu_k)
        prev = here
    return total


def _verify_check(oracle):
    def check(code, stdout):
        if code not in (0, 3):
            return f"exit code {code}"
        # A lenient parse first, so that exact_log meets the oracle on every op,
        # the boundary op's NaN record included.
        rec = json.loads(stdout)
        if not _close(rec["exact_log"], oracle):
            return f"exact_log {rec['exact_log']!r} differs from the oracle {oracle!r}"
        if (code == 3) != (rec["verdict"] == "inconsistent"):
            return f"exit code {code} with verdict {rec['verdict']}"
        try:
            _strict_json(stdout)
        except ValueError as exc:
            return Defect(f"record is not strict JSON ({exc})")
        if not _finite(rec["mean_log"], rec["z"]):
            return Defect("mean_log or z not finite")
        if code == 3:
            return Defect(f"verdict inconsistent (z={rec['z']})")
        if rec["verdict"] != "consistent":
            return Miss(f"verdict {rec['verdict']} (z={rec['z']})")
        return None

    return check


def _verify_argv(mode, alpha, sigma_path, sizes, nu, samples, seed):
    return [
        "verify", "--mode", mode, "--alpha", repr(alpha), "--sigma", sigma_path,
        "--partition", ",".join(map(str, sizes)), "--nu", ",".join(map(repr, nu)),
        "--samples", str(samples), "--seed", str(seed), "--workers", str(WORKERS),
    ]


def _op_seed(rng):
    return int(rng.integers(0, 2**32))


def verify_embedded(rng, workdir):
    p, sizes, samples = 60, (6,) * 10, 20000
    ops = []
    for k in range(8):
        sigma = _random_spd(rng, p)
        path = _write_csv(os.path.join(workdir, f"embedded{k}.csv"), sigma)
        # Every exponent is positive, so the last Bartlett coordinate always
        # carries weight and the boundary op's underflow reaches the statistic.
        nu = tuple(float(v) for v in np.round(rng.uniform(0.05, 0.2, len(sizes)), 3))
        pinned = k == 7
        alpha = p - 1 + 1e-7 if pinned else 61.5
        oracle = embedded_log_moment(alpha, sigma, sizes, nu)
        argv = _verify_argv("embedded", alpha, path, sizes, nu, samples, _op_seed(rng))
        ops.append(Op("boundary" if pinned else "embedded", argv, samples,
                      _verify_check(oracle), pinned=pinned))
    return ops


def verify_disjoint(rng, workdir):
    sizes, samples = (4, 4, 4), 100000
    ops = []
    for k in range(4):
        sigma = np.zeros((12, 12))
        for b in range(3):
            sigma[4 * b:4 * b + 4, 4 * b:4 * b + 4] = _random_spd(rng, 4)
        path = _write_csv(os.path.join(workdir, f"disjoint{k}.csv"), sigma)
        alpha = float(np.round(rng.uniform(12.0, 20.0), 3))
        nu = tuple(float(v) for v in np.round(rng.uniform(0.25, 1.0, 3), 3))
        oracle = blockdiag_log_moment(alpha, sigma, sizes, nu)
        argv = _verify_argv("disjoint", alpha, path, sizes, nu, samples, _op_seed(rng))
        ops.append(Op("disjoint", argv, samples, _verify_check(oracle)))
    return ops


def _gpi_lines(code, stdout, trials):
    if code != 0:
        raise ValueError(f"exit code {code}")
    lines = [_strict_json(line) for line in stdout.splitlines() if line]
    if len(lines) != trials + 1:
        raise ValueError(f"{len(lines) - 1} trial lines for {trials} trials")
    return lines[1:]


def _check_gpi_wishart(code, stdout):
    for t in _gpi_lines(code, stdout, 25):
        if not _finite(t["ratio"], t["violation_z"]):
            return f"trial {t['trial']}: ratio or z not finite"
        if t["verdict"] == "inconsistent":
            return f"trial {t['trial']}: inconsistent (z={t['violation_z']})"
        half = t["alpha"] / 2
        den = sum(nu * math.log(2.0 * row[k]) + math.lgamma(half + nu) - math.lgamma(half)
                  for k, (nu, row) in enumerate(zip(t["nu"], t["sigma"])))
        if not _close(t["denominator_log"], den):
            return f"trial {t['trial']}: denominator_log differs from the oracle"
    return None


def _check_gpi_gaussian(code, stdout):
    for t in _gpi_lines(code, stdout, 10):
        rho = t["corr"][0][1]
        if t["nu"] != [1.0, 1.0] or not _finite(t["ratio"], t["ratio_stderr"]):
            return f"trial {t['trial']}: unexpected nu or non-finite ratio"
        expected = 1.0 + 2.0 * rho * rho
        off = abs(t["ratio"] - expected) / t["ratio_stderr"]
        if off > 4.0:
            reason = f"trial {t['trial']}: ratio {t['ratio']} vs {expected} (rho={rho})"
            return Miss(reason) if off <= 6.0 else reason
    return None


def gpi_search(rng, workdir):
    common = ["--samples", "100000", "--workers", str(WORKERS)]
    argv = ["gpi", "--kind", "gaussian", "--dims", "2", "--nu-grid", "1",
            "--rho-grid", "0,0.25,0.5,0.75,0.9", "--trials", "10",
            "--seed", str(_op_seed(rng))] + common
    gaussian = Op("gaussian", argv, 10 * 100000, _check_gpi_gaussian)
    # Wishart ops draw fresh instances each (their check escalates before it
    # fails, so extra seeds cost no false alarms); the gaussian op repeats.
    # The cycle is longer than a run, so a run's op times average over as many
    # instances as it holds, and the seed moves them less.
    ops = []
    for k in range(96):
        if k % 4 == 3:
            ops.append(gaussian)
            continue
        argv = ["gpi", "--kind", "wishart", "--dims", "1:3", "--alpha-range", "1:6",
                "--trials", "25", "--seed", str(_op_seed(rng))] + common
        ops.append(Op("wishart", argv, 25 * 100000, _check_gpi_wishart))
    return ops


def _sample_check(alpha, sigma, count, out):
    p = sigma.shape[0]
    up_r, up_c = np.triu_indices(p)
    per_draw = len(up_r)

    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        rec = _strict_json(stdout)
        if rec["rows_written"] != count * per_draw:
            return f"rows_written {rec['rows_written']} != {count * per_draw}"
        with open(out, encoding="ascii") as fh:
            if fh.readline() != "draw,i,j,value\n":
                return "bad CSV header"
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        if rows.shape != (count * per_draw, 4):
            return f"CSV has shape {rows.shape}"
        index = np.column_stack([np.repeat(np.arange(count), per_draw),
                                 np.tile(up_r, count), np.tile(up_c, count)])
        if not np.array_equal(rows[:, :3], index):
            return "CSV rows out of draw,i,j order"
        values = rows[:, 3].reshape(count, per_draw)
        z = (values.mean(axis=0) - alpha * sigma[up_r, up_c]) / (
            values.std(axis=0, ddof=1) / math.sqrt(count))
        if not np.all(np.abs(z) <= 5.0):
            return f"entrywise mean off by |z|={float(np.max(np.abs(z))):.2f}"
        return None

    return check


def sample_csv(rng, workdir):
    alpha, count = 8.0, 20000
    out = os.path.join(workdir, "draws.csv")
    ops = []
    for k in range(2):
        sigma = _random_spd(rng, 6)
        path = _write_csv(os.path.join(workdir, f"sample{k}.csv"), sigma)
        for method in ("bartlett", "gaussian-sum"):
            argv = ["sample", "--alpha", repr(alpha), "--sigma", path, "--count", str(count),
                    "--method", method, "--out", out, "--seed", str(_op_seed(rng)),
                    "--workers", str(WORKERS)]
            ops.append(Op(method, argv, count, _sample_check(alpha, sigma, count, out), out=out))
    return ops


WORKLOADS = {
    "verify_embedded": verify_embedded,
    "verify_disjoint": verify_disjoint,
    "gpi_search": gpi_search,
    "sample_csv": sample_csv,
}


# Per workload: a nominal op wall time on a 2-vCPU box, and the period in
# which the op cycle repeats its kinds (one pinned op in 8 on verify_embedded,
# one gaussian op in 4 on gpi_search).  A run holds whole periods only.
RUN_SHAPE = {
    "verify_embedded": (0.6, 8),
    "verify_disjoint": (0.6, 4),
    "gpi_search": (0.8, 4),
    "sample_csv": (1.0, 4),
}


def ops_per_run(name, seconds, min_ops):
    """Ops in one run: about ``seconds`` of nominal op time, at least ``min_ops``,
    in whole periods.  It depends on nothing measured, so runs of the same
    workload and seconds attempt the same ops."""
    op_s, period = RUN_SHAPE[name]
    periods = max(round(seconds / op_s / period), -(-min_ops // period))
    return periods * period


def make_ops(name, seed, workdir):
    """The op cycle of workload ``name``; op i of a run is ``ops[i % len(ops)]``."""
    return WORKLOADS[name](np.random.default_rng(seed), workdir)


def check_op(op, code, stdout):
    """Failure reason for one finished op, or None when every check passes."""
    try:
        return op.check(code, stdout)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    finally:
        if op.out and os.path.exists(op.out):
            os.remove(op.out)
