"""Command-line front end.

Subcommands: exact, verify, sample, gpi.  Every artifact embeds the tool
version, the fully resolved configuration and the seed, so any output
can be regenerated from itself; the worker count it echoes never changes
a result.  Exit codes:
0 ok/consistent, 1 I/O or parse failure, 2 domain error, 3 verification
inconsistency.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    DimensionMismatch,
    DomainError,
    NotBlockDiagonal,
    WishminorsError,
)
from .gpi import SearchConfig, search
from .linalg import BlockPartition, SpdMatrix
from .moments import (
    MomentQuery,
    block_moments_log,
    check_block_diagonal,
    disjoint_moment_block_diag_log,
    embedded_moment_log,
)
from .montecarlo import (
    Verdict,
    compare,
    estimate_disjoint,
    estimate_embedded,
    exp_or_inf,
)
from .specfun import log_multigamma_ratio  # noqa: F401 - bench/spans.py wraps it
from .wishart import WishartParams, sample_bartlett, sample_gaussian_sum

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_INCONSISTENT = 3


class InputError(Exception):
    """File or flag content that failed to parse (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the exit-code contract
    # reserves 2 for domain errors, so parse failures must exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def fmt_float(x) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


def finite_or_inf_str(x: float):
    x = float(x)
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else "-inf"


def write_matrix_csv(matrix, path: str) -> None:
    """Plain CSV, one row per line, no header, round-trip-exact decimals."""
    a = np.asarray(matrix, dtype=float)
    try:
        with open(path, "w", encoding="ascii") as fh:
            for row in a:
                fh.write(",".join(fmt_float(v) for v in row) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def read_matrix_csv(path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path} is not a numeric CSV matrix: {exc}") from exc


# Relative asymmetry allowed in a scale matrix file before it is rejected
# outright instead of silently symmetrized.
_ASYM_REL_TOL = 1e-9


def load_sigma(path: str) -> SpdMatrix:
    a = read_matrix_csv(path)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"scale matrix in {path} has shape {a.shape}")
    scale = float(np.max(np.abs(a))) or 1.0
    asym = float(np.max(np.abs(a - a.T)))
    if asym > _ASYM_REL_TOL * scale:
        raise DomainError(
            f"scale matrix in {path} has relative asymmetry {asym / scale:.3e} "
            f"(tolerance {_ASYM_REL_TOL})"
        )
    return SpdMatrix.from_array(0.5 * (a + a.T))


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"{flag} expects comma-separated reals, got {text!r}") from exc
    if not values:
        raise InputError(f"{flag} must not be empty")
    return values


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _parse_range(text: str, flag: str, cast) -> tuple:
    toks = text.split(":")
    if len(toks) == 1:
        toks = [toks[0], toks[0]]
    if len(toks) != 2:
        raise InputError(f"{flag} expects 'lo:hi' or a single value, got {text!r}")
    try:
        return cast(toks[0]), cast(toks[1])
    except ValueError as exc:
        raise InputError(f"{flag} could not parse {text!r}") from exc


def _tool_record() -> dict:
    return {"name": "wishminors", "version": __version__}


def _emit(record: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(record, indent=2, allow_nan=False) + "\n"
    elif fmt in ("csv", "table"):
        rows = _flatten(record)
        if fmt == "csv":
            text = "key,value\n" + "".join(f"{k},{v}\n" for k, v in rows)
        else:
            width = max(len(k) for k, _ in rows)
            text = "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)
    else:
        raise DomainError(f"unknown format {fmt!r}")
    _write_text(text, out)


def _flatten(record: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            if all(isinstance(v, dict) for v in value) and value:
                for i, v in enumerate(value):
                    rows.extend(_flatten(v, prefix=f"{name}.{i}."))
            else:
                rows.append((name, " ".join(_scalar_str(v) for v in value)))
        else:
            rows.append((name, _scalar_str(value)))
    return rows


def _scalar_str(value) -> str:
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _moment_inputs(args):
    sigma = load_sigma(args.sigma)
    partition = BlockPartition(_parse_ints(args.partition, "--partition"))
    nu = _parse_floats(args.nu, "--nu")
    query = MomentQuery(partition=partition, nu=nu)
    return WishartParams(alpha=args.alpha, sigma=sigma), query


def _base_config(args, command: str) -> dict:
    return {
        "command": command,
        "seed": args.seed,
        "workers": args.workers,
        "format": args.format,
        "out": args.out,
    }


def cmd_exact(args) -> int:
    params, query = _moment_inputs(args)
    config = _base_config(args, "exact")
    config.update(
        {
            "alpha": args.alpha,
            "sigma": args.sigma,
            "partition": list(query.partition.sizes),
            "nu": list(query.nu),
            "disjoint_blockdiag": bool(args.disjoint_blockdiag),
        }
    )
    if args.disjoint_blockdiag:
        # Refuses a scale with off-block coupling before the factors are taken.
        disjoint_moment_block_diag_log(params, query)
        exact = block_moments_log(params, query)
    else:
        exact = embedded_moment_log(params, query)
    record = {
        "tool": _tool_record(),
        "config": config,
        "log_value": exact.log_value,
        "value_or_inf": finite_or_inf_str(exp_or_inf(exact.log_value)),
        "factors": [
            {"block": f.block, "det_term": f.det_term, "gamma_term": f.gamma_term}
            for f in exact.factors
        ],
    }
    _emit(record, args.format, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    params, query = _moment_inputs(args)
    config = _base_config(args, "verify")
    config.update(
        {
            "alpha": args.alpha,
            "sigma": args.sigma,
            "partition": list(query.partition.sizes),
            "nu": list(query.nu),
            "mode": args.mode,
            "samples": args.samples,
        }
    )
    note = None
    if args.mode == "embedded":
        exact_log = embedded_moment_log(params, query).log_value
        mc = estimate_embedded(params, query, args.samples, args.seed, args.workers)
    else:
        mc = estimate_disjoint(params, query, args.samples, args.seed, args.workers)
        try:
            check_block_diagonal(params.sigma, query.partition)
        except NotBlockDiagonal as exc:
            exact_log = None
            note = (
                "no exact value: scale is not block diagonal along the partition "
                f"({exc}); reporting Monte Carlo only"
            )
        else:
            exact_log = block_moments_log(params, query).log_value
    if exact_log is None:
        z = None
        verdict = None
    else:
        report = compare(exact_log, mc)
        z = report.z
        verdict = report.verdict.value
    record = {
        "tool": _tool_record(),
        "config": config,
        "exact_log": exact_log,
        "n": mc.n,
        "mean_log": mc.mean_log,
        "mean": finite_or_inf_str(mc.mean),
        "stderr": finite_or_inf_str(mc.stderr),
        "z": z,
        "verdict": verdict,
        "flags": list(mc.flags),
        "seed": mc.seed,
        "worker_count": mc.worker_count,
    }
    if note is not None:
        record["note"] = note
    _emit(record, args.format, args.out)
    if verdict == Verdict.INCONSISTENT.value:
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.out is None:
        raise InputError("sample requires --out <path> for the draws CSV")
    sigma = load_sigma(args.sigma)
    params = WishartParams(alpha=args.alpha, sigma=sigma)
    if args.method == "bartlett":
        batch = sample_bartlett(params, args.count, args.seed, args.workers)
    else:
        batch = sample_gaussian_sum(params, args.count, args.seed, args.workers)
    p = params.dim
    up_r, up_c = np.triu_indices(p)
    try:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("draw,i,j,value\n")
            for t in range(batch.count):
                draw = batch.draws[t]
                for r, c in zip(up_r, up_c):
                    fh.write(f"{t},{r},{c},{fmt_float(draw[r, c])}\n")
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc
    record = {
        "tool": _tool_record(),
        "config": {
            "command": "sample",
            "alpha": args.alpha,
            "sigma": args.sigma,
            "count": args.count,
            "method": args.method,
            "seed": args.seed,
            "workers": args.workers,
            "format": args.format,
            "out": args.out,
        },
        "rows_written": batch.count * len(up_r),
    }
    # The draws file is plain CSV; the self-describing run record goes to
    # stdout so metadata always accompanies the artifact.
    _emit(record, args.format, None)
    return EXIT_OK


def cmd_gpi(args) -> int:
    dims = _parse_range(args.dims, "--dims", int)
    alpha_range = (
        _parse_range(args.alpha_range, "--alpha-range", float)
        if args.alpha_range is not None
        else None
    )
    nu_grid = _parse_floats(args.nu_grid, "--nu-grid")
    rho_grid = (
        _parse_floats(args.rho_grid, "--rho-grid") if args.rho_grid is not None else None
    )
    config = SearchConfig(
        kind=args.kind,
        dims=dims,
        trials=args.trials,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        alpha_range=alpha_range,
        nu_grid=nu_grid,
        rho_grid=rho_grid,
    )
    report = search(config)
    header = {
        "tool": _tool_record(),
        "config": {
            "command": "gpi",
            "kind": config.kind,
            "dims": list(config.dims),
            "trials": config.trials,
            "samples": config.samples,
            "seed": config.seed,
            "workers": config.workers,
            "alpha_range": list(alpha_range) if alpha_range else None,
            "nu_grid": list(nu_grid),
            "rho_grid": list(rho_grid) if rho_grid else None,
            "format": args.format,
            "out": args.out,
        },
    }
    lines = [json.dumps(header, allow_nan=False)]
    lines.extend(json.dumps(rec.to_record(), allow_nan=False) for rec in report.trials)
    _write_text("".join(line + "\n" for line in lines), args.out)
    _print_gpi_summary(report)
    return EXIT_OK


def _print_gpi_summary(report) -> None:
    counts = {v.value: 0 for v in Verdict}
    for rec in report.trials:
        counts[rec.result.verdict.value] += 1
    head = report.trials[: min(10, len(report.trials))]
    out = sys.stderr
    out.write(
        f"gpi search: {len(report.trials)} trials | "
        + " ".join(f"{k}={v}" for k, v in counts.items())
        + "\n"
    )
    out.write(f"{'trial':>5} {'kind':>8} {'dim':>3} {'ratio':>12} {'z':>9} verdict\n")
    for rec in head:
        res = rec.result
        row = rec.to_record()
        out.write(
            f"{rec.index:>5} {row['kind']:>8} {row['dim']:>3} "
            f"{res.ratio:>12.6g} {res.violation_z:>9.3f} {res.verdict.value}"
            + (" (escalated)" if res.escalated else "")
            + "\n"
        )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed (default 0)")
    parser.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="threads to run on; results do not depend on it "
        "(default: machine parallelism)",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default="json",
        help="output format for the result record",
    )
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _add_moment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True, help="shape parameter")
    parser.add_argument("--sigma", required=True, help="scale matrix CSV path")
    parser.add_argument(
        "--partition", required=True, help="comma-separated block sizes, e.g. 1,2"
    )
    parser.add_argument(
        "--nu", required=True, help="comma-separated exponents, one per block"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="wishminors", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wishminors {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact joint minor moments")
    _add_moment_flags(p_exact)
    p_exact.add_argument(
        "--disjoint-blockdiag",
        action="store_true",
        help="disjoint diagonal-block moment (requires block-diagonal sigma)",
    )
    _add_common(p_exact)
    p_exact.set_defaults(func=cmd_exact)

    p_verify = sub.add_parser("verify", help="exact value vs Monte Carlo estimate")
    _add_moment_flags(p_verify)
    p_verify.add_argument("--samples", type=int, required=True, help="Monte Carlo draws")
    p_verify.add_argument(
        "--mode", choices=("embedded", "disjoint"), required=True,
        help="nested leading minors or disjoint diagonal blocks",
    )
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser("sample", help="write Wishart draws to CSV")
    p_sample.add_argument("--alpha", type=float, required=True, help="shape parameter")
    p_sample.add_argument("--sigma", required=True, help="scale matrix CSV path")
    p_sample.add_argument("--count", type=int, required=True, help="number of draws")
    p_sample.add_argument(
        "--method", choices=("bartlett", "gaussian-sum"), required=True
    )
    _add_common(p_sample)
    p_sample.set_defaults(func=cmd_sample)

    p_gpi = sub.add_parser("gpi", help="product-inequality ratio search")
    p_gpi.add_argument("--kind", choices=("wishart", "gaussian"), required=True)
    p_gpi.add_argument("--dims", required=True, help="dimension or inclusive range lo:hi")
    p_gpi.add_argument("--alpha-range", default=None, help="shape range lo:hi (wishart)")
    p_gpi.add_argument(
        "--nu-grid",
        default=",".join(str(v) for v in (0.5, 1.0, 1.5, 2.0, 3.0)),
        help="comma-separated exponent grid",
    )
    p_gpi.add_argument(
        "--rho-grid", default=None,
        help="comma-separated correlations for a deterministic 2-d gaussian sweep",
    )
    p_gpi.add_argument("--trials", type=int, required=True)
    p_gpi.add_argument("--samples", type=int, required=True, help="draws per trial")
    _add_common(p_gpi)
    p_gpi.set_defaults(func=cmd_gpi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"wishminors: {exc}\n")
        return EXIT_PARSE
    except WishminorsError as exc:
        sys.stderr.write(f"wishminors: {exc}\n")
        return EXIT_DOMAIN


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
