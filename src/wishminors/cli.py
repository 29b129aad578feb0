"""Command-line front end.

Subcommands: exact, verify, sample, gpi.  Every artifact embeds the tool
version, the fully resolved configuration and the seed, so any output
can be regenerated from itself.  ``--workers`` is left out: every
subcommand runs on one thread, and the flag is only checked.  stderr
carries only refusals.  Exit codes: 0 ok/consistent, 1 I/O or parse
failure, 2 domain error, 3 verification inconsistency.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import warnings

import numpy as np

from . import __version__
from .errors import (
    DimensionMismatch,
    DomainError,
    NotBlockDiagonal,
    WishminorsError,
    check_int,
)
from .gpi import DEFAULT_NU_GRID, SearchConfig, search
from .linalg import BlockPartition, SpdMatrix
from .moments import (
    MomentQuery,
    disjoint_moment_block_diag_log,
    disjoint_moment_log,
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
from .streams import check_seed
from .wishart import WishartParams, _factor_rows, _upper, check_draws, map_chunks
from .wishart import sample_bartlett, sample_gaussian_sum  # noqa: F401 - bench/spans.py wraps it

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


@contextlib.contextmanager
def _opened(out: str | None):
    """``out`` opened for writing, or stdout when ``out`` is None; OSError becomes InputError."""
    if out is None:
        yield sys.stdout
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _write_lines(lines, out: str | None) -> None:
    """Write the strings in ``lines`` to ``out``, or to stdout when ``out`` is None."""
    with _opened(out) as fh:
        fh.writelines(lines)


def write_matrix_csv(matrix, path: str) -> None:
    """Plain CSV, one row per line, no header, round-trip-exact decimals."""
    rows = np.asarray(matrix, dtype=float)
    _write_lines((",".join(map(fmt_float, row)) + "\n" for row in rows), path)


def read_matrix_csv(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an empty file: loadtxt only warns
            return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, UserWarning) as exc:
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


def _list_of(cast, what: str):
    """Converter for a comma-separated flag value, each item through ``cast``."""

    def convert(text: str) -> tuple:
        try:
            return tuple(map(cast, text.split(",")))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expects comma-separated {what}, got {text!r}"
            ) from None

    return convert


def _range_of(cast):
    """Converter for ``lo:hi``, or a single value ``v`` read as ``v:v``."""

    def convert(text: str) -> tuple:
        toks = text.split(":")
        try:
            if len(toks) > 2:
                raise ValueError(text)
            return cast(toks[0]), cast(toks[-1])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expects 'lo:hi' or a single value, got {text!r}"
            ) from None

    return convert


def _record(args, **fields) -> dict:
    """Run record: the tool, every parsed flag as ``config``, then ``fields``.

    ``config`` leaves out ``--workers``: the bytes depend on the inputs and the
    seed only, not on a flag that changes nothing.
    """
    config = {k: v for k, v in vars(args).items() if k not in ("func", "workers")}
    return {
        "tool": {"name": "wishminors", "version": __version__},
        "config": config,
        **fields,
    }


def _emit(record: dict, out: str | None) -> None:
    """The run record as strict, indented JSON to ``out``, or to stdout when ``out`` is None."""
    _write_lines([json.dumps(record, indent=2, allow_nan=False) + "\n"], out)


def _moment_inputs(args):
    sigma = load_sigma(args.sigma)
    query = MomentQuery(partition=BlockPartition(args.partition), nu=args.nu)
    return WishartParams(alpha=args.alpha, sigma=sigma), query


def cmd_exact(args) -> int:
    params, query = _moment_inputs(args)
    moment = disjoint_moment_log if args.disjoint_blockdiag else embedded_moment_log
    exact = moment(params, query)
    record = _record(
        args,
        log_value=exact.log_value,
        value_or_inf=finite_or_inf_str(exp_or_inf(exact.log_value)),
        factors=[
            {"block": f.block, "det_term": f.det_term, "gamma_term": f.gamma_term}
            for f in exact.factors
        ],
    )
    _emit(record, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    # Both modes take the exact value first: a refused moment names its cause before any draw.
    params, query = _moment_inputs(args)
    embedded = args.mode == "embedded"
    note = None
    try:
        if embedded:
            exact_log = embedded_moment_log(params, query).log_value
        else:
            exact_log = disjoint_moment_block_diag_log(params, query)
    except NotBlockDiagonal as exc:
        exact_log = None
        note = (
            "no exact value: scale is not block diagonal along the partition "
            f"({exc}); reporting Monte Carlo only"
        )
    estimate = estimate_embedded if embedded else estimate_disjoint
    mc = estimate(params, query, args.samples, args.seed)
    z = verdict = None
    if exact_log is not None:
        report = compare(exact_log, mc)
        z, verdict = report.z, report.verdict.value
    record = _record(
        args,
        exact_log=exact_log,
        n=mc.n,
        mean_log=mc.mean_log,
        mean=finite_or_inf_str(mc.mean),
        stderr=finite_or_inf_str(mc.stderr),
        z=z,
        verdict=verdict,
        flags=list(mc.flags),
    )
    if note is not None:
        record["note"] = note
    _emit(record, args.out)
    if verdict == Verdict.INCONSISTENT.value:
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_sample(args) -> int:
    sigma = load_sigma(args.sigma)
    params = WishartParams(alpha=args.alpha, sigma=sigma)
    # Every refusal comes before --out is opened, so a refused run leaves it untouched.
    per_draw, chunk_rows = _factor_rows(params, args.method)
    count = check_draws(args.count, "draw count", 0, per_draw)
    p = params.dim
    tails = [f",{r},{c}," for r in range(p) for c in range(r, p)]  # _upper's order

    def write_chunk(task) -> int:
        # ``tolist`` yields Python floats, whose ``repr`` is ``fmt_float``.
        rng, start, m = task
        upper = _upper(chunk_rows(rng, m))
        fh.writelines(
            "".join([f"{t}{tail}{v!r}\n" for tail, v in zip(tails, values.tolist())])
            for t, values in enumerate(upper, start)
        )
        return m * len(tails)

    with _opened(args.out) as fh:
        fh.write("draw,i,j,value\n")
        # Each chunk is written as soon as it is drawn, so memory holds one chunk's Gram.
        rows = sum(map_chunks(write_chunk, count, args.seed))
    # The draws file is plain CSV; the self-describing run record goes to
    # stdout so metadata always accompanies the artifact.
    _emit(_record(args, rows_written=rows), None)
    return EXIT_OK


def cmd_gpi(args) -> int:
    # Every SearchConfig field is a gpi flag of the same name.
    fields = dataclasses.fields(SearchConfig)
    config = SearchConfig(**{f.name: getattr(args, f.name) for f in fields})
    report = search(config)
    trials = [rec.to_record() for rec in report.trials]
    verdicts = {v.value: sum(t["verdict"] == v.value for t in trials) for v in Verdict}
    # The header echoes the resolved fields: a gaussian search runs at alpha range (1, 1).
    header = _record(args, verdicts=verdicts)
    header["config"].update((f.name, getattr(config, f.name)) for f in fields)
    records = [header, *trials]
    _write_lines([json.dumps(r, allow_nan=False) + "\n" for r in records], args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    """The one description of each subcommand.

    Every flag arrives parsed, and a run record's ``config`` is the parsed
    namespace, so each subcommand declares its flags in the order its
    ``config`` lists them.
    """
    shared = {
        "--seed": dict(type=int, default=0, help="root RNG seed (default 0)"),
        "--workers": dict(
            type=int, default=1,
            help="accepted for compatibility and checked (>= 1); it changes nothing, "
            "since every subcommand runs on one thread (default 1)",
        ),
        "--out": dict(default=None, help="output path (default stdout)"),
        "--alpha": dict(type=float, required=True, help="shape parameter"),
        "--sigma": dict(required=True, help="scale matrix CSV path"),
        "--partition": dict(
            type=_list_of(int, "integers"), required=True,
            help="comma-separated block sizes, e.g. 1,2",
        ),
        "--nu": dict(
            type=_list_of(float, "reals"), required=True,
            help="comma-separated exponents, one per block",
        ),
    }
    run = ("--seed", "--workers", "--out")
    moment = ("--alpha", "--sigma", "--partition", "--nu")
    subcommands = (
        ("exact", cmd_exact, "exact joint minor moments", (
            *run, *moment,
            ("--disjoint-blockdiag", dict(
                action="store_true",
                help="disjoint diagonal-block moment (requires block-diagonal sigma)",
            )),
        )),
        ("verify", cmd_verify, "exact value vs Monte Carlo estimate", (
            *run, *moment,
            ("--mode", dict(
                choices=("embedded", "disjoint"), required=True,
                help="nested leading minors or disjoint diagonal blocks",
            )),
            ("--samples", dict(type=int, required=True, help="Monte Carlo draws")),
        )),
        ("sample", cmd_sample, "write Wishart draws to CSV", (
            "--alpha", "--sigma",
            ("--count", dict(type=int, required=True, help="number of draws")),
            ("--method", dict(choices=("bartlett", "gaussian-sum"), required=True)),
            "--seed", "--workers",
            ("--out", dict(required=True, help="draws CSV path")),
        )),
        ("gpi", cmd_gpi, "product-inequality ratio search", (
            ("--kind", dict(choices=("wishart", "gaussian"), required=True)),
            ("--dims", dict(
                type=_range_of(int), required=True, help="dimension or inclusive range lo:hi"
            )),
            ("--trials", dict(type=int, required=True)),
            ("--samples", dict(type=int, required=True, help="draws per trial")),
            "--seed", "--workers",
            ("--alpha-range", dict(
                type=_range_of(float), default=None, help="shape range lo:hi (gaussian: 1)"
            )),
            ("--nu-grid", dict(
                type=_list_of(float, "reals"), default=DEFAULT_NU_GRID,
                help="comma-separated exponent grid",
            )),
            ("--rho-grid", dict(
                type=_list_of(float, "reals"), default=None,
                help="comma-separated correlations for a deterministic sweep at dims 2; "
                "attach a grid that starts with '-' with '=', as in "
                "--rho-grid=-0.5,0.3",
            )),
            "--out",
        )),
    )

    parser = _Parser(prog="wishminors", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wishminors {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in subcommands:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            flag, kwargs = (flag, shared[flag]) if isinstance(flag, str) else flag
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_int(args.workers, "workers", 1)  # every subcommand takes --workers
        check_seed(args.seed)  # and --seed
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
