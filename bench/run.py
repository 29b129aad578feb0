"""wishminors benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

One run (what BENCHMARK.json's command does):

    python3 bench/run.py --workload verify_embedded --seed 1 --seconds 20 --trace 0

It builds the workload's inputs from --seed, times the set-up of fresh
workload processes (spawn until ``wishminors.cli`` is imported), then drives
``wishminors.cli.main(argv)`` in one such process in a closed loop with one
client and ``--workers 2``, with BLAS threads pinned to 1.  A run holds a fixed
number of ops, about --seconds worth on a 2-vCPU box and at least MIN_OPS
(workloads.ops_per_run): the same workload, seed and --seconds give the same
ops, so two runs attempt, and fail, the same ops however fast the host is.
Each op's output is checked in this process between ops.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones below.  With --trace 1 each
op runs twice, untraced and traced (see spans.py), and the metrics are the
per-layer ones; spans (JSONL) and the per-layer summary go to .bench_run/trace/.
Every run also writes a full record (environment, per-op results) to
.bench_run/results/.

End-to-end metrics (an op is one cli.main call; CPU seconds are the workload
process's user + system time over all its threads):
    setup_s          median of 7 spawns: wall seconds until wishminors.cli is imported
    op_cpu_p50_s     median op CPU seconds
    op_cpu_tail_s    p90 of op CPU seconds (inclusive interpolation, >= MIN_OPS ops)
    draws_per_cpu_s  Wishart draws per op CPU second (gpi: first-pass trials x samples)
    peak_rss_mb      peak RSS of the workload process
Printed and recorded without a bound (UNBOUNDED):
    op_p50_s, op_tail_s, draws_per_s   the same three over op wall seconds.  On a
                 VM whose vCPUs the host takes away (steal time), they move with
                 the host's load more than with the program, while CPU time
                 leaves the stolen time out.
    fail_ratio   failed ops / attempted ops; it is 0 on most workloads, so it
                 is carried by `attempted`/`failed`.
An op fails on a non-zero exit code, a record that is not strict JSON, a
non-finite mean_log/z/ratio, or a failed oracle check (workloads.py).  Two
kinds count in `failed` but not against `correct`: statistical misses between
4 and 6 standard errors (workloads.Miss), and on the op pinned as a known
defect only, the failures that defect is documented to cause
(workloads.Defect).  In a traced run, spans that fail the checks in spans.py
make `correct` false.

Steadiness mode runs whole runs repeatedly, each in a fresh process, and
prints each metric's median and quartiles; --save keeps them as JSON, and
--compare checks two saved sets against the bounds in BENCHMARK.json:

    python3 bench/run.py --steady --runs 10 --save .bench_run/steady.json
    python3 bench/run.py --compare A.json B.json
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKERS, WORKLOADS, Defect, Miss, check_op, make_ops, ops_per_run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_SPAWNS = 7
MIN_OPS = 20  # so that the p90 of op_tail_s has two ops above it
TAIL_PERCENTILE = 90
OP_TIMEOUT_S = 45.0
RUN_DEADLINE_S = 120.0  # on a host far slower than usual, stop early to end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNITS = {"setup_s": "s", "op_cpu_p50_s": "s", "op_cpu_tail_s": "s", "draws_per_cpu_s": "1/s",
         "peak_rss_mb": "MB", "op_p50_s": "s", "op_tail_s": "s", "draws_per_s": "1/s",
         "fail_ratio": "ratio"}
END_TO_END = ("setup_s", "op_cpu_p50_s", "op_cpu_tail_s", "draws_per_cpu_s", "peak_rss_mb")
UNBOUNDED = ("op_p50_s", "op_tail_s", "draws_per_s", "fail_ratio")


class BenchError(Exception):
    """The benchmark itself could not run (missing source, dead workload process)."""


def _child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _spawn(extra_args, importtime=False, stderr=None):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [os.path.join(BENCH, "child.py")] + extra_args
    return subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=stderr, text=True)


def _recv(proc, timeout):
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise BenchError(f"workload process gave no reply within {timeout:.0f} s "
                         f"(exit code {proc.poll()})")
    return json.loads(line)


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def _import_times(stderr_text):
    """(wishminors.cli import s, scipy self-import s) from ``-X importtime`` output."""
    cli_us = scipy_us = 0
    for m in _IMPORT_LINE.finditer(stderr_text):
        self_us, cum_us, indent, name = int(m[1]), int(m[2]), m[3], m[4]
        if len(indent) == 1 and name.split(".")[0] == "wishminors":
            cli_us += cum_us
        if name.split(".")[0] == "scipy":
            scipy_us += self_us
    return cli_us / 1e6, scipy_us / 1e6


def measure_setup(trace):
    """Seconds from spawn to imported CLI for SETUP_SPAWNS - 1 probe processes."""
    times, imports = [], []
    for _ in range(SETUP_SPAWNS - 1):
        t0 = time.perf_counter()
        proc = _spawn(["--probe"], importtime=trace, stderr=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], OP_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            times.append(time.perf_counter() - t0)
            _, err = proc.communicate(timeout=OP_TIMEOUT_S)
        finally:
            _stop(proc)
        if proc.returncode != 0 or not line.startswith('{"ready"'):
            raise BenchError(f"setup probe failed (exit {proc.returncode}): {err[-2000:]}")
        imports.append(_import_times(err))
    return times, imports


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "wishminors")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(args, versions):
    why = next(w["why"] for w in load_spec()["workloads"] if w["name"] == args.workload)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": why, "workers": WORKERS,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": versions["numpy"], "scipy": versions["scipy"],
        "blas_threads": BLAS_ENV, "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "machine": platform.machine(),
    }


def tail(times):
    """The TAIL_PERCENTILE of the op times, interpolated between the two nearest ops."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "wishminors", "cli.py")):
        raise BenchError(f"no wishminors source under {SRC}")
    workdir = os.path.join(RUN_DIR, f"work-{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run_in(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(args, workdir):
    ops = make_ops(args.workload, args.seed, workdir)
    n_ops = ops_per_run(args.workload, args.seconds, MIN_OPS)
    setup_times, imports = measure_setup(bool(args.trace))
    spans_path = None
    child_args = []
    if args.trace:
        os.makedirs(os.path.join(RUN_DIR, "trace"), exist_ok=True)
        spans_path = os.path.join(RUN_DIR, "trace", f"{args.workload}-s{args.seed}.spans.jsonl")
        child_args = ["--spans", spans_path]
    started = time.monotonic()
    with open(os.path.join(workdir, "child.err"), "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = _spawn(child_args, stderr=err)
        try:
            versions = _recv(proc, OP_TIMEOUT_S)
            setup_times.append(time.perf_counter() - t0)
            if not os.path.abspath(versions["wishminors_file"]).startswith(SRC + os.sep):
                raise BenchError(f"imported {versions['wishminors_file']}, not the checkout's")
            results = []
            while len(results) < n_ops and time.monotonic() - started < RUN_DEADLINE_S:
                op = ops[len(results) % len(ops)]
                pair = {}
                for traced in ((False, True) if args.trace else (False,)):
                    proc.stdin.write(json.dumps({"argv": op.argv, "trace": traced}) + "\n")
                    proc.stdin.flush()
                    reply = _recv(proc, OP_TIMEOUT_S)
                    reason = check_op(op, reply["code"], reply["stdout"])
                    pair["traced" if traced else "plain"] = {
                        "op": reply["op"], "wall": reply["wall"], "cpu": reply["cpu"],
                        "code": reply["code"],
                        "failure": reason, "stdout": reply["stdout"],
                        "stderr": reply["stderr"] if reason else "",
                    }
                results.append((op, pair))
            proc.stdin.write("null\n")
            proc.stdin.flush()
            peak_kb = _recv(proc, OP_TIMEOUT_S)["peak_rss_kb"]
            proc.wait(timeout=OP_TIMEOUT_S)
        except BaseException:
            err.seek(0)
            sys.stderr.write(err.read()[-4000:])
            raise
        finally:
            _stop(proc)
    if len(results) < n_ops:
        sys.stderr.write(f"bench: deadline reached after {len(results)} of {n_ops} ops\n")
    return ops, results, setup_times, imports, peak_kb, versions, spans_path


def end_to_end(results, setup_times, peak_kb):
    walls = [pair["plain"]["wall"] for _, pair in results]
    cpus = [pair["plain"]["cpu"] for _, pair in results]
    draws = sum(op.draws for op, _ in results)
    failed = sum(1 for _, pair in results if pair["plain"]["failure"])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_cpu_p50_s": statistics.median(cpus),
        "op_cpu_tail_s": tail(cpus),
        "draws_per_cpu_s": draws / sum(cpus),
        "peak_rss_mb": peak_kb / 1024.0,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail(walls),
        "draws_per_s": draws / sum(walls),
        "fail_ratio": failed / len(results),
    }
    notes = {"ops": len(walls), "op_tail_percentile": TAIL_PERCENTILE,
             "setup_samples_s": setup_times}
    return metrics, notes


def per_layer(results, imports, spans_path):
    from spans import summarize

    rows = 0
    for op, pair in results:
        if op.argv[0] == "sample" and pair["traced"]["failure"] is None:
            rows += json.loads(pair["traced"]["stdout"])["rows_written"]
    untraced = sum(pair["plain"]["wall"] for _, pair in results)
    traced_walls = {pair["traced"]["op"]: pair["traced"]["wall"] for _, pair in results}
    cpu = sum(pair["plain"]["cpu"] for _, pair in results)
    return summarize(
        spans_path, traced_walls, rows, untraced, cpu, os.cpu_count(),
        statistics.median(i[0] for i in imports), statistics.median(i[1] for i in imports))


def main_run(args):
    ops, results, setup_times, imports, peak_kb, versions, spans_path = run_workload(args)
    env = environment(args, versions)
    sides = ("plain", "traced") if args.trace else ("plain",)
    failures = [(i, op, pair[s]) for i, (op, pair) in enumerate(results) for s in sides
                if pair[s]["failure"]]
    correct = all(isinstance(res["failure"], Miss)
                  or (op.pinned and isinstance(res["failure"], Defect))
                  for _, op, res in failures)
    attempted = len(results) * len(sides)
    e2e, notes = end_to_end(results, setup_times, peak_kb)
    print("env " + json.dumps(env))
    for i, op, res in failures:
        tag = ""
        if op.pinned and isinstance(res["failure"], Defect):
            tag = ", pinned known defect"
        if isinstance(res["failure"], Miss):
            tag = ", statistical miss"
        print(f"failed op {i} ({op.kind}{tag}): {res['failure']}")
    if args.trace:
        layer, problems, gap = per_layer(results, imports, spans_path)
        correct = correct and not problems
        for problem in problems:
            print(f"trace check failed: {problem}")
        print(f"trace: {spans_path}; worst |sum of self times - op wall| = {gap:.2e} s")
        for name, (value, unit) in layer.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        with open(spans_path.replace(".spans.jsonl", ".layers.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"env": env, "self_sum_gap_s": gap, "trace_problems": problems,
                       "metrics": out_metrics}, fh, indent=1)
    else:
        print(f"{args.workload}: {notes['ops']} ops, op_cpu_tail_s and op_tail_s at "
              f"p{TAIL_PERCENTILE}")
        for name, value in e2e.items():
            bound = "" if name in END_TO_END else "  (no bound)"
            print(f"  {name:<16} {value:>14.6g} {UNITS[name]}{bound}")
        print("unbounded " + json.dumps({k: e2e[k] for k in UNBOUNDED}))
        out_metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in END_TO_END}
    record = {
        "env": env, "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": out_metrics, "unbounded": {k: e2e[k] for k in UNBOUNDED}, "notes": notes,
        "ops": [{"index": i, "kind": op.kind, "pinned": op.pinned, "draws": op.draws,
                 **{s: {k: pair[s][k] for k in ("wall", "code", "failure")} for s in sides}}
                for i, (op, pair) in enumerate(results)],
    }
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RUN_DIR, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": out_metrics}))
    return 0


def _bounds():
    spec = load_spec()
    return spec, {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main_steady(args):
    spec, bounds = _bounds()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    saved = {"seconds": seconds, "trace": args.trace, "runs": {}, "summary": {}}
    for name in names:
        runs = saved["runs"][name] = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{name} seed {seed} failed:\n{proc.stderr[-4000:]}")
            result = json.loads(lines[-1])
            env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            metrics["fail_ratio"] = result["failed"] / result["attempted"]
            metrics.update(next((json.loads(ln[10:]) for ln in lines
                                 if ln.startswith("unbounded ")), {}))
            runs.append({"seed": seed, "correct": result["correct"], "attempted":
                         result["attempted"], "failed": result["failed"], "metrics": metrics,
                         "env": env})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"({time.monotonic() - t0:.1f} s) "
                  + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
        summary = saved["summary"][name] = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric] for r in runs]
            q1, med, q3 = _quartiles(values)
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med if med else 0.0}
    units = dict(UNITS, **{name: spec["unit"] for name, spec in bounds.items()})
    print(f"\n{'workload':<16} {'metric':<34} {'unit':<10} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for name, summary in saved["summary"].items():
        for metric, s in summary.items():
            bound = bounds.get(metric, {}).get("bound")
            flag = "" if bound is None or s["spread"] < bound / 3 else "  spread >= bound/3"
            print(f"{name:<16} {metric:<34} {units[metric]:<10} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.4f} {bound if bound else '-':>6}{flag}")
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1)
    return 0


def main_compare(args):
    _, bounds = _bounds()
    sets = []
    for path in args.compare:
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh)["summary"])
    first, second = sets
    worse_any = False
    print(f"{'workload':<16} {'metric':<16} {'first':>12} {'second':>12} {'worse by':>9} "
          f"{'bound':>6}")
    for name in first:
        for metric, spec in bounds.items():
            if "bound" not in spec or metric not in first[name] or name not in second:
                continue
            a, b = first[name][metric]["median"], second[name][metric]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            flag = worse > spec["bound"]
            worse_any |= flag
            print(f"{name:<16} {metric:<16} {a:>12.6g} {b:>12.6g} {worse:>9.4f} "
                  f"{spec['bound']:>6}{'  WORSE' if flag else ''}")
    return 1 if worse_any else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true", help="repeat whole runs, print quartiles")
    parser.add_argument("--runs", type=int, default=10,
                        help="steady mode: seeds 1 to RUNS on every workload")
    parser.add_argument("--save", default=None, help="steady mode: write runs and quartiles")
    parser.add_argument("--compare", nargs=2, metavar="FILE", help="compare two saved sets")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return main_compare(args)
        if args.steady:
            return main_steady(args)
        if args.workload is None or args.seconds is None:
            parser.error("a single run needs --workload and --seconds")
        return main_run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
