"""Outside-in tracing of the wishminors package, and the per-layer summary.

A traced op replaces public functions at the binding each caller uses (for
example ``wishminors.montecarlo.substreams`` and
``wishminors.gpi.estimate_log_statistic``) with wrappers that record one span
per call: name, layer, start, end, parent and op id.  Two callables that cross
public boundaries are wrapped as well: the statistic passed to
``estimate_log_statistic`` (the ``wishart`` layer, whichever module built it)
and the ``fn`` passed to ``map_ordered`` (a task span in the layer that defined
``fn``).  A task span's parent is the ``map_ordered`` span, across threads.
Spans stay in memory and are written as JSONL when the workload process ends.

Self time: at every instant of an op, the spans active then with no active
child share that instant equally.  Where no two spans run at once this is a
span's duration minus the union of its children's intervals; with parallel
tasks it splits the wall between them, so the self times of an op add up to
its traced wall exactly.

``summarize`` checks each traced op's spans against the wall that the workload
process timed around the op on its own: the op has exactly one root span,
``cli.main``; every span lies inside its parent's interval; and the self times
add up to that wall within SELF_SUM_TOL_S (the wrapper's own entry and exit).
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

SELF_SUM_TOL_S = 1e-3

# Module -> public names wrapped in that module's namespace.
BINDINGS = {
    "cli": (
        "load_sigma", "cmd_exact", "cmd_verify", "cmd_sample", "cmd_gpi", "search",
        "embedded_moment_log", "disjoint_moment_block_diag_log", "compare",
        "estimate_embedded", "estimate_disjoint", "log_multigamma_ratio",
        "sample_bartlett", "sample_gaussian_sum",
    ),
    "gpi": (
        "gpi_ratio", "gaussian_moment_log", "single_minor_moment_log", "compare",
        "estimate_disjoint", "estimate_log_statistic", "map_ordered", "cholesky",
    ),
    "montecarlo": ("estimate_log_statistic", "substreams", "chunk_sizes", "map_ordered"),
    "moments": ("single_minor_moment_log", "leading_logdets", "log_multigamma_ratio"),
    "wishart": ("substreams", "chunk_sizes", "map_ordered", "log_multigamma"),
}


def _layer(module_name):
    return module_name.rsplit(".", 1)[-1]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Span recorder; ``install`` turns it on for the package, ``uninstall`` off."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self._epoch = time.perf_counter()

    def call(self, name, layer, fn, args, kwargs, parent=None, attrs=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        extra = {}
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                extra = attrs(args, kwargs, result)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, layer, t0, t1, self.op, extra))

    def current(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else 0

    def _wrap(self, fn, name, layer, attrs=None, prepare=None):
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            return self.call(name, layer, fn, args, kwargs, attrs=attrs)

        return wrapper

    def _stat(self, stat_fn):
        def stat(rng, m):
            return self.call("wishart.stat", "wishart", stat_fn, (rng, m), {}, attrs=_stat_attrs)

        return stat

    def _task(self, fn, parent):
        layer = _layer(fn.__module__)

        def task(item):
            return self.call(f"{layer}.task", layer, fn, (item,), {}, parent=parent)

        return task

    def _hooks(self, attr):
        """(attrs, prepare) for the bindings that carry counts or a statistic."""
        if attr == "estimate_log_statistic":
            def prepare(args, kwargs):
                if args:
                    return (self._stat(args[0]),) + tuple(args[1:]), kwargs
                return args, dict(kwargs, stat_fn=self._stat(kwargs["stat_fn"]))

            return None, prepare
        if attr == "substreams":
            return (lambda a, k, r: {"count": _arg(a, k, 1, "count")}), None
        if attr.startswith("sample_"):
            return (lambda a, k, r: {"bytes": r.draws.nbytes + (
                r.factors.nbytes if r.factors is not None else 0)}), None
        return None, None

    def _map_wrapper(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            workers = _arg(args, kwargs, 2, "workers", 1)

            def run():
                parent = self.current()  # the map span, pushed by call()
                if args:
                    a, k = (self._task(args[0], parent),) + tuple(args[1:]), kwargs
                else:
                    a, k = args, dict(kwargs, fn=self._task(kwargs["fn"], parent))
                return fn(*a, **k)

            return self.call(name, layer, run, (), {},
                             attrs=lambda a, k, r: {"workers": workers})

        return wrapper

    def install(self):
        import wishminors.linalg as linalg

        for mod_name, attrs in BINDINGS.items():
            module = __import__(f"wishminors.{mod_name}", fromlist=["_"])
            for attr in attrs:
                fn = getattr(module, attr)
                layer = _layer(fn.__module__)
                name = f"{layer}.{attr}"
                if attr == "map_ordered":
                    wrapped = self._map_wrapper(fn, name, layer)
                else:
                    wrapped = self._wrap(fn, name, layer, *self._hooks(attr))
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped)
        cls = linalg.SpdMatrix
        original = cls.__dict__["from_array"]
        bound = original.__get__(None, cls)
        self._saved.append((cls, "from_array", original))
        cls.from_array = staticmethod(self._wrap(bound, "linalg.SpdMatrix.from_array", "linalg"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, layer, t0, t1, op, extra in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "layer": layer,
                    "start": t0 - self._epoch, "end": t1 - self._epoch, "op": op, **extra,
                }) + "\n")


def _stat_attrs(args, kwargs, result):
    s = np.asarray(result, dtype=float)
    return {"draws": int(args[1]), "nonfinite": int(s.size - np.count_nonzero(np.isfinite(s)))}


def self_times(spans):
    """Wall-share self time of every span of one op, keyed by span id."""
    by_id = {s["id"]: s for s in spans}
    depth = {}

    def depth_of(sid):
        if sid not in depth:
            parent = by_id[sid]["parent"]
            depth[sid] = 0 if parent not in by_id else depth_of(parent) + 1
        return depth[sid]

    events = []
    for s in spans:
        d = depth_of(s["id"])
        events.append((s["start"], 1, d, s["id"]))
        events.append((s["end"], 0, -d, s["id"]))
    events.sort()
    selfs = dict.fromkeys(by_id, 0.0)
    active_children = defaultdict(int)
    active, leaves = set(), set()
    last = events[0][0] if events else 0.0
    for t, is_start, _, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                selfs[leaf] += share
        last = t
        parent = by_id[sid]["parent"]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return selfs


def _check_op(spans, selfs, wall):
    """Problems with one traced op's spans, and |sum of self times - wall|."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    roots = [s["name"] for s in spans if s["parent"] not in by_id]
    if roots != ["cli.main"]:
        problems.append(f"root spans {roots}, not one cli.main")
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(f"{s['name']} span {s['id']} lies outside its parent "
                            f"{parent['name']}")
    gap = abs(sum(selfs.values()) - wall)
    if gap > SELF_SUM_TOL_S:
        problems.append(f"self times add up to {gap:.2e} s off the op's wall {wall:.4f} s")
    return problems, gap


def summarize(spans_path, traced_walls, rows_written, untraced_wall, cpu_s, nproc,
              import_s, import_scipy_s):
    """Per-layer metrics of one traced run (per-op means unless the unit says otherwise),
    the spans' problems (see the module docstring) and the worst self-time gap in s.
    ``traced_walls`` maps each traced op's id to the wall the workload process timed."""
    by_op = defaultdict(list)
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            by_op[s["op"]].append(s)
    n_ops = len(traced_walls)
    traced_wall = sum(traced_walls.values())
    problems = [f"op {op}: no spans" for op in traced_walls if op not in by_op]
    problems += [f"op {op}: spans of an op that was not traced" for op in by_op
                 if op not in traced_walls]

    layer_self = defaultdict(float)
    total = defaultdict(float)  # accumulators keyed by metric-ish names
    worst_gap = 0.0
    for op, spans in by_op.items():
        selfs = self_times(spans)
        if op in traced_walls:
            op_problems, gap = _check_op(spans, selfs, traced_walls[op])
            problems += [f"op {op}: {p}" for p in op_problems]
            worst_gap = max(worst_gap, gap)
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            dur = s["end"] - s["start"]
            name, layer = s["name"], s["layer"]
            parent = by_id.get(s["parent"])
            layer_self[layer] += selfs[s["id"]]
            if name == "cli.load_sigma":
                total["load_sigma_s"] += dur
            elif name.startswith("cli.cmd_"):
                total["emit_s"] += selfs[s["id"]]
                if name == "cli.cmd_sample":
                    total["sample_emit_s"] += selfs[s["id"]]
            elif name == "wishart.stat":
                total["stat_calls"] += 1
                total["stat_draws"] += s["draws"]
                total["stat_busy_s"] += dur
                total["nonfinite"] += s["nonfinite"]
            elif name.startswith("wishart.sample_"):
                total["sample_busy_s"] += dur
                total["sample_bytes"] += s["bytes"]
            elif name == "montecarlo.estimate_log_statistic":
                total["estimates"] += 1
            elif name == "streams.substreams":
                total["substreams"] += s["count"]
                total["substreams_s"] += dur
            elif name == "streams.map_ordered":
                if not _has_ancestor(s, by_id, "streams.map_ordered"):
                    total["map_wall_x_workers"] += dur * s["workers"]
                    total["map_busy_s"] += sum(
                        c["end"] - c["start"] for c in spans
                        if c["parent"] == s["id"] and c["name"].endswith(".task"))
            elif name == "gpi.gpi_ratio":
                total["ratio_calls"] += 1
            if name.endswith(".task"):
                total["map_tasks"] += 1
                if layer == "gpi":
                    total["trials"] += 1
            if parent is not None and parent["name"] == "gpi.gpi_ratio" and name in (
                    "moments.single_minor_moment_log", "linalg.SpdMatrix.from_array",
                    "gpi.gaussian_moment_log"):
                total["denominator_s"] += dur
            if layer == "moments" and (parent is None or parent["layer"] != "moments"):
                total["moments_calls"] += 1
                total["moments_s"] += dur
            if layer == "specfun":
                total["specfun_calls"] += 1
                total["specfun_s"] += dur
            if name == "linalg.SpdMatrix.from_array":
                total["spd_builds"] += 1
                total["spd_s"] += dur

    def per_op(key):
        return total[key] / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    escalations = total["ratio_calls"] - total["trials"]
    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_s": (import_scipy_s, "s"),
        "cli.load_sigma_s": (per_op("load_sigma_s"), "s/op"),
        "cli.emit_s": (per_op("emit_s"), "s/op"),
        "cli.rows_written": (rows_written / n_ops, "rows/op"),
        "cli.rows_per_s": (ratio(rows_written, total["sample_emit_s"]), "rows/s"),
        "cli.self_s": (layer_self["cli"] / n_ops, "s/op"),
        "wishart.stat_calls": (per_op("stat_calls"), "calls/op"),
        "wishart.stat_draws": (per_op("stat_draws"), "draws/op"),
        "wishart.stat_busy_s": (per_op("stat_busy_s"), "s/op"),
        "wishart.draws_per_core_s": (ratio(total["stat_draws"], total["stat_busy_s"]), "draws/s"),
        "wishart.nonfinite_stats": (per_op("nonfinite"), "values/op"),
        "wishart.sample_busy_s": (per_op("sample_busy_s"), "s/op"),
        "wishart.sample_bytes": (per_op("sample_bytes"), "B/op"),
        "wishart.self_s": (layer_self["wishart"] / n_ops, "s/op"),
        "montecarlo.estimates": (per_op("estimates"), "calls/op"),
        "montecarlo.self_s": (layer_self["montecarlo"] / n_ops, "s/op"),
        "montecarlo.self_per_estimate_ms": (
            1000.0 * ratio(layer_self["montecarlo"], total["estimates"]), "ms/estimate"),
        "streams.substreams_spawned": (per_op("substreams"), "streams/op"),
        "streams.substreams_s": (per_op("substreams_s"), "s/op"),
        "streams.map_tasks": (per_op("map_tasks"), "tasks/op"),
        "streams.parallel_util": (ratio(total["map_busy_s"], total["map_wall_x_workers"]), "ratio"),
        "streams.self_s": (layer_self["streams"] / n_ops, "s/op"),
        "gpi.trials": (per_op("trials"), "trials/op"),
        "gpi.ratio_calls": (per_op("ratio_calls"), "calls/op"),
        "gpi.escalations": (escalations / n_ops, "count/op"),
        "gpi.escalation_share": (ratio(escalations, total["trials"]), "ratio"),
        "gpi.denominator_s": (per_op("denominator_s"), "s/op"),
        "gpi.self_s": (layer_self["gpi"] / n_ops, "s/op"),
        "moments.calls": (per_op("moments_calls"), "calls/op"),
        "moments.exact_ms": (1000.0 * per_op("moments_s"), "ms/op"),
        "moments.self_s": (layer_self["moments"] / n_ops, "s/op"),
        "specfun.calls": (per_op("specfun_calls"), "calls/op"),
        "specfun.busy_s": (per_op("specfun_s"), "s/op"),
        "specfun.self_s": (layer_self["specfun"] / n_ops, "s/op"),
        "linalg.spd_builds": (per_op("spd_builds"), "calls/op"),
        "linalg.spd_s": (per_op("spd_s"), "s/op"),
        "linalg.self_s": (layer_self["linalg"] / n_ops, "s/op"),
        "process.op_traced_s": (traced_wall / n_ops, "s/op"),
        "process.cpu_util": (ratio(cpu_s, untraced_wall * nproc), "ratio"),
        "process.trace_overhead": (ratio(traced_wall, untraced_wall), "ratio"),
    }
    return metrics, problems, worst_gap


def _has_ancestor(span, by_id, name):
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False
