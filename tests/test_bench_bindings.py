"""The benchmark tracer in bench/spans.py wraps package functions by name.

Each name in its BINDINGS table must stay an attribute of its module, or a
traced benchmark run fails when it installs the tracer.  The chunk driver
must also call the bindings the tracer wraps, or a traced op's chunk task
spans lose their parent.
"""
import importlib
import importlib.util
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

import wishminors.cli as cli
from wishminors.cli import EXIT_OK, write_matrix_csv

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_tracer_binding_resolves():
    spans = load_spans()
    missing = [
        f"{mod}.{attr}"
        for mod, attrs in spans.BINDINGS.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"wishminors.{mod}"), attr, None))
    ]
    assert missing == []


def test_traced_ops_nest_under_one_cli_main(tmp_path, capsys):
    spans = load_spans()
    sigma = tmp_path / "sigma.csv"
    write_matrix_csv(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.5]]), str(sigma))
    common = ["--alpha", "4.5", "--sigma", str(sigma), "--seed", "3", "--workers", "2"]
    integer = ["--alpha", "2", *common[2:]]
    search = ["--trials", "2", "--samples", "2000", "--seed", "3", "--workers", "2"]
    # The shapes of the four benchmark workloads: both verify modes, both
    # sample methods and a gpi search of each kind.
    ops = [
        ["verify", *common, "--partition", "2,1", "--nu", "1,0.5",
         "--mode", "disjoint", "--samples", "2000"],
        ["sample", *common, "--count", "200", "--method", "bartlett",
         "--out", str(tmp_path / "draws.csv")],
        ["verify", *common, "--partition", "2,1", "--nu", "1,0.5",
         "--mode", "embedded", "--samples", "2000"],
        ["sample", *integer, "--count", "200", "--method", "gaussian-sum",
         "--out", str(tmp_path / "gsum.csv")],
        ["gpi", "--kind", "wishart", "--dims", "1:3", "--alpha-range", "1:6", *search],
        ["gpi", "--kind", "gaussian", "--dims", "2", "--nu-grid", "1", *search],
    ]
    tracer = spans.Tracer()
    for op, argv in enumerate(ops):
        tracer.op = op
        tracer.install()
        try:
            code = tracer.call("cli.main", "cli", cli.main, (argv,), {})
        finally:
            tracer.uninstall()
        assert code == EXIT_OK
    capsys.readouterr()
    path = tmp_path / "spans.jsonl"
    tracer.write(path)

    by_op = defaultdict(list)
    for line in path.read_text().splitlines():
        span = json.loads(line)
        by_op[span["op"]].append(span)
    assert sorted(by_op) == list(range(len(ops)))
    for op, op_spans in by_op.items():
        (root,) = [s for s in op_spans if s["name"] == "cli.main"]
        problems, _ = spans._check_op(
            op_spans, spans.self_times(op_spans), root["end"] - root["start"]
        )
        assert problems == []
        names = {s["name"] for s in op_spans}
        assert {"streams.substreams", "streams.map_ordered"} <= names
        if ops[op][0] == "gpi":
            assert "gpi.task" in names
