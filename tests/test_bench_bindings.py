"""The benchmark tracer in bench/spans.py wraps package functions by name.

Each name in its BINDINGS table must stay an attribute of its module, or a
traced benchmark run fails when it installs the tracer.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_tracer_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{attr}"
        for mod, attrs in spans.BINDINGS.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"wishminors.{mod}"), attr, None))
    ]
    assert missing == []
