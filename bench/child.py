"""Workload process: imports the CLI, then runs ops sent by ``run.py`` one at a time.

Usage (started by run.py, never by hand):
    python3 bench/child.py [--probe] [--spans FILE]

The first stdout line is sent as soon as ``wishminors.cli`` is imported, so the
parent can time the set-up every console-script call pays.  ``--probe`` exits
right there.  Otherwise each stdin line is a JSON command, ``{"argv": [...],
"trace": bool}`` or ``null`` to stop, answered by one stdout line.  Only the
``cli.main`` call is timed; the parent checks each op's output before sending
the next, so checks never overlap the timed region.
"""
import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _ready(cli):
    return {
        "ready": True,
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "wishminors_file": cli.__file__,
    }


def _run(cli, argv, tracer, op_index):
    out, err = io.StringIO(), io.StringIO()
    cpu0 = time.process_time()
    if tracer is not None:
        tracer.op = op_index
        tracer.install()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli.main", "cli", cli.main, (argv,), {})
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
            wall = time.perf_counter() - t0
    except Exception:  # a crash is a failed op, reported with its traceback
        wall = time.perf_counter() - t0
        code = "exception"
        err.write(traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "op": op_index, "code": code, "wall": wall, "cpu": time.process_time() - cpu0,
        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
    }


def main():
    import wishminors.cli as cli

    # One line only: the parent waits on the pipe and must not find a second
    # line already buffered behind this one.
    print(json.dumps(_ready(cli)), flush=True)
    args = sys.argv[1:]
    if "--probe" in args:
        return 0
    spans_path = args[args.index("--spans") + 1] if "--spans" in args else None
    tracer = None
    if spans_path is not None:
        from spans import Tracer

        tracer = Tracer()
    op_index = 0
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd is None:
            break
        reply = _run(cli, cmd["argv"], tracer if cmd["trace"] else None, op_index)
        op_index += 1
        print(json.dumps(reply), flush=True)
    if tracer is not None:
        tracer.write(spans_path)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
