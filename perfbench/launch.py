"""Run one ``rdns-privacy`` command inside the benchmark's hooks.

    python perfbench/launch.py --marks FILE [--trace-dir DIR] -- ARGS...

Runs ``repro.cli.main(ARGS)`` from the checkout's ``src/`` and writes
``FILE`` (JSON, ``time.monotonic`` stamps) when the command returns:

* ``start`` — the launcher's first statement;
* ``imported`` — ``repro.cli`` imported;
* ``ready`` — the end of the first world build, or the entry into the
  evaluation matrix, whichever comes first: the end of set-up.

With ``--trace-dir`` every function in :mod:`layers` is wrapped in a
span, the import phase is one more span, and each process writes its
spans into the directory when it ends.
"""

import time

START = time.monotonic()
START_PERF = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _mark_ready(marks: dict) -> None:
    """Stamp ``ready`` at the first world build or matrix start."""
    import repro.eval.runner as runner
    import repro.netsim.internet as internet

    build_world = internet.build_world
    run_matrix = runner.run_matrix

    def built(*args, **kwargs):
        world = build_world(*args, **kwargs)
        marks.setdefault("ready", time.monotonic())
        return world

    def matrix(*args, **kwargs):
        marks.setdefault("ready", time.monotonic())
        return run_matrix(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            if getattr(module, "build_world", None) is build_world:
                module.build_world = built
            if getattr(module, "run_matrix", None) is run_matrix:
                module.run_matrix = matrix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks", required=True, type=Path)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    log = None
    import repro.cli

    if args.trace_dir is not None:
        import layers
        from tracing import SpanLog

        log = SpanLog()
        for name in layers.MODULES:
            __import__(name)
        log.span("import", START_PERF, time.perf_counter())
        layers.install(log)
        log.install_fork_hook(args.trace_dir)
    marks = {"start": START, "imported": time.monotonic()}
    _mark_ready(marks)
    try:
        return repro.cli.main(argv)
    finally:
        sys.stdout.flush()
        if log is not None:
            log.write(args.trace_dir / "spans-main.bin")
        args.marks.write_text(json.dumps(marks), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
