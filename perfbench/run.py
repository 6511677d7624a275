"""The repository's benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload {study,campaign,serve,evaluate}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a checkout.  Each round starts the workload's
``rdns-privacy`` command as a fresh process (through ``launch.py``)
and rounds repeat until ``--seconds`` have passed.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer
metrics, the unattributed time and the tracing overhead.  Every output
is checked; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import serveload  # noqa: E402
from tracing import SpanFile, merge_self_times  # noqa: E402

WORKLOADS = ("study", "campaign", "serve", "evaluate")
#: The evaluation matrix's axes at default settings.
EVAL_WORLDS = ("campus", "multi16")
EVAL_POLICIES = ("carry-over", "hashed", "static-template", "no-update")
#: Every command is killed this long after the run started (the run must
#: end within 180 s); ``stop`` allows a server this long to shut down.
RUN_LIMIT_S = 165.0
STOP_GRACE_S = 20.0
#: Layers whose self time is reported under a name other than ``<layer>.s``.
LAYER_METRIC = {
    "scan.cache": "scan.cache.load_s",
    "core.dynamicity.ingest": "core.dynamicity.ingest_s",
}
#: Client-side ``serve`` figures, taken from the untraced rounds.
CLIENT_METRICS = {
    "serve.read_rps", "serve.read_p50_ms", "serve.read_p99_ms",
    "serve.ingest_ms", "serve.refresh_ms", "serve.requests",
}
#: /metrics histograms of the read endpoints (``serve.dispatch_ms``).
READ_ENDPOINTS = ("prefix_dynamicity", "leaks", "names", "occupancy")


#: The monotonic time after which commands are killed.
DEADLINE = time.monotonic() + RUN_LIMIT_S


# -- host, source and processes ---------------------------------------------


def host_info() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def child_env() -> Dict[str, str]:
    """The environment of every command: no ``REPRO_*`` overrides."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class Process:
    """One launched command: wall clock and peak RSS from ``wait4``."""

    def __init__(self, cli_args: List[str], scratch: Path, *, trace_dir: Optional[Path]):
        self.marks_path = scratch / "marks.json"
        self.stdout_path = scratch / "stdout.txt"
        self.stderr_path = scratch / "stderr.txt"
        self.marks_path.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "launch.py"), "--marks", str(self.marks_path)]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        command += ["--", *cli_args]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.started = time.monotonic()
            self.popen = subprocess.Popen(command, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        self._watchdog = threading.Timer(max(1.0, DEADLINE - self.started), self.popen.kill)
        self._watchdog.start()
        self.wall_s: Optional[float] = None
        self.rss_mb: Optional[float] = None

    def running(self) -> bool:
        return self.popen.poll() is None

    def wait(self) -> int:
        """Reap the process; its RSS includes its reaped pool workers."""
        _, status, usage = os.wait4(self.popen.pid, 0)
        ended = time.monotonic()
        self._watchdog.cancel()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = ended - self.started
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.popen.returncode

    def marks(self) -> dict:
        try:
            return json.loads(self.marks_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}

    def stdout(self) -> str:
        return self.stdout_path.read_text(encoding="utf-8", errors="replace")

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]


# -- rounds -------------------------------------------------------------------


class Round:
    """One command's measurements, operations and output problems."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall_s = 0.0
        self.setup_s = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.output: Optional[str] = None
        #: Per-layer and client-side figures, by metric name.
        self.figures: Dict[str, float] = {}


def batch_args(workload: str, seed: int, scratch: Path) -> List[str]:
    if workload == "study":
        return ["--seed", str(seed), "study"]
    if workload == "campaign":
        return ["--seed", str(seed), "campaign"]
    return ["--seed", str(seed), "--workers", "2", "evaluate", "--out", str(scratch / "matrix.json")]


def run_batch_round(workload: str, seed: int, scratch: Path, traced: bool) -> Round:
    result = Round(traced)
    trace_dir = fresh_dir(scratch / "trace") if traced else None
    operations = len(EVAL_WORLDS) * len(EVAL_POLICIES) if workload == "evaluate" else 1
    result.attempted = operations
    (scratch / "matrix.json").unlink(missing_ok=True)
    process = Process(batch_args(workload, seed, scratch), scratch, trace_dir=trace_dir)
    status = process.wait()
    result.wall_s, result.rss_mb = process.wall_s, process.rss_mb
    marks = process.marks()
    if status != 0 or "ready" not in marks:
        result.failed = operations
        result.problems.append(f"{workload} exited {status}: {process.stderr_tail()}")
        return result
    result.setup_s = marks["ready"] - process.started
    if workload == "evaluate":
        result.output = (scratch / "matrix.json").read_text(encoding="utf-8")
    else:
        result.output = process.stdout()
    if traced:
        attribute_spans(result, trace_dir, process.wall_s)
    return result


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def attribute_spans(result: Round, trace_dir: Path, wall_s: float, *, idle_s: float = 0.0) -> None:
    """Layer self times, counters and the unattributed remainder."""
    files = [SpanFile.read(path) for path in sorted(trace_dir.glob("spans-*.bin"))]
    main, every = merge_self_times(files)
    figures = result.figures
    for name, seconds in every.items():
        figures[LAYER_METRIC.get(name, f"{name}.s")] = seconds
    for span_file in files:
        for name, value in span_file.counts.items():
            figures[name] = figures.get(name, 0) + value
    figures["unattributed.s"] = wall_s - sum(main.values()) - idle_s


# -- serve ----------------------------------------------------------------------


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def get_json(port: int, path: str, timeout: float = 5.0) -> Optional[dict]:
    """One GET outside the session's count, or ``None`` if it fails."""
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=timeout) as response:
            return json.loads(response.read())
    except (OSError, ValueError):
        return None


def serve_args(seed: int, cache: Path, blockfile: Path, port: int,
               manifest: Optional[Path] = None) -> List[str]:
    args = ["--seed", str(seed), "--snapshot-cache", str(cache)]
    if manifest is not None:
        args += ["--metrics-out", str(manifest)]
    return args + ["serve", "--blockfile", str(blockfile), "--port", str(port)]


def boot(process: Process, port: int) -> Optional[float]:
    """Seconds from process start to the first 200 from ``/healthz``."""
    while process.running():
        if get_json(port, "/healthz") is not None:
            return time.monotonic() - process.started
        time.sleep(0.005)
    return None


def stop(process: Process) -> int:
    """SIGINT (the server's Ctrl-C), then SIGKILL after a grace period."""
    if process.running():
        process.popen.send_signal(signal.SIGINT)
    grace = threading.Timer(STOP_GRACE_S, process.popen.kill)
    grace.start()
    try:
        return process.wait()
    finally:
        grace.cancel()


def prepare_serve(seed: int, scratch: Path) -> tuple:
    """Fill the snapshot cache for ``seed`` once (untimed); list its /24s.

    Keyed by the source digest, so a cache never outlives the code
    that wrote it.
    """
    from repro.scan.blockfile import BlockFileReader

    cache = WORK / "serve-cache" / f"{source_digest()[:16]}-seed{seed}"
    listing = cache / "prefixes.json"
    if listing.exists():
        return cache, json.loads(listing.read_text(encoding="utf-8"))
    fresh_dir(cache)
    prepare = fresh_dir(scratch / "prepare")
    port = free_port()
    process = Process(serve_args(seed, cache, prepare / "boot.rbf", port), prepare, trace_dir=None)
    try:
        booted = boot(process, port)
    finally:
        status = stop(process)
    sidecars = sorted(cache.glob("*.rbf"))
    if booted is None or status != 0 or len(sidecars) != 1:
        raise RuntimeError(f"serve preparation failed ({status}): {process.stderr_tail()}")
    with BlockFileReader.open(sidecars[0]) as reader:
        prefixes = list(reader.prefixes)
    listing.write_text(json.dumps(prefixes), encoding="utf-8")
    return cache, prefixes


def run_serve_round(seed: int, scratch: Path, traced: bool, cache: Path,
                    prefixes: List[str]) -> Round:
    result = Round(traced)
    trace_dir = fresh_dir(scratch / "trace") if traced else None
    blockfile = scratch / "serve.rbf"
    blockfile.unlink(missing_ok=True)
    port = free_port()
    manifest = scratch / "manifest.json" if traced else None
    process = Process(serve_args(seed, cache, blockfile, port, manifest), scratch, trace_dir=trace_dir)
    session = None
    metrics_payload = None
    try:
        booted = boot(process, port)
        if booted is not None:
            result.setup_s = booted
            session = serveload.run_session(port, prefixes, seed)
            if traced:
                metrics_payload = get_json(port, "/metrics", timeout=30)
    finally:
        status = stop(process)
    result.wall_s, result.rss_mb = process.wall_s, process.rss_mb
    planned = serveload.planned_requests(len(prefixes))
    if session is None:
        result.attempted = result.failed = planned
        result.problems.append(f"serve did not boot ({status}): {process.stderr_tail()}")
        return result
    result.attempted, result.failed = session.attempted, session.failed
    result.problems.extend(session.problems)
    if status != 0:
        result.problems.append(f"serve exited {status}: {process.stderr_tail()}")
    if session.thresholds is not None and session.histories:
        batch = serveload.batch_verdicts(session)
        result.problems.extend(checks.check_parity(session.served, batch))
    else:
        result.problems.append("no ingest or no histories to check parity on")
    reads = session.read_seconds
    result.figures.update(
        {
            "serve.read_rps": len(reads) / session.read_block_seconds if reads else 0.0,
            "serve.read_p50_ms": 1000 * statistics.median(reads) if reads else 0.0,
            "serve.read_p99_ms": 1000 * percentile(reads, 0.99) if reads else 0.0,
            "serve.ingest_ms": 1000 * statistics.median(session.ingest_seconds or [0.0]),
            "serve.refresh_ms": 1000 * statistics.median(session.refresh_seconds or [0.0]),
            "serve.requests": session.attempted,
        }
    )
    if traced:
        attribute_spans(result, trace_dir, process.wall_s, idle_s=session.client_cpu_seconds)
        result.figures["serve.dispatch_ms"] = dispatch_ms(metrics_payload)
    return result


def dispatch_ms(payload: Optional[dict]) -> float:
    """Mean server-side dispatch time of the read endpoints, in ms."""
    if not payload:
        return 0.0
    histograms = payload.get("metrics", {}).get("histograms", {})
    total = count = 0.0
    for endpoint in READ_ENDPOINTS:
        histogram = histograms.get(f"serve_request_seconds_{endpoint}")
        if histogram:
            total += histogram.get("sum", 0.0)
            count += histogram.get("count", 0)
    return 1000 * total / count if count else 0.0


def percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


# -- checks ---------------------------------------------------------------------


def pool_sizes(seed: int) -> Dict[str, int]:
    """Targeted addresses per Table-4 network, from the world description."""
    from repro.netsim.internet import build_world

    world = build_world(seed=seed)
    return {
        name: sum(subnet.prefix.num_addresses for subnet in world.supplemental_targets(name))
        for name in world.supplemental
    }


def check_outputs(workload: str, seed: int, rounds: List[Round]) -> List[str]:
    """Check the first output in full; every other must equal it."""
    outputs = [r.output for r in rounds if r.output is not None]
    if not outputs:
        return []
    first = outputs[0]
    if workload == "study":
        problems = checks.check_study(first)
    elif workload == "campaign":
        problems = checks.check_campaign(first, pool_sizes(seed))
    else:
        problems = checks.check_matrix(json.loads(first), EVAL_WORLDS, EVAL_POLICIES)
    for index, output in enumerate(outputs[1:], start=2):
        if output != first:
            problems.append(f"output {index} differs from output 1 for the same seed")
    return problems


# -- the run ----------------------------------------------------------------------


def pin(workload: str) -> None:
    """Client, server and serial commands share one CPU; evaluate keeps all.

    Measured on a 2-CPU host: pinned, serve read throughput spread 5%
    over 4 runs instead of 20%, and ``campaign`` 8% instead of 15%.
    The evaluation matrix runs two pool workers, so it keeps every CPU.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if workload != "evaluate" and len(allowed) > 1:
        os.sched_setaffinity(0, {allowed[-1]})


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> List[Round]:
    """Whole rounds until ``seconds`` pass; traced runs alternate U/T."""
    serve_state = prepare_serve(seed, scratch) if workload == "serve" else None
    rounds: List[Round] = []
    started = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if serve_state is not None:
            rounds.append(run_serve_round(seed, scratch, traced, *serve_state))
        else:
            rounds.append(run_batch_round(workload, seed, scratch, traced))
        elapsed = time.monotonic() - started
        pace = elapsed / len(rounds)
        enough = not trace or any(r.traced for r in rounds)
        if enough and elapsed + pace > seconds:
            break
    return rounds


def median_of(rounds: List[Round], read) -> float:
    values = [read(r) for r in rounds]
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    return {
        "wall_s": median_of(rounds, lambda r: r.wall_s),
        "setup_s": median_of(rounds, lambda r: r.setup_s),
        "peak_rss_mb": max(r.rss_mb for r in rounds),
    }


def per_layer(rounds: List[Round], names: List[str]) -> Dict[str, float]:
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    values: Dict[str, float] = {}
    for name in names:
        source = plain if name in CLIENT_METRICS else traced
        values[name] = median_of(source, lambda r: r.figures.get(name, 0.0))
    events = values.get("ipam.lease_events", 0.0)
    values["ipam.useful_ratio"] = values.get("ipam.dns_updates", 0.0) / events if events else 0.0
    values["trace.overhead_s"] = median_of(traced, lambda r: r.wall_s) - median_of(plain, lambda r: r.wall_s)
    return values


def report_layers(workload: str, values: Dict[str, float]) -> None:
    """The human-readable trace summary printed before the result line."""
    print(f"[trace] {workload}: per-layer self time (median of traced rounds)")
    for name in sorted(values):
        if name.endswith((".s", "_s")) and name not in ("unattributed.s", "trace.overhead_s"):
            print(f"  {name:28s} {values[name]:10.4f} s")
    print(f"  {'unattributed':28s} {values.get('unattributed.s', 0.0):10.4f} s")
    print(f"  {'tracing overhead':28s} {values.get('trace.overhead_s', 0.0):10.4f} s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Byte-compile once, untimed, so no round pays for compilation.
    compileall.compile_dir(str(SRC), quiet=1)
    pin(args.workload)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
        problems = [problem for r in rounds for problem in r.problems]
        if args.workload != "serve":
            problems += check_outputs(args.workload, args.seed, rounds)
        if args.trace:
            # Each traced round refills scratch/trace: keep the last one's spans.
            keep = fresh_dir(WORK / "traces" / args.workload)
            for path in sorted((scratch / "trace").glob("spans-*.bin")):
                shutil.copy2(path, keep / path.name)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in spec[section]]
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    values = per_layer(rounds, names) if args.trace else end_to_end(rounds)
    missing = [name for name in names if name not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    if args.trace:
        report_layers(args.workload, values)
    for problem in problems[:20]:
        print(f"[check] {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "host": host_info(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "samples": [
            {"traced": r.traced, "wall_s": r.wall_s, "setup_s": r.setup_s, "rss_mb": r.rss_mb,
             **r.figures}
            for r in rounds
        ],
        "result": result,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({key: record[key] for key in ("host", "commit", "source_sha256", "rounds")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
