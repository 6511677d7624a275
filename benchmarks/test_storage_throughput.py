"""Storage throughput: warm-decode v4 (blockfile) vs v3 (inline JSON).

Not a paper table — this benchmarks the zero-copy columnar backbone
(dataset format v4, :mod:`repro.scan.blockfile`).  One
:func:`~repro.netsim.worldplan.synthetic_plan` world of
``REPRO_STORAGE_BENCH_SLASH16S`` /16s (default 200) is collected over
``REPRO_STORAGE_BENCH_DAYS`` days (default 90) and stored twice — as a
v3 self-contained JSON document and as a v4 JSON+blockfile pair — and
the *warm decode* path (cache load → usable series → counts read) is
timed best-of-N for each.  Bit-identity is asserted before anything is
timed: both decoded series must re-serialise to the exact reference
payload bytes.

A second leg measures the worker transport: a pooled collection (2
workers, forced past the single-core fallback) must stay byte-identical
to serial while moving its results as packed columnar blobs inside the
result pickle, and the blob volume is recorded.

Results land in ``results/storage_throughput.txt`` (human table) and
``results/BENCH_storage.json`` (machine-readable).  The committed JSON
doubles as the CI regression baseline: at the full configuration
(90 days × 200 /16s), v4 warm decode must beat v3 by
``SPEEDUP_FLOOR`` (4x); smaller smoke configurations record
``gate.skip_reason`` instead of silently passing.  Peak RSS is always
recorded, and ``REPRO_STORAGE_BENCH_RSS_MB`` (when set, as in the CI
smoke job) turns it into a hard ceiling.

Environment knobs for CI smoke runs: ``REPRO_STORAGE_BENCH_DAYS``
(default 90), ``REPRO_STORAGE_BENCH_SLASH16S`` (default 200) and
``REPRO_STORAGE_BENCH_RSS_MB`` (unset → no ceiling).
"""

import datetime as dt
import json
import os
import pathlib
import resource
import time

from repro.netsim.worldplan import synthetic_plan
from repro.reporting import TextTable
from repro.scan.cache import SnapshotCache
from repro.scan.sharded import ShardedCollector
from repro.scan.snapshot import SnapshotSeries
from repro.scan.storage import COLUMNAR_PAYLOAD_VERSION, DATASET_FORMAT_VERSION

SEED = 42
START = dt.date(2021, 1, 1)

BENCH_DAYS = int(os.environ.get("REPRO_STORAGE_BENCH_DAYS", "90"))
SLASH16S = int(os.environ.get("REPRO_STORAGE_BENCH_SLASH16S", "200"))
PEOPLE = 12
RSS_CEILING_MB = os.environ.get("REPRO_STORAGE_BENCH_RSS_MB")

SPEEDUP_FLOOR = 4.0
TIMING_REPS = 7
TRANSPORT_WORKERS = 2

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_storage.json"
BENCH_TXT = RESULTS_DIR / "storage_throughput.txt"

FULL_CONFIG = BENCH_DAYS >= 90 and SLASH16S >= 200


def _best_of(fn, reps=TIMING_REPS):
    """Best-of-N wall time: the least-interfered-with run."""
    best = None
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _peak_rss_mb() -> float:
    """Peak RSS in MB across this process and its (pool) children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return round(max(own, children) / 1024.0, 1)


def _decode_probe(payload) -> int:
    """Warm decode: payload → series → counts actually read."""
    series = SnapshotSeries.from_payload(payload, None)
    matrix = series.count_matrix()
    total = sum(matrix.totals)
    total += sum(series.counts_view(series.days[-1]).values())
    return total


def test_storage_throughput(tmp_path):
    plan = synthetic_plan(seed=SEED, slash16s=SLASH16S, people=PEOPLE)
    end = START + dt.timedelta(days=BENCH_DAYS)
    series = ShardedCollector(plan, shards=1).collect(START, end)
    reference_bytes = json.dumps(series.to_payload(), sort_keys=True)

    # -- store both representations --------------------------------------
    v3_cache = SnapshotCache(tmp_path / "v3")
    v4_cache = SnapshotCache(tmp_path / "v4")
    key = "storage-bench"
    v3_payload = series.to_payload()
    assert v3_payload["version"] == COLUMNAR_PAYLOAD_VERSION
    v3_cache.store(key, v3_payload)
    v4_cache.store_series(key, series)

    v3_bytes = v3_cache.path_for(key).stat().st_size
    v4_doc_bytes = v4_cache.path_for(key).stat().st_size
    v4_sidecar_bytes = v4_cache.blockfile_path_for(key).stat().st_size
    v4_bytes = v4_doc_bytes + v4_sidecar_bytes

    # -- bit-identity first: nothing is timed until this holds ------------
    for cache in (v3_cache, v4_cache):
        decoded = SnapshotSeries.from_payload(cache.load(key), None)
        assert json.dumps(decoded.to_payload(), sort_keys=True) == reference_bytes, (
            f"decode from {cache.root.name} diverged from the reference"
        )
    assert json.loads(v4_cache.path_for(key).read_text())[
        "version"
    ] == DATASET_FORMAT_VERSION

    # -- warm-decode timings ----------------------------------------------
    v3_seconds = _best_of(lambda: _decode_probe(v3_cache.load(key)))
    v4_seconds = _best_of(lambda: _decode_probe(v4_cache.load(key)))
    speedup = v3_seconds / v4_seconds if v4_seconds else 0.0
    v3_mb_s = v3_bytes / 1e6 / v3_seconds if v3_seconds else 0.0
    v4_mb_s = v4_bytes / 1e6 / v4_seconds if v4_seconds else 0.0

    # -- worker transport: pooled run is byte-identical, blobs counted ----
    pooled_collector = ShardedCollector(plan, shards=TRANSPORT_WORKERS)
    os.environ["REPRO_MAX_WORKERS"] = str(TRANSPORT_WORKERS)
    try:
        pooled = pooled_collector.collect(START, end, workers=TRANSPORT_WORKERS)
    finally:
        os.environ.pop("REPRO_MAX_WORKERS", None)
    pool_metrics = pooled_collector.last_metrics
    assert json.dumps(pooled.to_payload(), sort_keys=True) == reference_bytes, (
        "pooled collection diverged from serial"
    )
    assert pool_metrics.transport_bytes > 0, "pool results did not use the transport"

    peak_rss_mb = _peak_rss_mb()
    skip_reason = None if FULL_CONFIG else (
        f"smoke configuration ({BENCH_DAYS} days × {SLASH16S} /16s below "
        f"90 × 200): speedup recorded, not gated"
    )

    results = {
        "benchmark": "storage_throughput",
        "config": {
            "seed": SEED,
            "days": BENCH_DAYS,
            "slash16s": SLASH16S,
            "people": PEOPLE,
            "prefixes": len(series.count_matrix().prefixes),
            "plan_fingerprint": plan.fingerprint(),
        },
        "formats": {
            "v3_inline_bytes": v3_bytes,
            "v4_document_bytes": v4_doc_bytes,
            "v4_blockfile_bytes": v4_sidecar_bytes,
            "v4_total_bytes": v4_bytes,
        },
        "warm_decode": {
            "v3_seconds": round(v3_seconds, 5),
            "v4_seconds": round(v4_seconds, 5),
            "v3_mb_per_second": round(v3_mb_s, 1),
            "v4_mb_per_second": round(v4_mb_s, 1),
            "speedup_v4_vs_v3": round(speedup, 2),
        },
        "transport": {
            "workers": TRANSPORT_WORKERS,
            "transport_bytes": pool_metrics.transport_bytes,
        },
        "memory": {
            "peak_rss_mb": peak_rss_mb,
            "ceiling_mb": float(RSS_CEILING_MB) if RSS_CEILING_MB else None,
        },
        "gate": {
            "speedup_floor": SPEEDUP_FLOOR,
            "applied": FULL_CONFIG,
            "skip_reason": skip_reason,
        },
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    table = TextTable(
        ["format", "stored bytes", "decode s", "MB/s"], aligns=["<", ">", ">", ">"]
    )
    table.add_row(["v3 inline JSON", v3_bytes, f"{v3_seconds:.4f}", f"{v3_mb_s:.1f}"])
    table.add_row(["v4 blockfile", v4_bytes, f"{v4_seconds:.4f}", f"{v4_mb_s:.1f}"])
    BENCH_TXT.write_text(
        f"Storage throughput — {BENCH_DAYS} days, {SLASH16S} /16s, "
        f"{results['config']['prefixes']} prefixes\n\n"
        + table.render()
        + f"\n\nwarm-decode speedup v4 vs v3: {speedup:.2f}x"
        + f" (gate {'applied' if FULL_CONFIG else 'skipped'}: floor {SPEEDUP_FLOOR}x"
        + (f", {skip_reason}" if skip_reason else "")
        + f")\ntransport bytes at {TRANSPORT_WORKERS} workers: "
        + f"{pool_metrics.transport_bytes}\n"
        + f"peak RSS: {peak_rss_mb} MB"
        + (f" (ceiling {RSS_CEILING_MB} MB)" if RSS_CEILING_MB else "")
        + "\n"
    )
    BENCH_JSON.write_text(json.dumps(results, indent=2) + "\n")

    # -- the regression gates ---------------------------------------------
    if FULL_CONFIG:
        assert speedup >= SPEEDUP_FLOOR, (
            f"v4 warm-decode speedup regressed: {speedup:.2f}x < {SPEEDUP_FLOOR}x "
            f"(v3 {v3_seconds:.4f}s, v4 {v4_seconds:.4f}s)"
        )
    if RSS_CEILING_MB:
        assert peak_rss_mb <= float(RSS_CEILING_MB), (
            f"peak RSS {peak_rss_mb} MB exceeds the "
            f"{RSS_CEILING_MB} MB ceiling"
        )
