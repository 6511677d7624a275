"""The one process pool: day chunks, leak samples, shards, campaigns, cells.

A multi-year full-address-space series visits thousands of simulated
days, and every day is derived independently: all randomness comes from
``RngStreams.fresh(label, ..., day.toordinal())`` streams, so the order
in which days are evaluated — or the process that evaluates them —
cannot change the outcome.  That makes day-chunk parallelism safe:
:func:`collect_days` splits the day list into contiguous chunks,
derives chunks concurrently, and merges the results in chronological
order.  The merged series is bit-identical to a serial run (the
equivalence regression test in ``tests/scan/test_parallel_cache.py``
pins this).

Every fan-out in the package — snapshot days, leak samples, snapshot
shards, campaign networks and evaluation cells — goes through
:func:`_map_chunks`.  Where ``fork`` is available (Linux), workers
inherit their state (an :class:`~repro.netsim.internet.Internet`, a
world or a plan payload) through copy-on-write memory — no pickling at
all.  Elsewhere the state is pickled once and shipped via the pool
initializer.  Results travel the other way as packed columnar blobs
(:mod:`repro.scan.transport`) riding the result pickle as one
``bytes`` object instead of millions of small pickled objects.

:func:`effective_workers` implements the never-slower rule: short
windows don't amortise pool start-up, so the pool size is capped by
the day count (at least :data:`MIN_DAYS_PER_WORKER` days per worker)
and the machine's core count; a cap of one means "stay serial".  The
historic behaviour — honouring ``workers=4`` for a 60-day window on a
single-core host — ran at 0.6x serial throughput.
:func:`effective_campaign_workers` is the same rule for campaign
tasks.
"""

from __future__ import annotations

import datetime as dt
import math
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.snapshot import SnapshotCollector, SnapshotSeries

#: Below this many days per worker, pool start-up and per-task
#: overhead outweigh the concurrency win; shrink the pool instead.
MIN_DAYS_PER_WORKER = 8

#: Per-worker state: (internet, network_names, at_offset).  Fork
#: workers inherit it from the parent; spawn workers get it from the
#: pool initializer.  Worker processes are single-purpose, so a module
#: global is the simplest way to pay the set-up cost once per worker.
_WORKER_STATE: Optional[Tuple[object, Optional[List[str]], Optional[int]]] = None


#: Default ceiling on automatic pool sizing.  Large shard runs want the
#: whole machine; ``REPRO_MAX_WORKERS`` lifts (or lowers) the ceiling.
DEFAULT_WORKER_CEILING = 8


def worker_cap() -> int:
    """The machine-wide ceiling for any pool this process creates.

    ``REPRO_MAX_WORKERS`` overrides everything — including the core
    count, which is an explicit opt-in to oversubscription (useful to
    exercise real pools on small CI hosts).  Without it, the cap is the
    core count, bounded by :data:`DEFAULT_WORKER_CEILING`.
    """
    env = os.environ.get("REPRO_MAX_WORKERS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"REPRO_MAX_WORKERS must be an integer, got {env!r}") from exc
        if value < 1:
            raise ValueError(f"REPRO_MAX_WORKERS must be >= 1, got {value}")
        return value
    return min(os.cpu_count() or 1, DEFAULT_WORKER_CEILING)


def default_workers() -> int:
    """A sensible worker count: the machine-wide :func:`worker_cap`."""
    return worker_cap()


def effective_workers(requested: int, day_count: int) -> int:
    """Cap the requested pool size so parallelism never loses to serial.

    More workers than the :func:`worker_cap` just context-switch; more
    workers than ``day_count / MIN_DAYS_PER_WORKER`` spend their time on
    pool start-up.  Anything that caps to one means "run serial".
    """
    if requested < 2 or day_count < 2 * MIN_DAYS_PER_WORKER:
        return 1
    capped = min(
        requested,
        worker_cap(),
        day_count // MIN_DAYS_PER_WORKER,
    )
    return capped if capped >= 2 else 1


def effective_campaign_workers(requested: int, work_units: int) -> int:
    """Cap a campaign's pool size so parallelism never loses to serial.

    ``work_units`` is the number of tasks actually submitted to the
    pool — one per network for a world, one per shard batch for a plan.
    Capping at the *network* count starved shard-batched runs, where one
    submission carries many networks: a 2-batch run over 9 networks
    must size the pool by its 2 submissions, not its 9 networks.
    More workers than work units just idle; more workers than the
    machine-wide :func:`worker_cap` just context-switch.  Anything that
    caps to one means "run serial".
    """
    if requested < 2 or work_units < 2:
        return 1
    capped = min(requested, worker_cap(), work_units)
    return capped if capped >= 2 else 1


class WorkerBudget:
    """One worker budget shared between nested pool levels.

    Sharded collection has two natural pool levels — across shards and
    across day-chunks within a shard.  Sizing each level independently
    oversubscribes the machine (outer × inner processes); a budget makes
    the split explicit: ``split(outer_tasks)`` returns the outer pool
    size and the per-task inner allowance whose product never exceeds
    the total.
    """

    def __init__(self, total: Optional[int] = None):
        if total is None:
            total = worker_cap()
        if total < 1:
            raise ValueError(f"worker budget must be >= 1, got {total}")
        self.total = total

    def split(self, outer_tasks: int) -> Tuple[int, int]:
        """(outer pool size, inner workers per outer task)."""
        if outer_tasks < 1:
            return 1, self.total
        outer = min(self.total, outer_tasks)
        inner = max(1, self.total // outer)
        return outer, inner

    def __repr__(self) -> str:
        return f"WorkerBudget(total={self.total})"


def _init_worker(blob: bytes) -> None:
    global _WORKER_STATE
    _WORKER_STATE = pickle.loads(blob)


def _collect_chunk(ordinals: List[int]):
    """Derive one contiguous chunk of days inside a worker process.

    Returns a :class:`~repro.scan.transport.BlobHandle` over the packed
    day results — the parent unpacks via
    :func:`~repro.scan.transport.unpack_day_chunk`.
    """
    from repro.scan import transport
    from repro.scan.snapshot import derive_day

    assert _WORKER_STATE is not None, "worker state missing (initializer did not run)"
    internet, network_names, at_offset = _WORKER_STATE
    results = []
    for ordinal in ordinals:
        day = dt.date.fromordinal(ordinal)
        counts, ptrs = derive_day(internet, network_names, day, at_offset)
        results.append((ordinal, counts, ptrs))
    return transport.publish(transport.pack_day_chunk(results))


def _records_chunk(ordinals: List[int]):
    """Derive one chunk of full per-day record lists inside a worker.

    Addresses travel as raw 32-bit ints in a packed column; the parent
    rebuilds ``IPv4Address`` objects on ingestion.
    """
    from repro.scan import transport

    assert _WORKER_STATE is not None, "worker state missing (initializer did not run)"
    internet, network_names, at_offset = _WORKER_STATE
    if network_names is None:
        networks = internet.networks
    else:
        networks = [internet.network(name) for name in network_names]
    results = []
    for ordinal in ordinals:
        day = dt.date.fromordinal(ordinal)
        records = [
            (int(address), hostname)
            for network in networks
            for address, hostname in network.records_on(day, at_offset=at_offset)
        ]
        results.append((ordinal, records))
    return transport.publish(transport.pack_record_chunk(results))


def chunk_days(days: Sequence[dt.date], workers: int) -> List[List[dt.date]]:
    """Split ``days`` into contiguous chunks, ~2 per worker.

    A couple of chunks per worker keeps the pool busy when chunks take
    uneven time (weekday/weekend day mixes differ in cost) without
    paying per-day task overhead; finer splits measurably lose to the
    fixed cost per task on small worlds.
    """
    if not days:
        return []
    target = max(1, math.ceil(len(days) / (workers * 2)))
    return [list(days[index:index + target]) for index in range(0, len(days), target)]


def collect_days(
    collector: "SnapshotCollector",
    days: Sequence[dt.date],
    *,
    workers: int,
    obs=None,
    metrics=None,
) -> "SnapshotSeries":
    """Collect ``days`` for ``collector`` on a process pool.

    Raises ``ValueError`` if the platform lacks ``fork`` and the world
    cannot be pickled (worlds built by
    :func:`repro.netsim.internet.build_world` always can).  ``obs`` (an
    :class:`repro.obs.Observability` handle) receives the pool shape —
    transport, chunk and worker counts, result-blob bytes — under
    ``timings.execution``; those vary with the host, never the
    collected series.  ``metrics`` (a
    :class:`~repro.scan.snapshot.CollectionMetrics`) additionally
    receives the ``transport_bytes`` total.
    """
    from repro.scan import transport
    from repro.scan.snapshot import SnapshotSeries

    if workers < 2:
        raise ValueError("collect_days needs at least 2 workers; use collect() for serial")

    series = SnapshotSeries(
        collector.name,
        collector.internet,
        collector.networks,
        at_offset=collector.at_offset,
        cadence_days=collector.cadence_days,
    )
    chunks = [
        [day.toordinal() for day in chunk] for chunk in chunk_days(days, workers)
    ]
    network_names = list(collector.networks) if collector.networks is not None else None
    state = (collector.internet, network_names, collector.at_offset)
    max_workers = min(workers, len(chunks))
    handles = _map_chunks(
        state, chunks, max_workers, _collect_chunk, obs=obs, section="snapshot_pool"
    )
    for handle in handles:
        _ingest(series, [transport.consume(handle, transport.unpack_day_chunk)])
    _record_transport(obs, "snapshot_pool", handles, metrics)
    return series


def sample_day_records(
    internet,
    network_names: Optional[Sequence[str]],
    days: Sequence[dt.date],
    *,
    at_offset: Optional[int],
    workers: int,
    obs=None,
) -> List[Tuple[object, str]]:
    """Derive full per-day record lists for ``days`` on a process pool.

    The fan-out behind :meth:`repro.scan.snapshot.SnapshotSeries.sample_records`:
    day-chunks derive concurrently and merge chronologically, so the
    flattened record stream is bit-identical to a serial
    ``records_on`` walk (derivation is deterministic per day).  The
    returned records are *not* deduplicated — the caller owns that, so
    serial and parallel paths share one dedup pass.
    """
    import ipaddress

    from repro.scan import transport

    if workers < 2:
        raise ValueError("sample_day_records needs at least 2 workers")
    chunks = [[day.toordinal() for day in chunk] for chunk in chunk_days(days, workers)]
    state = (internet, list(network_names) if network_names is not None else None, at_offset)
    max_workers = min(workers, len(chunks))
    handles = _map_chunks(
        state, chunks, max_workers, _records_chunk, obs=obs, section="sample_pool"
    )
    records: List[Tuple[object, str]] = []
    for handle in handles:
        for _, day_records in transport.consume(handle, transport.unpack_record_chunk):
            records.extend(
                (ipaddress.IPv4Address(value), hostname)
                for value, hostname in day_records
            )
    _record_transport(obs, "sample_pool", handles, None)
    return records


def _map_chunks(
    state: Tuple,
    chunks: Sequence[object],
    max_workers: int,
    task,
    *,
    obs=None,
    section: str,
) -> List[object]:
    """Run ``task`` over ``chunks`` on a pool, preserving chunk order.

    The one pool behind every fan-out (day chunks, leak samples,
    snapshot shards, campaign tasks, evaluation cells).  Where ``fork``
    is available workers inherit ``state`` through copy-on-write
    memory; elsewhere it is pickled once into the pool initializer.
    ``obs`` receives the pool shape under ``timings.execution``.
    """
    global _WORKER_STATE
    from repro.obs import resolve_obs

    use_fork = "fork" in multiprocessing.get_all_start_methods()
    resolve_obs(obs).record_execution(
        section,
        transport="fork" if use_fork else "spawn",
        chunks=len(chunks),
        pool_workers=max_workers,
    )

    if use_fork:
        # Fork workers inherit the world via copy-on-write: the pickle
        # round-trip the old implementation paid per run is gone.
        _WORKER_STATE = state
        try:
            with ProcessPoolExecutor(
                max_workers=max_workers,
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                return list(pool.map(task, chunks))
        finally:
            _WORKER_STATE = None

    try:
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ValueError(
            "parallel execution requires picklable worker state; "
            f"pickling failed: {exc!r}"
        ) from exc
    with ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_init_worker,
        initargs=(blob,),
    ) as pool:
        return list(pool.map(task, chunks))


def _record_transport(obs, section: str, handles, metrics) -> None:
    """Fold a pool's result-blob byte count into obs and metrics.

    These are run-shape numbers (a serial run moves zero bytes), so
    they live under ``timings.execution`` — never in the deterministic
    manifest sections.
    """
    from repro.obs import resolve_obs

    transport_bytes = sum(handle.size for handle in handles)
    resolve_obs(obs).record_execution(
        section, accumulate=True, transport_bytes=transport_bytes
    )
    if metrics is not None:
        metrics.transport_bytes += transport_bytes


def _ingest(series: "SnapshotSeries", chunk_results) -> None:
    # map() preserves chunk order, so ingestion stays chronological and
    # the merged series is identical to a serial pass.
    for chunk_result in chunk_results:
        for ordinal, counts, ptrs in chunk_result:
            series._ingest_day(dt.date.fromordinal(ordinal), counts, ptrs)
