"""Sharded snapshot collection over a :class:`~repro.netsim.worldplan.WorldPlan`.

:class:`~repro.scan.snapshot.SnapshotCollector` holds the entire
simulated Internet in one process, which caps the address space a study
can cover.  :class:`ShardedCollector` never builds the full world at
all: a plan is partitioned into contiguous shards, **worker processes
build only their shard's networks** (sound because every network is a
pure function of the plan entry and the seed — see
:meth:`~repro.netsim.worldplan.WorldPlan.build`), and the coordinating
process merges shard outputs in shard-id order.  Because shards are
contiguous runs of the plan and per-/24 keys are disjoint across
networks, that merge reproduces the exact iteration order of a
single-process run — the result is **bit-identical** for any shard
count, worker count, or cache temperature (pinned by
``tests/scan/test_sharded.py``).  The campaign side of a plan runs
through :class:`~repro.scan.campaign.SupplementalCampaign` with
``shards=k``.

Pool shape: shard × day-chunk work units flatten into **one**
budget-sized pool (no nested pools — see
:class:`~repro.scan.parallel.WorkerBudget`), so a machine with W cores
runs W workers total regardless of how shards and chunks multiply.
Workers memoise the shard worlds they build (a handful at a time, see
:func:`~repro.netsim.worldplan.shard_world`), so a worker that receives
several chunks of the same shard pays the build once.

Caching is **plan-level**: keys derive from
:meth:`WorldPlan.fingerprint` — agreed on *before* any world is built —
and deliberately exclude the shard count, so a warm cache written by a
4-shard run hits for a 1-shard run and vice versa (the payloads are
identical bytes).
"""

from __future__ import annotations

import datetime as dt
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.netsim.worldplan import LazyPlanInternet, PlanError, WorldPlan, shard_world
from repro.scan.parallel import WorkerBudget, chunk_days, worker_cap
from repro.scan.snapshot import (
    CollectionMetrics,
    SnapshotCollector,
    SnapshotSeries,
    derive_day,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.cache import SnapshotCache


# -- snapshot collection ----------------------------------------------------


def _collect_shard_chunk(task):
    """Derive one shard's day-chunk inside a worker process.

    ``task`` is ``(shard_id, names, ordinals)``; the worker state (set
    by :func:`repro.scan.parallel._map_chunks`) carries the plan
    payload and snapshot offset.  Returns ``(shard_id, handle)`` — the
    day results travel as one packed columnar blob
    (:func:`repro.scan.transport.pack_day_chunk`), not pickled dicts.
    """
    import repro.scan.parallel as parallel
    from repro.scan import transport

    assert parallel._WORKER_STATE is not None, "worker state missing"
    plan_payload, at_offset = parallel._WORKER_STATE
    shard_id, names, ordinals = task
    world = shard_world(plan_payload, names)
    results = []
    for ordinal in ordinals:
        day = dt.date.fromordinal(ordinal)
        counts, ptrs = derive_day(world.internet, None, day, at_offset)
        results.append((ordinal, counts, ptrs))
    return shard_id, transport.publish(transport.pack_day_chunk(results))


class ShardedCollector:
    """Snapshot collection over a plan, fanned out shard by shard.

    Drop-in sibling of :class:`~repro.scan.snapshot.SnapshotCollector`:
    same cadence semantics, same half-open windows, same payloads — a
    ``shards=k`` collection is byte-identical to ``shards=1`` and to a
    plain collector run over the fully built plan world.
    """

    DEFAULT_SNAPSHOT_OFFSET = SnapshotCollector.DEFAULT_SNAPSHOT_OFFSET

    def __init__(
        self,
        plan: WorldPlan,
        name: str = "OpenINTEL",
        *,
        shards: int = 1,
        cadence_days: int = 1,
        at_offset: Optional[int] = DEFAULT_SNAPSHOT_OFFSET,
        fault_token: Optional[str] = None,
        obs=None,
    ):
        if shards < 1:
            raise PlanError(f"shard count must be >= 1, got {shards}")
        if cadence_days < 1:
            raise ValueError("cadence_days must be at least 1")
        self.plan = plan.validate()
        self.name = name
        self.shards = shards
        self.cadence_days = cadence_days
        self.at_offset = at_offset
        #: Key salt only — snapshot *content* never depends on faults
        #: (they model resolver-path failures, not zone state), but the
        #: evaluation matrix passes its cell's fault token so no two
        #: cells can share a cache entry.
        self.fault_token = fault_token
        self.obs = obs
        #: Counters from the most recent :meth:`collect` call.
        self.last_metrics: Optional[CollectionMetrics] = None

    def snapshot_days(self, start: dt.date, end: dt.date) -> List[dt.date]:
        if end <= start:
            raise ValueError("end must be after start")
        return [
            start + dt.timedelta(days=offset)
            for offset in range(0, (end - start).days, self.cadence_days)
        ]

    def _cache_key(self, cache: "SnapshotCache", start: dt.date, end: dt.date) -> str:
        """Plan-level key: no world build, no shard count.

        Fingerprint-keyed so every process holding the plan JSON agrees
        on it up front, and shard-count-free so runs at different shard
        widths share one entry (their payloads are identical bytes).
        """
        return cache.key_for(
            world_token=f"plan:{self.plan.fingerprint()}",
            name=self.name,
            networks=None,
            start=start,
            end=end,
            cadence_days=self.cadence_days,
            at_offset=self.at_offset,
            policy_token=self.plan.policy_token(),
            fault_token=self.fault_token,
        )

    def collect(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: Optional[int] = None,
        cache: Optional["SnapshotCache"] = None,
    ) -> SnapshotSeries:
        """Collect ``[start, end)`` across shards and merge in shard order."""
        from repro.obs import resolve_obs
        from repro.scan.parallel import _map_chunks, _record_transport

        obs = resolve_obs(self.obs)
        started = time.perf_counter()
        days = self.snapshot_days(start, end)
        budget = WorkerBudget(workers if workers is not None else worker_cap())
        metrics = CollectionMetrics(workers=budget.total, days=len(days))
        self.last_metrics = metrics

        key: Optional[str] = None
        if cache is not None:
            key = self._cache_key(cache, start, end)
            metrics.cache_key = key
            payload = cache.load(key)
            if payload is not None:
                decode_started = time.perf_counter()
                series = SnapshotSeries.from_payload(payload, LazyPlanInternet(self.plan))
                metrics.cache_hit = True
                metrics.responses = series.stats().total_responses
                metrics.simulate_seconds = time.perf_counter() - decode_started
                metrics.total_seconds = time.perf_counter() - started
                return series

        blocks = self.plan.shard_names(self.shards)
        simulate_started = time.perf_counter()
        plan_payload = self.plan.to_payload()
        # Flatten shard × day-chunk into one task list for a single
        # budget-sized pool: ~2 chunks per worker overall, split evenly
        # across shards.
        per_shard_workers = max(1, budget.total // len(blocks))
        chunks = chunk_days(days, per_shard_workers)
        tasks = [
            (shard_id, tuple(names), tuple(day.toordinal() for day in chunk))
            for shard_id, names in enumerate(blocks)
            for chunk in chunks
        ]
        pool_workers = min(budget.total, len(tasks))
        metrics.effective_workers = pool_workers if pool_workers >= 2 else 1
        obs.record_execution(
            "sharded_snapshot",
            shards=len(blocks),
            tasks=len(tasks),
            pool_workers=metrics.effective_workers,
        )

        derived: Dict[Tuple[int, int], Tuple[Dict[str, int], Set[str]]] = {}
        if metrics.effective_workers > 1:
            from repro.scan import transport

            state = (plan_payload, self.at_offset)
            shard_results = _map_chunks(
                state,
                tasks,
                pool_workers,
                _collect_shard_chunk,
                obs=self.obs,
                section="shard_pool",
            )
            for shard_id, handle in shard_results:
                chunk_result = transport.consume(handle, transport.unpack_day_chunk)
                for ordinal, counts, ptrs in chunk_result:
                    derived[(shard_id, ordinal)] = (counts, ptrs)
            _record_transport(
                obs, "shard_pool", [handle for _, handle in shard_results], metrics
            )
        else:
            # Serial path: one shard world in memory at a time.
            for shard_id, names in enumerate(blocks):
                world = self.plan.build(names)
                for day in days:
                    derived[(shard_id, day.toordinal())] = derive_day(
                        world.internet, None, day, self.at_offset
                    )

        series = SnapshotSeries(
            self.name,
            LazyPlanInternet(self.plan),
            None,
            at_offset=self.at_offset,
            cadence_days=self.cadence_days,
        )
        for day in days:
            merged: Dict[str, int] = {}
            ptrs: Set[str] = set()
            for shard_id in range(len(blocks)):
                shard_counts, shard_ptrs = derived[(shard_id, day.toordinal())]
                # Per-/24 keys are disjoint across networks (prefixes
                # never overlap), so updating in shard order reproduces
                # the exact insertion order of a full-world derivation.
                merged.update(shard_counts)
                ptrs.update(shard_ptrs)
            series._ingest_day(day, merged, ptrs)
        metrics.simulate_seconds = time.perf_counter() - simulate_started
        metrics.responses = series.stats().total_responses if days else 0

        if cache is not None and key is not None:
            try:
                cache.store_series(key, series)
                metrics.cache_stored = True
            except (OSError, TypeError, ValueError):
                metrics.cache_store_failed = True
        metrics.total_seconds = time.perf_counter() - started
        return series
