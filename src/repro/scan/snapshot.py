"""Full-address-space rDNS snapshot collectors.

Models the two measurement platforms of Section 3: OpenINTEL collects
*daily* snapshots, Rapid7's Project Sonar *weekly* ones ("a single
weekday every week").  The paper consumes these as given datasets; the
collector therefore reads zone state in bulk rather than replaying
billions of PTR queries, while the reactive instrument
(:mod:`repro.scan.reactive`) exercises the full resolver path.

Collection windows are **half-open** ``[start, end)`` throughout:
``start`` is always collected (cadence permitting), ``end`` never is.

Multi-year windows are expensive to simulate serially, so
:meth:`SnapshotCollector.collect` can fan day-chunks out over a process
pool (``workers=N``, see :mod:`repro.scan.parallel`) and consult an
on-disk :class:`~repro.scan.cache.SnapshotCache` so repeated studies
pay for each simulation once.  Per-day derivation draws only from
``RngStreams.fresh(label, ..., day.toordinal())`` streams, which makes
results independent of evaluation order: parallel and cached
collection are bit-identical to serial.
"""

from __future__ import annotations

import datetime as dt
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.netsim.internet import Internet
from repro.netsim.network import Network
from repro.netsim.simtime import days_between
from repro.scan.storage import (
    COLUMNAR_PAYLOAD_VERSION,
    DATASET_FORMAT_VERSION,
    CountMatrix,
    PrefixTable,
    decode_count_columns,
    encode_count_columns,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.cache import SnapshotCache


@dataclass(frozen=True)
class SnapshotStats:
    """One row of the paper's Table 1."""

    name: str
    start_date: dt.date
    end_date: dt.date
    snapshots: int
    total_responses: int
    unique_ptrs: int


@dataclass
class CollectionMetrics:
    """Lightweight counters for one ``collect`` call.

    ``workers`` echoes the request; ``effective_workers`` is what
    actually ran after the never-slower fallback (see
    :func:`repro.scan.parallel.effective_workers`).
    ``simulate_seconds`` covers day derivation (or payload decoding on
    a cache hit); ``total_seconds`` the whole call including cache I/O.
    """

    workers: int = 1
    effective_workers: int = 1
    days: int = 0
    responses: int = 0
    cache_hit: bool = False
    cache_key: Optional[str] = None
    cache_stored: bool = False
    #: True when a legacy (pre-columnar) payload was decoded and the
    #: entry was transparently rewritten in the v3 format.
    cache_migrated: bool = False
    #: True when a cache store failed mid-write (its partial ``*.tmp``
    #: file was cleaned up — see ``_JsonFileCache.tmp_cleanups``); the
    #: collection itself still succeeded, only persistence was lost.
    cache_store_failed: bool = False
    #: Bytes of worker results that crossed the process boundary as
    #: packed columnar blobs instead of pickled dicts.  Zero for serial
    #: runs.  Run-shape detail, so it is reported under
    #: ``timings.execution``, never in the deterministic manifest
    #: sections.
    transport_bytes: int = 0
    simulate_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def days_per_second(self) -> float:
        return self.days / self.total_seconds if self.total_seconds > 0 else 0.0

    def describe(self) -> str:
        source = "cache" if self.cache_hit else f"{self.effective_workers} worker(s)"
        return (
            f"{self.days} snapshot day(s) via {source} in "
            f"{self.total_seconds:.2f}s ({self.days_per_second:.1f} days/s, "
            f"{self.responses:,} responses)"
        )


@dataclass
class SampleMetrics:
    """Counters for one :meth:`SnapshotSeries.sample_records` call."""

    workers: int = 1
    effective_workers: int = 1
    days: int = 0
    raw_records: int = 0
    unique_records: int = 0
    total_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.unique_records:,} unique of {self.raw_records:,} records "
            f"over {self.days} day(s) via {self.effective_workers} worker(s) "
            f"in {self.total_seconds:.2f}s"
        )


def derive_day(
    internet: Internet,
    network_names: Optional[Sequence[str]],
    day: dt.date,
    at_offset: Optional[int],
) -> Tuple[Dict[str, int], Set[str]]:
    """One day's (/24 counts, PTR hostnames) — the unit of collection.

    Shared by the serial path and the worker processes of
    :mod:`repro.scan.parallel`; determinism of this function is what
    guarantees parallel results are bit-identical to serial ones.
    """
    if network_names is None:
        networks: List[Network] = internet.networks
    else:
        networks = [internet.network(name) for name in network_names]
    counts: Dict[str, int] = {}
    ptrs: Set[str] = set()
    for network in networks:
        for key, count in network.counts_by_slash24(day, at_offset=at_offset).items():
            counts[key] = counts.get(key, 0) + count
        for _, hostname in network.records_on(day, at_offset=at_offset):
            ptrs.add(hostname)
    return counts, ptrs


class LazyPtrSet:
    """Unique PTR names backed by a blockfile's PTRS records.

    Installed by :meth:`SnapshotSeries.from_payload` for v4 cache
    pairs: ``len()`` answers from the record headers without decoding
    a single name (the warm-stats path), while any real set operation
    — iteration, membership, :meth:`update` — materialises the names
    from the sidecar first.
    """

    def __init__(self, reader):
        self._reader = reader
        self._names: Optional[Set[str]] = None

    def _materialise(self) -> Set[str]:
        if self._names is None:
            self._names = self._reader.unique_ptrs()
        return self._names

    def __len__(self) -> int:
        if self._names is None:
            return self._reader.unique_ptr_count
        return len(self._names)

    def __iter__(self):
        return iter(self._materialise())

    def __contains__(self, name) -> bool:
        return name in self._materialise()

    def add(self, name: str) -> None:
        self._materialise().add(name)

    def update(self, names) -> None:
        self._materialise().update(names)


class SnapshotSeries:
    """The output of one collector over one period.

    Per-day /24 counts are materialised eagerly (they feed the
    dynamicity heuristic) and held columnar — a shared
    :class:`~repro.scan.storage.PrefixTable` plus one dense count
    column per day (:class:`~repro.scan.storage.CountMatrix`); the
    dict-shaped accessors below are thin views over those columns.
    Full per-day record sets are re-derived on demand from the
    deterministic simulation, mirroring how one would re-read raw
    snapshot files from disk.
    """

    def __init__(
        self,
        name: str,
        internet: Internet,
        networks: Optional[Sequence[str]] = None,
        *,
        at_offset: Optional[int] = None,
        cadence_days: int = 1,
    ):
        if cadence_days < 1:
            raise ValueError("cadence_days must be at least 1")
        self.name = name
        self._internet = internet
        self._network_names = list(networks) if networks is not None else None
        self._at_offset = at_offset
        self._cadence_days = cadence_days
        self._days: List[dt.date] = []
        self._day_index: Dict[dt.date, int] = {}
        self._matrix = CountMatrix()
        self._total_responses = 0
        self._unique_ptrs: Set[str] = set()
        #: Counters from the most recent :meth:`sample_records` call.
        self.last_sample_metrics: Optional["SampleMetrics"] = None

    # -- collection (used by SnapshotCollector) ------------------------------

    def _networks(self) -> List[Network]:
        if self._network_names is None:
            return self._internet.networks
        return [self._internet.network(name) for name in self._network_names]

    def _collect_day(self, day: dt.date) -> None:
        counts, ptrs = derive_day(self._internet, self._network_names, day, self._at_offset)
        self._ingest_day(day, counts, ptrs)

    def _ingest_day(self, day: dt.date, counts: Dict[str, int], ptrs: Set[str]) -> None:
        """Append one derived day, enforcing order and cadence."""
        if self._days:
            gap = (day - self._days[-1]).days
            if gap <= 0:
                raise ValueError(f"{self.name}: day {day} is not after {self._days[-1]}")
            if gap != self._cadence_days:
                raise ValueError(
                    f"{self.name}: snapshot spacing {gap}d contradicts the "
                    f"declared cadence of {self._cadence_days}d"
                )
        self._day_index[day] = len(self._days)
        self._matrix.append_day(counts)
        self._total_responses += self._matrix.day_total(self._day_index[day])
        self._unique_ptrs.update(ptrs)
        self._days.append(day)

    # -- access ------------------------------------------------------------------

    @property
    def days(self) -> List[dt.date]:
        return list(self._days)

    @property
    def cadence_days(self) -> int:
        """The collector's declared cadence (1 = daily, 7 = weekly).

        Declared at construction and validated against the actual
        snapshot spacing as days are ingested — a single-snapshot
        weekly series still reports 7, where the old first-two-days
        inference silently returned 1.
        """
        return self._cadence_days

    def inferred_cadence_days(self) -> Optional[int]:
        """Spacing of the first two snapshots (consistency check only)."""
        if len(self._days) < 2:
            return None
        return (self._days[1] - self._days[0]).days

    def counts_by_slash24(self, day: dt.date) -> Dict[str, int]:
        """Day's /24 counts as a fresh dict (callers may mutate it)."""
        return self._matrix.day_counts(self._day_index[day])

    def counts_view(self, day: dt.date) -> Mapping[str, int]:
        """Day's /24 counts as a no-copy read-only mapping.

        The view is backed directly by the series' count column —
        analysis loops that only read (the dynamicity heuristic, the
        occupancy series) use this to skip the per-day dict copy that
        :meth:`counts_by_slash24` pays for mutability.
        """
        return self._matrix.day_view(self._day_index[day])

    def count_matrix(self) -> CountMatrix:
        """The interned columnar store itself (shared, treat as read-only).

        Columnar consumers — :class:`repro.core.dynamicity.DynamicityAnalyzer`
        walks count columns by prefix ID — take this instead of
        re-assembling ``{date: {prefix: count}}`` dicts.
        """
        return self._matrix

    def prefix_table(self) -> PrefixTable:
        """The series' interned prefix table (shared with the matrix)."""
        return self._matrix.prefixes

    def daily_totals(self) -> Dict[dt.date, int]:
        """Per-day response totals (accumulated at ingest, never re-summed)."""
        return dict(zip(self._days, self._matrix.totals))

    def records_on(self, day: dt.date) -> Iterator[Tuple[object, str]]:
        """Re-derive the full (address, hostname) set for a collected day."""
        if day not in self._day_index:
            raise KeyError(f"{self.name} holds no snapshot for {day}")
        for network in self._networks():
            yield from network.records_on(day, at_offset=self._at_offset)

    def sample_records(
        self,
        days: Optional[Sequence[dt.date]] = None,
        *,
        workers: int = 1,
        obs=None,
    ) -> List[Tuple[object, str]]:
        """One deduplicated (address, hostname) sample over ``days``.

        The shared derivation pass behind the leak funnel: every
        (network, day) record list is derived exactly once — reusing
        the per-network day caches — and records are deduplicated in
        first-seen order, so downstream consumers no longer re-walk
        ``records_on`` day by day.  ``workers > 1`` fans day-chunks
        over the same process pool as collection (capped by
        :func:`repro.scan.parallel.effective_workers`); the merged
        sample is bit-identical to the serial pass.  Counters land in
        :attr:`last_sample_metrics`, and when ``obs`` (an
        :class:`repro.obs.Observability` handle) is given the pass is
        traced as a ``snapshot.sample`` span with deterministic record
        counters.
        """
        from repro.obs import resolve_obs
        from repro.scan.parallel import effective_workers, sample_day_records

        obs = resolve_obs(obs)
        sample_days = list(days) if days is not None else list(self._days)
        for day in sample_days:
            if day not in self._day_index:
                raise KeyError(f"{self.name} holds no snapshot for {day}")
        started = time.perf_counter()
        metrics = SampleMetrics(workers=max(1, workers), days=len(sample_days))
        metrics.effective_workers = effective_workers(workers, len(sample_days))
        self.last_sample_metrics = metrics

        with obs.span("snapshot.sample", collector=self.name) as span:
            if metrics.effective_workers > 1:
                raw = sample_day_records(
                    self._internet,
                    self._network_names,
                    sample_days,
                    at_offset=self._at_offset,
                    workers=metrics.effective_workers,
                    obs=obs,
                )
            else:
                raw = (
                    record
                    for day in sample_days
                    for network in self._networks()
                    for record in network.records_on(day, at_offset=self._at_offset)
                )
            seen: Set[Tuple[object, str]] = set()
            records: List[Tuple[object, str]] = []
            for record in raw:
                if record not in seen:
                    seen.add(record)
                    records.append(record)
                metrics.raw_records += 1
            metrics.unique_records = len(records)
            span.set("days", metrics.days)
            span.set("raw_records", metrics.raw_records)
            span.set("unique_records", metrics.unique_records)
            obs.metrics.counter("snapshot_sample_records_total").inc(metrics.raw_records)
            obs.metrics.counter("snapshot_sample_unique_total").inc(metrics.unique_records)
        metrics.total_seconds = time.perf_counter() - started
        obs.record_execution(
            "snapshot_sample",
            workers=metrics.workers,
            effective_workers=metrics.effective_workers,
        )
        return records

    def stats(self) -> SnapshotStats:
        return SnapshotStats(
            name=self.name,
            start_date=self._days[0],
            end_date=self._days[-1],
            snapshots=len(self._days),
            total_responses=self._total_responses,
            unique_ptrs=len(self._unique_ptrs),
        )

    def __len__(self) -> int:
        return len(self._days)

    # -- cache serialisation -------------------------------------------------

    def to_payload(self) -> dict:
        """A JSON-serialisable snapshot of the collected state.

        The self-contained columnar document
        (:data:`~repro.scan.storage.COLUMNAR_PAYLOAD_VERSION`, v3): the
        interned prefix table is stored once and each day's counts are
        a delta-encoded varint column
        (:func:`~repro.scan.storage.encode_count_columns`), so a warm
        decode no longer re-parses ``O(days × prefixes)`` JSON dict
        keys.  This remains the wire/export format; the *cache* stores
        series as v4 blockfile pairs via
        :meth:`~repro.scan.cache.SnapshotCache.store_series` (see
        :meth:`to_cache_payload`).
        """
        return {
            "version": COLUMNAR_PAYLOAD_VERSION,
            "name": self.name,
            "networks": self._network_names,
            "at_offset": self._at_offset,
            "cadence_days": self._cadence_days,
            "days": [day.isoformat() for day in self._days],
            "prefixes": list(self._matrix.prefixes.values),
            "columns": encode_count_columns(self._matrix),
            "daily_totals": list(self._matrix.totals),
            "total_responses": self._total_responses,
            "unique_ptrs": sorted(self._unique_ptrs),
        }

    def blockfile_parts(self) -> Tuple[List[str], List[int], list, List[int]]:
        """``(prefixes, day_ordinals, columns, totals)`` for the blockfile.

        Columns are handed out as-is (heap arrays or zero-copy views),
        so re-encoding an mmap-backed series never materialises the
        matrix.
        """
        matrix = self._matrix
        return (
            list(matrix.prefixes.values),
            [day.toordinal() for day in self._days],
            [matrix.column(index) for index in range(matrix.day_count)],
            list(matrix.totals),
        )

    def sorted_unique_ptrs(self) -> List[str]:
        """The unique PTR names in sorted order (for the PTRS record)."""
        return sorted(self._unique_ptrs)

    def to_cache_payload(self, blockfile: str, sha256: str, nbytes: int) -> dict:
        """The v4 cache JSON document referencing a sidecar blockfile.

        The count data *and* the unique PTR names live in the ``.rbf``
        sidecar (:mod:`repro.scan.blockfile`); this document carries
        only the metadata plus the sidecar's name, size and SHA-256
        (checked by ``repro cache verify``).  ``unique_ptr_count`` is
        denormalised here so inspection tools can report it without
        touching the sidecar; decoders take it from the PTRS record
        headers instead.
        """
        return {
            "version": DATASET_FORMAT_VERSION,
            "name": self.name,
            "networks": self._network_names,
            "at_offset": self._at_offset,
            "cadence_days": self._cadence_days,
            "days": [day.isoformat() for day in self._days],
            "blockfile": blockfile,
            "blockfile_sha256": sha256,
            "blockfile_bytes": nbytes,
            "total_responses": self._total_responses,
            "unique_ptr_count": len(self._unique_ptrs),
        }

    @classmethod
    def from_payload(cls, payload: dict, internet: Internet) -> "SnapshotSeries":
        """Rebuild a series from :meth:`to_payload` output.

        ``internet`` must be the world the payload was derived from —
        ``records_on`` re-derives full record sets from it.  The cache
        layer guarantees this by keying entries on
        :meth:`~repro.netsim.internet.Internet.cache_token`.

        Payloads from earlier eras are migrated transparently: v2
        (``version`` absent or ``<= 2``, per-day ``{prefix: count}``
        JSON dicts) and v3 (inline varint columns) both decode here,
        and the collector additionally rewrites such cache entries as
        v4 blockfile pairs so later reads take the zero-copy path.  A
        v4 payload must carry ``blockfile_path`` (injected by
        :meth:`~repro.scan.cache.SnapshotCache.load`); its matrix is
        mmap-backed — count columns are views into the file.
        """
        series = cls(
            payload["name"],
            internet,
            payload["networks"],
            at_offset=payload["at_offset"],
            cadence_days=payload["cadence_days"],
        )
        series._days = [dt.date.fromisoformat(text) for text in payload["days"]]
        series._day_index = {day: index for index, day in enumerate(series._days)}
        if payload.get("version", 2) >= 4:
            from repro.scan.blockfile import BlockFileReader

            reader = BlockFileReader.open(payload["blockfile_path"])
            if reader.days != [day.toordinal() for day in series._days]:
                raise ValueError(
                    f"blockfile day ordinals disagree with the payload's "
                    f"{len(series._days)} declared days"
                )
            series._matrix = reader.count_matrix()
            series._unique_ptrs = LazyPtrSet(reader)
        elif payload.get("version", 2) >= 3:
            series._matrix = decode_count_columns(
                payload["prefixes"], payload["columns"], payload.get("daily_totals")
            )
        else:
            # v2 era: one JSON dict per day.  Interning in day order
            # reproduces the exact prefix table a fresh collection
            # builds, so a migrated entry re-encodes byte-identically.
            series._matrix = CountMatrix.from_day_dicts(
                {prefix: int(count) for prefix, count in payload["counts"][text].items()}
                for text in payload["days"]
            )
        if series._matrix.day_count != len(series._days):
            raise ValueError(
                f"payload carries {series._matrix.day_count} count columns "
                f"for {len(series._days)} days"
            )
        series._total_responses = int(payload["total_responses"])
        if "unique_ptrs" in payload:
            series._unique_ptrs = set(payload["unique_ptrs"])
        # else: v4 pair — the lazy sidecar-backed set installed above.
        return series


def legacy_dict_payload(series: "SnapshotSeries") -> dict:
    """Encode ``series`` in the pre-columnar (v2) payload format.

    Retained as the executable definition of the legacy schema: the
    migration round-trip tests and the warm-decode benchmark use it to
    produce authentic v2 payloads without keeping old cache files
    around.
    """
    return {
        "name": series.name,
        "networks": series._network_names,
        "at_offset": series._at_offset,
        "cadence_days": series._cadence_days,
        "days": [day.isoformat() for day in series._days],
        "counts": {
            day.isoformat(): series.counts_by_slash24(day) for day in series._days
        },
        "total_responses": series._total_responses,
        "unique_ptrs": sorted(series._unique_ptrs),
    }


class SnapshotCollector:
    """Collects a snapshot series at a fixed cadence."""

    #: Second-of-day at which the daily sweep samples PTR state.  A
    #: snapshot is a point-in-time measurement: an evening-only client
    #: whose one-hour lease expired by noon has no record to observe.
    DEFAULT_SNAPSHOT_OFFSET = 12 * 3600

    def __init__(
        self,
        internet: Internet,
        name: str,
        *,
        cadence_days: int = 1,
        networks: Optional[Sequence[str]] = None,
        at_offset: Optional[int] = DEFAULT_SNAPSHOT_OFFSET,
        obs=None,
    ):
        if cadence_days < 1:
            raise ValueError("cadence_days must be at least 1")
        self.internet = internet
        self.name = name
        self.cadence_days = cadence_days
        self.networks = networks
        self.at_offset = at_offset
        #: Optional :class:`repro.obs.Observability` handle; spans and
        #: counters are recorded there (no-op when ``None``).
        self.obs = obs
        #: Counters from the most recent :meth:`collect` call.
        self.last_metrics: Optional[CollectionMetrics] = None

    @classmethod
    def openintel_style(cls, internet: Internet, **kwargs) -> "SnapshotCollector":
        """Daily snapshots (OpenINTEL collects daily)."""
        return cls(internet, "OpenINTEL", cadence_days=1, **kwargs)

    @classmethod
    def rapid7_style(cls, internet: Internet, **kwargs) -> "SnapshotCollector":
        """Weekly snapshots (Rapid7 collects one weekday every week)."""
        return cls(internet, "Rapid7 Sonar", cadence_days=7, **kwargs)

    def snapshot_days(self, start: dt.date, end: dt.date) -> List[dt.date]:
        """The days a collection over ``[start, end)`` snapshots."""
        if end <= start:
            raise ValueError("end must be after start")
        return [
            day
            for index, day in enumerate(days_between(start, end))
            if index % self.cadence_days == 0
        ]

    def collect(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: int = 1,
        cache: Optional["SnapshotCache"] = None,
    ) -> SnapshotSeries:
        """Collect all snapshots in the half-open window ``[start, end)``.

        ``workers > 1`` fans day-chunks out over a process pool;
        ``cache`` consults and fills an on-disk
        :class:`~repro.scan.cache.SnapshotCache`.  Both produce results
        bit-identical to a serial, uncached run.  The pool is capped by
        :func:`repro.scan.parallel.effective_workers` so a ``workers``
        request can never run slower than serial (short windows and
        single-core hosts fall back); the cap actually used is recorded
        in :attr:`CollectionMetrics.effective_workers`.  Timing and
        cache counters land in :attr:`last_metrics`; when the collector
        carries an :class:`repro.obs.Observability` handle, the call is
        traced as a ``snapshot.collect`` span, deterministic counts
        land in the metrics registry and run-shape details (workers,
        cache traffic) under ``timings.execution``.
        """
        from repro.obs import resolve_obs

        obs = resolve_obs(self.obs)
        cache_baseline = cache.execution_snapshot() if cache is not None else None
        with obs.span("snapshot.collect", collector=self.name) as span:
            series = self._collect(start, end, workers=workers, cache=cache)
            metrics = self.last_metrics
            span.set("days", metrics.days)
            span.set("responses", metrics.responses)
            span.set("cadence_days", self.cadence_days)
            obs.metrics.counter("snapshot_days_total").inc(metrics.days)
            obs.metrics.counter("snapshot_responses_total").inc(metrics.responses)
        obs.record_execution(
            "snapshot",
            workers=metrics.workers,
            effective_workers=metrics.effective_workers,
            cache_hit=metrics.cache_hit,
            transport_bytes=metrics.transport_bytes,
        )
        if cache is not None:
            cache.export_metrics(obs, section="snapshot", baseline=cache_baseline)
        return series

    def _collect(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: int,
        cache: Optional["SnapshotCache"],
    ) -> SnapshotSeries:
        from repro.scan.parallel import effective_workers

        started = time.perf_counter()
        days = self.snapshot_days(start, end)
        metrics = CollectionMetrics(workers=max(1, workers), days=len(days))
        metrics.effective_workers = effective_workers(workers, len(days))
        self.last_metrics = metrics

        key: Optional[str] = None
        if cache is not None:
            key = cache.key_for(
                world_token=self.internet.cache_token(),
                name=self.name,
                networks=self.networks,
                start=start,
                end=end,
                cadence_days=self.cadence_days,
                at_offset=self.at_offset,
            )
            metrics.cache_key = key
            payload = cache.load(key)
            if payload is not None:
                simulate_started = time.perf_counter()
                series = SnapshotSeries.from_payload(payload, self.internet)
                metrics.cache_hit = True
                metrics.responses = series.stats().total_responses
                metrics.simulate_seconds = time.perf_counter() - simulate_started
                if payload.get("version", 2) < DATASET_FORMAT_VERSION:
                    # Transparent migration: rewrite the legacy entry
                    # as a v4 blockfile pair so the next warm read is
                    # mmap + frombuffer instead of varint/dict parsing.
                    # Best-effort — the decoded series is already good,
                    # so a failed rewrite only costs the fast path.
                    try:
                        cache.store_series(key, series)
                        metrics.cache_migrated = True
                    except (OSError, TypeError, ValueError):
                        metrics.cache_store_failed = True
                metrics.total_seconds = time.perf_counter() - started
                return series

        simulate_started = time.perf_counter()
        if metrics.effective_workers > 1:
            from repro.scan.parallel import collect_days

            series = collect_days(
                self,
                days,
                workers=metrics.effective_workers,
                obs=self.obs,
                metrics=metrics,
            )
        else:
            series = SnapshotSeries(
                self.name,
                self.internet,
                self.networks,
                at_offset=self.at_offset,
                cadence_days=self.cadence_days,
            )
            for day in days:
                series._collect_day(day)
        metrics.simulate_seconds = time.perf_counter() - simulate_started
        metrics.responses = series.stats().total_responses if days else 0

        if cache is not None and key is not None:
            # Best-effort: losing the cache write (full disk, bad
            # payload) must not lose the freshly collected series.
            try:
                cache.store_series(key, series)
                metrics.cache_stored = True
            except (OSError, TypeError, ValueError):
                metrics.cache_store_failed = True
        metrics.total_seconds = time.perf_counter() - started
        return series
