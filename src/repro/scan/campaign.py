"""The supplemental measurement campaign (Sections 6.1-6.2).

Ties together the fine-grained network runtimes, the ZMap-style
sweeper, the rDNS engine and the reactive monitor against the nine
selected networks, and packages the result as a
:class:`SupplementalDataset` — the input to the grouping and timing
analyses (Tables 3-5, Figures 6-8 and 11).

The campaign is embarrassingly parallel across networks: each of the
nine has its own :class:`~repro.netsim.finegrained.NetworkRuntime`,
sweeper state, authoritative server and observation streams, with no
cross-network coupling.  :func:`run_network_campaign` therefore runs
*one* network on its own :class:`~repro.netsim.engine.SimulationEngine`.
:class:`SupplementalCampaign` is the one engine over it: its source is
either a built :class:`~repro.netsim.internet.World` (one task per
network) or a :class:`~repro.netsim.worldplan.WorldPlan` (one task per
contiguous shard of networks, each built only in the process that runs
it).  Tasks run in-process or on the shared pool
(:func:`repro.scan.parallel._map_chunks`), and their per-network
streams merge with the same deterministic timestamp merge — so output
is bit-identical for any source, shard count or worker count.  A
completed dataset can also be persisted in a
:class:`~repro.scan.cache.CampaignCache`, making warm runs skip the
six-week simulation entirely.

Rate limiting is per authoritative server: every network's rDNS engine
gets its own token bucket, matching the paper's "rate-limit requests
to authoritative name servers" (each Table 4 network runs its own).
"""

from __future__ import annotations

import datetime as dt
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.dns.resolver import ResolutionStatus
from repro.netsim.engine import SimulationEngine
from repro.netsim.faults import FaultPlan, resolve_fault_plan
from repro.netsim.finegrained import build_runtimes
from repro.netsim.internet import World
from repro.netsim.network import NetworkType
from repro.netsim.simtime import DAY, HOUR, date_of, from_date
from repro.netsim.worldplan import PlanError, WorldPlan, contiguous_blocks, shard_world
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.scan.icmp import IcmpScanner
from repro.scan.observations import IcmpObservation, RdnsObservation
from repro.scan.ratelimit import TokenBucket
from repro.scan.rdns import RdnsLookupEngine
from repro.scan.reactive import TABLE2_SCHEDULE, BackoffSchedule, ReactiveMonitor
from repro.scan.storage import DATASET_FORMAT_VERSION, IcmpColumns, RdnsColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.cache import CampaignCache

#: Campaign payload versions this reader accepts.  The canonical
#: :data:`~repro.scan.storage.DATASET_FORMAT_VERSION` moved to
#: ``scan/storage.py`` when v3 made *snapshot* payloads columnar; the
#: campaign schema is unchanged across v2–v4 (the v4 blockfile bump is
#: snapshot-only too), so older entries stay valid hits rather than
#: forcing a cold re-simulation.
COMPATIBLE_DATASET_VERSIONS = (2, 3, DATASET_FORMAT_VERSION)

#: The paper's nine selected networks, in Table 4 order.
SUPPLEMENTAL_NETWORKS = [
    "Academic-A",
    "Academic-B",
    "Academic-C",
    "Enterprise-A",
    "Enterprise-B",
    "Enterprise-C",
    "ISP-A",
    "ISP-B",
    "ISP-C",
]


@dataclass
class CampaignMetrics:
    """Lightweight counters for one :meth:`SupplementalCampaign.run` call.

    ``workers`` echoes the request; ``effective_workers`` is what
    actually ran after the never-slower fallback (serial when the host
    has no spare cores or too few networks).  ``simulate_seconds``
    covers simulation (or payload decoding on a cache hit);
    ``total_seconds`` the whole call including cache I/O.
    """

    workers: int = 1
    effective_workers: int = 1
    networks: int = 0
    icmp_observations: int = 0
    rdns_observations: int = 0
    sweeps_run: int = 0
    events_run: int = 0
    cache_hit: bool = False
    cache_key: Optional[str] = None
    cache_stored: bool = False
    #: Bytes of worker results that crossed the process boundary as
    #: packed columnar blobs instead of pickled column objects; zero on
    #: serial (and cache-hit) runs.  Reported under
    #: ``timings.execution`` only — run-shape, not science.
    transport_bytes: int = 0
    simulate_seconds: float = 0.0
    total_seconds: float = 0.0
    per_network_seconds: Dict[str, float] = field(default_factory=dict)
    #: Name of the active fault plan (``None`` = clean run).
    fault_profile: Optional[str] = None
    #: Summed instrument counters (probes sent/lost, retries, rDNS
    #: attempts/timeouts, clock-skew clamps) across all networks.
    fault_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def observations(self) -> int:
        return self.icmp_observations + self.rdns_observations

    def describe(self) -> str:
        source = "cache" if self.cache_hit else f"{self.effective_workers} worker(s)"
        return (
            f"{self.networks} network(s) via {source} in "
            f"{self.total_seconds:.2f}s ({self.icmp_observations:,} ICMP + "
            f"{self.rdns_observations:,} rDNS observations, "
            f"{self.events_run:,} events)"
        )


@dataclass
class SupplementalDataset:
    """Everything the supplemental campaign measured.

    ``start``/``end`` echo the half-open ``[start, end)`` window the
    campaign ran over: ``end`` itself was *not* measured (same
    convention as :meth:`repro.scan.snapshot.SnapshotCollector.collect`).

    ``icmp``/``rdns`` are sequence-of-observation views backed by the
    columnar stores of :mod:`repro.scan.storage` when produced by a
    campaign run (plain lists are also accepted, e.g. when rebuilding
    from CSV): iterate or index them exactly like lists.
    """

    start: dt.date
    end: dt.date
    icmp: Sequence[IcmpObservation]
    rdns: Sequence[RdnsObservation]
    targets_by_network: Dict[str, List[str]]
    network_types: Dict[str, NetworkType]
    target_sizes: Dict[str, int] = field(default_factory=dict)

    # -- Table 3 ---------------------------------------------------------------

    def icmp_stats(self) -> Tuple[int, int]:
        """(total responses, unique addresses) for the ICMP instrument."""
        return len(self.icmp), len({obs.address for obs in self.icmp})

    def rdns_stats(self) -> Tuple[int, int, int]:
        """(total responses, unique addresses, unique PTRs) for rDNS."""
        unique_addresses = {obs.address for obs in self.rdns}
        unique_ptrs = {obs.hostname for obs in self.rdns if obs.ok}
        return len(self.rdns), len(unique_addresses), len(unique_ptrs)

    # -- Table 4 ---------------------------------------------------------------

    def responsive_addresses(self, network: str) -> int:
        return len({obs.address for obs in self.icmp if obs.network == network})

    def table4_rows(self) -> List[Tuple[str, str, str, int, float]]:
        """(network, type, targeted space, addresses observed, percent)."""
        rows = []
        for name in self.targets_by_network:
            observed = self.responsive_addresses(name)
            size = self.target_sizes.get(name, 0)
            percent = 100.0 * observed / size if size else 0.0
            rows.append(
                (
                    name,
                    self.network_types[name].value,
                    ", ".join(self.targets_by_network[name]),
                    observed,
                    percent,
                )
            )
        return rows

    # -- Figure 6 ----------------------------------------------------------------

    def rdns_outcomes_by_day(self) -> Dict[dt.date, Counter]:
        """Per-day counts of each resolution status."""
        by_day: Dict[dt.date, Counter] = defaultdict(Counter)
        for observation in self.rdns:
            by_day[date_of(observation.at)][observation.status] += 1
        return dict(by_day)

    def error_rows(self) -> List[Tuple[dt.date, int, int, int, int]]:
        """(day, total, nxdomain, servfail, timeout) rows, day-ordered.

        NXDOMAIN is counted separately because in this measurement it
        is "a bit more nuanced" than an error: it is often the removal
        signal itself (Section 6.2).
        """
        rows = []
        for day, counts in sorted(self.rdns_outcomes_by_day().items()):
            rows.append(
                (
                    day,
                    sum(counts.values()),
                    counts.get(ResolutionStatus.NXDOMAIN, 0),
                    counts.get(ResolutionStatus.SERVFAIL, 0),
                    counts.get(ResolutionStatus.TIMEOUT, 0),
                )
            )
        return rows

    def error_class_rows(
        self,
    ) -> List[Tuple[dt.date, int, int, int, int, int, int]]:
        """(day, total, noerror, nxdomain, servfail, timeout, refused).

        The full Figure-6 error-class breakdown, one row per measured
        day.  Unlike :meth:`error_rows` (whose 5-tuple shape predates
        fault injection and is kept stable for existing consumers),
        this includes successful lookups and the REFUSED class, so
        the columns sum to the total.
        """
        rows = []
        for day, counts in sorted(self.rdns_outcomes_by_day().items()):
            rows.append(
                (
                    day,
                    sum(counts.values()),
                    counts.get(ResolutionStatus.NOERROR, 0),
                    counts.get(ResolutionStatus.NXDOMAIN, 0),
                    counts.get(ResolutionStatus.SERVFAIL, 0),
                    counts.get(ResolutionStatus.TIMEOUT, 0),
                    counts.get(ResolutionStatus.REFUSED, 0),
                )
            )
        return rows

    # -- cache serialisation -------------------------------------------------

    def to_payload(self) -> dict:
        """A JSON-serialisable snapshot of the whole dataset."""
        icmp = self.icmp if isinstance(self.icmp, IcmpColumns) else _as_icmp_columns(self.icmp)
        rdns = self.rdns if isinstance(self.rdns, RdnsColumns) else _as_rdns_columns(self.rdns)
        return {
            "version": DATASET_FORMAT_VERSION,
            "start": self.start.isoformat(),
            "end": self.end.isoformat(),
            "icmp": icmp.to_payload(),
            "rdns": rdns.to_payload(),
            "targets_by_network": self.targets_by_network,
            "network_types": {
                name: net_type.value for name, net_type in self.network_types.items()
            },
            "target_sizes": self.target_sizes,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SupplementalDataset":
        """Rebuild a dataset from :meth:`to_payload` output."""
        return cls(
            start=dt.date.fromisoformat(payload["start"]),
            end=dt.date.fromisoformat(payload["end"]),
            icmp=IcmpColumns.from_payload(payload["icmp"]),
            rdns=RdnsColumns.from_payload(payload["rdns"]),
            targets_by_network={
                name: list(prefixes)
                for name, prefixes in payload["targets_by_network"].items()
            },
            network_types={
                name: NetworkType(value)
                for name, value in payload["network_types"].items()
            },
            target_sizes={name: int(size) for name, size in payload["target_sizes"].items()},
        )


def _as_icmp_columns(observations: Iterable[IcmpObservation]) -> IcmpColumns:
    columns = IcmpColumns()
    columns.extend(observations)
    return columns


def _as_rdns_columns(observations: Iterable[RdnsObservation]) -> RdnsColumns:
    columns = RdnsColumns()
    columns.extend(observations)
    return columns


@dataclass
class NetworkCampaignResult:
    """One network's share of the campaign (picklable worker output)."""

    network: str
    icmp: IcmpColumns
    rdns: RdnsColumns
    sweeps_run: int
    events_run: int
    seconds: float
    #: Instrument counters (probe/lookup/retry/loss totals); empty on
    #: clean runs for backwards-compatible equality.
    counters: Dict[str, int] = field(default_factory=dict)
    #: This network's :meth:`repro.obs.metrics.MetricsRegistry.snapshot`
    #: — deterministic, picklable, merged across networks in campaign
    #: order so serial and parallel runs publish identical totals.
    metrics: Dict = field(default_factory=dict)
    #: The targeted prefixes, network type and targeted address count,
    #: read in the process that ran the network, so the coordinator
    #: never needs the network built to assemble the dataset.
    targets: List[str] = field(default_factory=list)
    net_type: Optional[NetworkType] = None
    target_size: int = 0


def run_network_campaign(
    world: World,
    name: str,
    start: dt.date,
    end: dt.date,
    *,
    schedule: BackoffSchedule = TABLE2_SCHEDULE,
    sweep_interval: int = HOUR,
    rdns_rate: float = 50.0,
    blocklist: Iterable = (),
    fault_plan: Optional[FaultPlan] = None,
) -> NetworkCampaignResult:
    """Measure one network over the half-open ``[start, end)`` window.

    The unit of campaign parallelism: everything here — engine, runtime,
    sweeper, resolver, rate-limit bucket — is private to the network, so
    the result is a deterministic function of (world, name, window,
    parameters) regardless of which process runs it or in what order.
    A ``fault_plan`` keeps that property: every loss/outage draw is a
    stateless keyed hash, so faults are identical under any execution
    order or process split.
    """
    started = time.perf_counter()
    last_day = end - dt.timedelta(days=1)
    engine = SimulationEngine(start=from_date(start))
    network = world.supplemental[name]
    # Baseline for delta accounting: in a serial campaign successive
    # networks share one world (and its authoritative server), so the
    # absolute counters mix networks; the delta is this run's share and
    # matches what a fresh forked worker would count.
    server_baseline = network.server.metrics_snapshot()
    runtimes = build_runtimes([network], engine, fault_plan=fault_plan)
    runtimes[name].start(start, last_day)

    if fault_plan is not None:
        scanner = IcmpScanner(
            runtimes, blocklist=blocklist, retries=fault_plan.icmp_retry_budget
        )
        resolver = world.internet.resolver(
            retries=fault_plan.rdns_retry_budget,
            backoff_base=fault_plan.rdns_backoff_base,
            fault_plan=fault_plan,
        )
    else:
        scanner = IcmpScanner(runtimes, blocklist=blocklist)
        resolver = world.internet.resolver()
    rdns = RdnsLookupEngine(
        resolver,
        rate_limit=TokenBucket(rdns_rate, rdns_rate * 10),
    )
    end_ts = from_date(last_day) + DAY - 1
    monitor = ReactiveMonitor(
        engine,
        scanner,
        rdns,
        schedule=schedule,
        sweep_interval=sweep_interval,
    )
    # Columnar stores are drop-in append targets for the monitor.
    monitor.icmp_observations = IcmpColumns()
    monitor.rdns_observations = RdnsColumns()
    subnets = world.supplemental_targets(name)
    targets = [str(subnet.prefix) for subnet in subnets]
    monitor.start({name: targets}, end=end_ts)
    engine.run_until(end_ts)
    counters: Dict[str, int] = {}
    if fault_plan is not None:
        counters = {
            "probes_sent": scanner.probes_sent,
            "probes_suppressed": scanner.probes_suppressed,
            "echoes_lost": scanner.echoes_lost,
            "icmp_retries": scanner.retries_sent,
            "lookups": rdns.lookups_performed,
            "rdns_attempts": rdns.attempts_made,
            "rdns_timeouts": rdns.timeouts_seen,
            "clock_skew_events": (
                rdns.rate_limit.clock_skew_events if rdns.rate_limit else 0
            ),
        }
    registry = MetricsRegistry()
    scanner.export_metrics(registry)
    rdns.export_metrics(registry)
    monitor.export_metrics(registry)
    engine.export_metrics(registry)
    runtimes[name].export_metrics(registry)
    network.server.export_metrics(registry, snapshot=server_baseline)
    return NetworkCampaignResult(
        network=name,
        icmp=monitor.icmp_observations,
        rdns=monitor.rdns_observations,
        sweeps_run=monitor.sweeps_run,
        events_run=engine.events_run,
        seconds=time.perf_counter() - started,
        counters=counters,
        metrics=registry.snapshot(),
        targets=targets,
        net_type=network.net_type,
        target_size=sum(subnet.prefix.num_addresses for subnet in subnets),
    )


#: Sentinel distinguishing "fault_plan not given" (consult the
#: ``REPRO_FAULT_PROFILE`` environment variable) from an explicit
#: ``fault_plan=None`` (force a clean run).
_FAULTS_FROM_ENV = object()


def _run_task(
    source: Union[World, Dict[str, Any]],
    names: Sequence[str],
    start: dt.date,
    end: dt.date,
    params: Dict[str, Any],
) -> List[NetworkCampaignResult]:
    """Run one task's networks against a world or a plan payload.

    A plan payload is built into (or fetched from) this process's
    memoised shard world holding exactly ``names``.
    """
    world = source if isinstance(source, World) else shard_world(source, names)
    return [run_network_campaign(world, name, start, end, **params) for name in names]


def _pooled_task(names: Sequence[str]):
    """One campaign task inside a pool worker.

    The heavy observation columns travel back as one packed blob
    (:func:`repro.scan.transport.pack_campaign_batch`); only the
    lightweight result shells ride the pickle as objects.
    """
    import repro.scan.parallel as parallel
    from repro.scan import transport

    assert parallel._WORKER_STATE is not None, "worker state missing"
    source, start_ordinal, end_ordinal, params = parallel._WORKER_STATE
    results = _run_task(
        source,
        names,
        dt.date.fromordinal(start_ordinal),
        dt.date.fromordinal(end_ordinal),
        params,
    )
    handle = transport.publish(
        transport.pack_campaign_batch((result.icmp, result.rdns) for result in results)
    )
    return [replace(result, icmp=None, rdns=None) for result in results], handle


class SupplementalCampaign:
    """Runs the supplemental measurement over a built world or a plan.

    ``source`` is a :class:`~repro.netsim.internet.World` or a
    :class:`~repro.netsim.worldplan.WorldPlan`.  A world gives one task
    per network; a plan gives one task per contiguous block of
    ``shards`` (``shards`` is ignored for a world), and whichever
    process runs a task builds only that block's networks — so a plan
    campaign never holds the whole world in one process.  Results merge
    in campaign order either way, so every source, shard count and
    worker count gives byte-identical datasets.
    """

    def __init__(
        self,
        source: Union[World, WorldPlan],
        *,
        shards: int = 1,
        networks: Optional[Iterable[str]] = None,
        schedule: BackoffSchedule = TABLE2_SCHEDULE,
        sweep_interval: int = HOUR,
        rdns_rate: float = 50.0,
        blocklist: Iterable = (),
        fault_plan=_FAULTS_FROM_ENV,
        obs=None,
    ):
        if shards < 1:
            raise PlanError(f"shard count must be >= 1, got {shards}")
        if isinstance(source, WorldPlan):
            self.plan: Optional[WorldPlan] = source.validate()
            self.world: Optional[World] = None
            available = source.supplemental_names
            seed = source.seed
        else:
            self.plan = None
            self.world = source
            # For the standard world, the Table 4 nine, in order.
            available = list(source.supplemental)
            seed = source.rngs.seed
        self.shards = shards
        #: Optional :class:`repro.obs.Observability` handle; spans,
        #: deterministic counters and run-shape details are recorded
        #: there (no-op when ``None``).
        self.obs = obs
        known = set(available)
        candidates = list(networks) if networks is not None else available
        self.network_names = [name for name in candidates if name in known]
        self.schedule = schedule
        self.sweep_interval = sweep_interval
        self.rdns_rate = rdns_rate
        self.blocklist = list(blocklist)
        if fault_plan is _FAULTS_FROM_ENV:
            fault_plan = resolve_fault_plan(None, seed=seed)
        self.fault_plan: Optional[FaultPlan] = fault_plan
        #: Counters from the most recent :meth:`run` call.
        self.last_metrics: Optional[CampaignMetrics] = None

    @property
    def world_token(self) -> str:
        """The world identity in cache keys and run manifests.

        A plan answers from its fingerprint before any network is
        built; a world from its :meth:`~repro.netsim.internet.Internet.cache_token`.
        """
        if self.plan is not None:
            return f"plan:{self.plan.fingerprint()}"
        return self.world.internet.cache_token()

    def cache_key(self, cache: "CampaignCache", start: dt.date, end: dt.date) -> str:
        """The cache key one ``run(start, end)`` would use.

        The fault plan token is folded in only when a plan is active,
        so clean runs keep exactly the keys they had before fault
        injection existed (cached datasets stay valid).  A plan key
        adds the plan's policy token and leaves the shard count out,
        so runs at any shard width share one entry.
        """
        return cache.key_for(
            world_token=self.world_token,
            networks=self.network_names,
            start=start,
            end=end,
            schedule_steps=self.schedule.steps,
            schedule_tail=self.schedule.tail_interval,
            sweep_interval=self.sweep_interval,
            rdns_rate=self.rdns_rate,
            blocklist=[str(entry) for entry in self.blocklist],
            fault_token=(
                self.fault_plan.cache_token() if self.fault_plan is not None else None
            ),
            policy_token=self.plan.policy_token() if self.plan is not None else None,
        )

    def run(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: int = 1,
        cache: Optional["CampaignCache"] = None,
    ) -> SupplementalDataset:
        """Simulate and measure the half-open period ``[start, end)``.

        The last measured day is ``end - 1 day``; ``end`` itself is
        excluded, matching
        :meth:`repro.scan.snapshot.SnapshotCollector.collect` (the two
        entry points historically disagreed: collection was half-open
        while the campaign was inclusive, so "the same window" covered
        different days depending on the instrument).

        ``workers > 1`` fans tasks out over the shared process pool;
        ``cache`` consults and fills an on-disk
        :class:`~repro.scan.cache.CampaignCache`.  Both are
        bit-identical to the serial, uncached run.  Timing and cache
        counters land in :attr:`last_metrics`.

        When the campaign carries an observability handle, the run is
        traced as a ``campaign.run`` span with one ``campaign.network``
        child per network, the merged per-network counters land in the
        metrics registry (replayed from the cached payload on a hit, so
        warm manifests match cold ones), and run-shape details
        (workers, cache traffic) are recorded under
        ``timings.execution``.
        """
        from repro.obs import resolve_obs

        obs = resolve_obs(self.obs)
        cache_baseline = cache.execution_snapshot() if cache is not None else None
        with obs.span("campaign.run") as span:
            dataset = self._run(start, end, workers=workers, cache=cache, obs=obs)
            metrics = self.last_metrics
            span.set("networks", metrics.networks)
            span.set("icmp_observations", metrics.icmp_observations)
            span.set("rdns_observations", metrics.rdns_observations)
            # One child span per network regardless of cache outcome:
            # the structure is deterministic, only the wall seconds
            # (zero on a replay) land in the timings section.
            for name in self.network_names:
                obs.tracer.add_span(
                    "campaign.network",
                    labels={"network": name},
                    seconds=metrics.per_network_seconds.get(name, 0.0),
                )
        obs.record_execution(
            "campaign",
            workers=metrics.workers,
            effective_workers=metrics.effective_workers,
            cache_hit=metrics.cache_hit,
            cache_stored=metrics.cache_stored,
            transport_bytes=metrics.transport_bytes,
        )
        if cache is not None:
            cache.export_metrics(obs, section="campaign", baseline=cache_baseline)
        return dataset

    def _run(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: int,
        cache: Optional["CampaignCache"],
        obs,
    ) -> SupplementalDataset:
        if end <= start:
            raise ValueError("end must be after start (half-open [start, end) window)")
        if self.plan is not None and not self.network_names:
            raise PlanError("plan has no supplemental networks to measure")
        started = time.perf_counter()
        metrics = CampaignMetrics(
            workers=max(1, workers), networks=len(self.network_names)
        )
        if self.fault_plan is not None:
            metrics.fault_profile = self.fault_plan.name
        self.last_metrics = metrics

        key: Optional[str] = None
        if cache is not None:
            key = self.cache_key(cache, start, end)
            metrics.cache_key = key
            payload = cache.load(key)
            if payload is not None and payload.get("version") in COMPATIBLE_DATASET_VERSIONS:
                decode_started = time.perf_counter()
                dataset = SupplementalDataset.from_payload(payload)
                obs.metrics.merge_snapshot(payload.get("metrics") or {})
                metrics.cache_hit = True
                metrics.icmp_observations = len(dataset.icmp)
                metrics.rdns_observations = len(dataset.rdns)
                metrics.simulate_seconds = time.perf_counter() - decode_started
                metrics.total_seconds = time.perf_counter() - started
                return dataset

        simulate_started = time.perf_counter()
        results = self._execute(start, end, workers, metrics, obs)
        dataset = SupplementalDataset(
            start=start,
            end=end,
            icmp=IcmpColumns.merged([result.icmp for result in results]),
            rdns=RdnsColumns.merged([result.rdns for result in results]),
            targets_by_network={result.network: result.targets for result in results},
            network_types={result.network: result.net_type for result in results},
            target_sizes={result.network: result.target_size for result in results},
        )
        # Per-network registries merge in fixed campaign order, so the
        # totals are identical whether networks ran serial or fanned
        # out (and, via the cached copy below, on later replays).
        merged_metrics = merge_snapshots(result.metrics for result in results)
        obs.metrics.merge_snapshot(merged_metrics)
        metrics.simulate_seconds = time.perf_counter() - simulate_started
        metrics.icmp_observations = len(dataset.icmp)
        metrics.rdns_observations = len(dataset.rdns)
        metrics.sweeps_run = sum(result.sweeps_run for result in results)
        metrics.events_run = sum(result.events_run for result in results)
        metrics.per_network_seconds = {
            result.network: result.seconds for result in results
        }
        for result in results:
            for counter, value in result.counters.items():
                metrics.fault_counters[counter] = (
                    metrics.fault_counters.get(counter, 0) + value
                )

        if cache is not None and key is not None:
            payload = dataset.to_payload()
            payload["metrics"] = merged_metrics
            cache.store(key, payload)
            metrics.cache_stored = True
        metrics.total_seconds = time.perf_counter() - started
        return dataset

    # -- execution -------------------------------------------------------------

    def _tasks(self) -> List[List[str]]:
        """The work units: one per network, or one per plan shard.

        Plan shards follow the *network list* (already in plan order),
        not the full entry list — a shard whose entries carry no
        supplemental networks contributes no task.
        """
        if self.plan is None:
            return [[name] for name in self.network_names]
        return contiguous_blocks(self.network_names, self.shards)

    def _execute(
        self,
        start: dt.date,
        end: dt.date,
        workers: int,
        metrics: CampaignMetrics,
        obs,
    ) -> List[NetworkCampaignResult]:
        """Run every task, in-process or on the pool, in campaign order."""
        from repro.scan import transport
        from repro.scan.parallel import (
            _map_chunks,
            _record_transport,
            effective_campaign_workers,
        )

        tasks = self._tasks()
        effective = effective_campaign_workers(workers, len(tasks))
        metrics.effective_workers = effective
        source = self.world if self.plan is None else self.plan.to_payload()
        params = dict(
            schedule=self.schedule,
            sweep_interval=self.sweep_interval,
            rdns_rate=self.rdns_rate,
            blocklist=self.blocklist,
            fault_plan=self.fault_plan,
        )
        if effective < 2:
            return [
                result
                for names in tasks
                for result in _run_task(source, names, start, end, params)
            ]
        state = (source, start.toordinal(), end.toordinal(), params)
        shells = _map_chunks(
            state, tasks, effective, _pooled_task, obs=obs, section="campaign_pool"
        )
        results: List[NetworkCampaignResult] = []
        for task_results, handle in shells:
            columns = transport.consume(handle, transport.unpack_campaign_batch)
            results.extend(
                replace(result, icmp=icmp, rdns=rdns)
                for result, (icmp, rdns) in zip(task_results, columns)
            )
        _record_transport(
            obs, "campaign_pool", [handle for _, handle in shells], metrics
        )
        return results
