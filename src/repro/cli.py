"""Command-line interface.

``rdns-privacy`` exposes the reproduction's main workflows:

* ``study``    — run the snapshot-based pipeline (Sections 4-5): the
  dynamicity heuristic, leak identification and the type breakdown;
* ``campaign`` — run the supplemental measurement (Section 6) and
  print Tables 3-5, optionally writing raw observations to CSV;
* ``track``    — follow a given name's devices (Section 7.1);
* ``heist``    — recommend the quietest hour (Section 7.3);
* ``audit``    — grade each network's rDNS exposure (Section 8);
* ``evaluate`` — the countermeasure evaluation matrix (Section 8):
  sweep IPAM policies × world plans × fault profiles, rank privacy
  exposure against operational utility, and optionally write the
  machine-readable ``eval_matrix.json``;
* ``snapshot`` — dump one day's PTR records, OpenINTEL-style;
* ``cache``    — inspect/verify/migrate the on-disk caches: report
  entry format versions, checksum v4 blockfile sidecars, and rewrite
  pre-v4 snapshot entries as blockfile pairs in place;
* ``serve``    — the long-running leak-analysis query service
  (:mod:`repro.serve`): per-prefix dynamicity, leak verdicts, name
  counts and occupancy over HTTP, with ``POST /ingest/day`` folding
  new snapshot days in incrementally.

(``supplemental`` is an alias for ``campaign``, matching the paper's
name for the measurement.)

Every command takes ``--seed`` so results are reproducible.  The
global ``--metrics-out PATH`` writes a run manifest (deterministic
metrics + spans, wall-clock under ``timings``) after the command;
``--trace`` prints the span tree.  ``REPRO_METRICS_OUT`` is the
environment equivalent of ``--metrics-out``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import pathlib
import sys
from typing import List, Optional

from repro.core import DeviceTracker, HeistPlanner, audit_by_network
from repro.core.pipeline import ReproductionStudy, StudyConfig
from repro.eval import (
    MatrixSpec,
    default_worlds,
    render_ranked_report,
    run_matrix,
    write_matrix_json,
)
from repro.ipam.policy import POLICY_NAMES
from repro.netsim.faults import FAULT_PROFILES, resolve_fault_plan
from repro.netsim.internet import WorldScale, build_world
from repro.netsim.spec import build_world_from_file
from repro.netsim.worldplan import WorldPlan, synthetic_plan
from repro.netsim.network import NetworkType
from repro.netsim.personas import BRIAN_HOSTNAME_LABELS
from repro.obs import NULL_OBS, Observability, metrics_out_path
from repro.reporting import TextTable
from repro.scan import (
    CampaignCache,
    SnapshotCache,
    SupplementalCampaign,
    write_icmp_csv,
    write_rdns_csv,
)


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid date {text!r} (want YYYY-MM-DD)") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer (got {value})")
    return value


def _is_cadence_error(error: ValueError) -> bool:
    """Does this ValueError describe irregular snapshot spacing?

    Matches both `_infer_cadence`'s mixed-spacing complaint and the
    ingest-time cadence contract violations raised by
    ``SnapshotSeries`` / ``IncrementalDynamicityAnalyzer``.
    """
    text = str(error)
    return "mixed snapshot spacing" in text or "contradicts the declared cadence" in text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdns-privacy",
        description="Reproduction toolkit for 'Saving Brian's Privacy' (IMC 2022).",
    )
    parser.add_argument("--seed", type=int, default=42, help="world seed (default 42)")
    parser.add_argument(
        "--quick", action="store_true", help="use the small test-scale world and short windows"
    )
    parser.add_argument(
        "--spec", help="build the world from a JSON spec file instead of the built-in one"
    )
    parser.add_argument(
        "--plan",
        metavar="PATH",
        default=None,
        help=(
            "build the world from a WorldPlan JSON file (see the 'plan' "
            "command); enables the sharded collection/campaign engines"
        ),
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=(
            "partition a --plan world into N contiguous shards; workers build "
            "only their shard's networks and results merge byte-identically "
            "(default 1)"
        ),
    )
    parser.add_argument(
        "--max-workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "machine-wide ceiling for every process pool (shard, day-chunk "
            "and campaign levels share one budget); equivalent to setting "
            "REPRO_MAX_WORKERS"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "process-pool workers for snapshot collection and the supplemental "
            "campaign (default 1 = serial; capped so it can never run slower)"
        ),
    )
    parser.add_argument(
        "--snapshot-cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "enable the on-disk snapshot cache; optional DIR overrides the "
            "default root (~/.cache/repro-rdns/snapshots, or $REPRO_SNAPSHOT_CACHE)"
        ),
    )
    parser.add_argument(
        "--clear-snapshot-cache",
        action="store_true",
        help="drop every cached snapshot series, then continue",
    )
    parser.add_argument(
        "--campaign-cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "enable the on-disk campaign cache; optional DIR overrides the "
            "default root (~/.cache/repro-rdns/campaigns, or $REPRO_CAMPAIGN_CACHE)"
        ),
    )
    parser.add_argument(
        "--clear-campaign-cache",
        action="store_true",
        help="drop every cached campaign dataset, then continue",
    )
    parser.add_argument(
        "--timings", action="store_true", help="print collection timing and cache counters"
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "write a JSON run manifest (metrics, spans, run info; wall-clock "
            "only under its 'timings' section) after the command; the "
            "REPRO_METRICS_OUT environment variable is the fallback"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the per-stage span tree (wall seconds per stage) after the command",
    )
    parser.add_argument(
        "--fault-profile",
        choices=FAULT_PROFILES,
        default=None,
        help=(
            "inject deterministic measurement-plane faults (packet loss, DNS "
            "timeouts/SERVFAILs, outages) into the supplemental campaign; "
            "default none (the REPRO_FAULT_PROFILE environment variable is "
            "consulted when the flag is absent, and an explicit 'none' "
            "overrides it)"
        ),
    )
    # Not required at the argparse level: --clear-snapshot-cache or
    # --clear-campaign-cache may be the whole invocation.  main()
    # rejects a missing command otherwise.
    commands = parser.add_subparsers(dest="command", required=False)

    # All --start/--end windows are half-open: --end itself is not measured.
    study = commands.add_parser(
        "study", help="dynamicity + leak identification (Sections 4-5)"
    )
    study.add_argument(
        "--leak-sample-days",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "how many trailing collected days feed the leak matcher "
            "(default: the StudyConfig value, 7); the sample is derived "
            "in one shared pass, fanned over --workers"
        ),
    )

    def _add_campaign_args(campaign) -> None:
        campaign.add_argument("--start", type=_parse_date, default=dt.date(2021, 11, 1))
        campaign.add_argument(
            "--end", type=_parse_date, default=dt.date(2021, 11, 8), help="exclusive end date"
        )
        campaign.add_argument(
            "--networks", nargs="*", default=None, help="subset of Table-4 networks"
        )
        campaign.add_argument("--icmp-csv", help="write raw ICMP observations here")
        campaign.add_argument("--rdns-csv", help="write raw rDNS observations here")
        campaign.add_argument("--save-dir", help="persist the whole dataset to this directory")
        campaign.add_argument(
            "--error-report",
            action="store_true",
            help=(
                "print the per-day rDNS error-class breakdown (Figure 6); "
                "printed automatically when a fault profile is active"
            ),
        )

    _add_campaign_args(
        commands.add_parser("campaign", help="supplemental measurement (Section 6)")
    )
    _add_campaign_args(
        commands.add_parser("supplemental", help="alias for 'campaign' (the paper's name)")
    )

    track = commands.add_parser("track", help="follow a given name's devices (Section 7.1)")
    track.add_argument("name", help="given name to follow, e.g. brian")
    track.add_argument("--network", default="Academic-A")
    track.add_argument("--start", type=_parse_date, default=dt.date(2021, 11, 1))
    track.add_argument(
        "--end", type=_parse_date, default=dt.date(2021, 11, 15), help="exclusive end date"
    )

    heist = commands.add_parser("heist", help="find the quietest hour (Section 7.3)")
    heist.add_argument("--network", default="Academic-A")
    heist.add_argument("--start", type=_parse_date, default=dt.date(2021, 11, 1))
    heist.add_argument(
        "--end", type=_parse_date, default=dt.date(2021, 11, 8), help="exclusive end date"
    )
    heist.add_argument("--source", choices=("rdns", "icmp"), default="rdns")

    audit = commands.add_parser(
        "audit", help="score each network's rDNS exposure (Section 8 mitigation aid)"
    )
    audit.add_argument("--start", type=_parse_date, default=dt.date(2021, 11, 1))
    audit.add_argument(
        "--end", type=_parse_date, default=dt.date(2021, 11, 4), help="exclusive end date"
    )
    audit.add_argument("--networks", nargs="*", default=None)

    snapshot = commands.add_parser("snapshot", help="dump one day's PTR records")
    snapshot.add_argument("--date", type=_parse_date, default=dt.date(2021, 3, 1))
    snapshot.add_argument("--network", default=None, help="restrict to one network")
    snapshot.add_argument("--limit", type=int, default=50)

    serve = commands.add_parser(
        "serve", help="run the leak-analysis query service (HTTP, Ctrl-C to stop)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8400, help="bind port (default 8400)")
    serve.add_argument(
        "--leak-sample-days",
        type=_positive_int,
        default=None,
        metavar="N",
        help="trailing collected days feeding /leaks and /names (default 7)",
    )
    serve.add_argument(
        "--blockfile",
        metavar="PATH",
        default=None,
        help=(
            "back the snapshot store with an mmap-ed blockfile at PATH: "
            "written once at boot, served zero-copy, and POST /ingest/day "
            "appends a segment instead of rewriting (default: in-memory)"
        ),
    )

    evaluate = commands.add_parser(
        "evaluate",
        help=(
            "countermeasure evaluation matrix: sweep IPAM policies × worlds × "
            "fault profiles, rank privacy exposure vs operational utility "
            "(Section 8)"
        ),
    )
    evaluate.add_argument(
        "--policies",
        nargs="+",
        choices=POLICY_NAMES,
        default=list(POLICY_NAMES),
        metavar="POLICY",
        help=f"policy axis (default: all of {', '.join(POLICY_NAMES)})",
    )
    evaluate.add_argument(
        "--worlds",
        nargs="+",
        default=None,
        metavar="LABEL",
        help=(
            "world axis labels (default: the stock 'campus' and 'multi16' "
            "worlds; with --plan, the single world 'plan')"
        ),
    )
    evaluate.add_argument(
        "--fault-profiles",
        nargs="+",
        choices=FAULT_PROFILES,
        default=["none"],
        metavar="PROFILE",
        help="fault-profile axis (default: none only)",
    )
    evaluate.add_argument(
        "--slash16s",
        type=_positive_int,
        default=4,
        help="width of the stock multi16 world (default 4 /16s)",
    )
    evaluate.add_argument(
        "--people",
        type=_positive_int,
        default=12,
        help="population per multi16 network (default 12)",
    )
    evaluate.add_argument(
        "--leak-sample-days",
        type=_positive_int,
        default=None,
        metavar="N",
        help="trailing collected days feeding the given-name matcher (default 7)",
    )
    evaluate.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the machine-readable eval_matrix.json here",
    )
    evaluate.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="also write the ranked report (exactly as printed) to this file",
    )

    cache = commands.add_parser(
        "cache", help="inspect, verify or migrate on-disk cache entries"
    )
    cache.add_argument(
        "action",
        choices=("inspect", "verify", "migrate"),
        help=(
            "inspect: list entries with their payload format versions; "
            "verify: checksum every v4 blockfile sidecar (full body CRC + "
            "SHA-256) and exit non-zero on damage; migrate: rewrite pre-v4 "
            "snapshot entries as v4 blockfile pairs in place"
        ),
    )

    plan = commands.add_parser(
        "plan", help="generate a synthetic multi-/16 WorldPlan JSON for sharded runs"
    )
    plan.add_argument("--out", required=True, metavar="PATH", help="write the plan JSON here")
    plan.add_argument(
        "--slash16s",
        type=_positive_int,
        default=4,
        help="how many /16 networks the plan spans (each is 256 /24s; default 4)",
    )
    plan.add_argument(
        "--people", type=_positive_int, default=12, help="population per network (default 12)"
    )
    plan.add_argument(
        "--zone-layout",
        choices=("flat", "delegated"),
        default="delegated",
        help="reverse-zone layout for every network (default delegated per-/24 children)",
    )
    plan.add_argument(
        "--supplemental-every",
        type=int,
        default=2,
        help="every Nth academic network joins the supplemental campaign (0 = none)",
    )

    return parser


def _plan(args) -> Optional[WorldPlan]:
    if getattr(args, "plan", None):
        return WorldPlan.load(args.plan)
    return None


def _world(args):
    plan = _plan(args)
    if plan is not None:
        return plan.build()
    if getattr(args, "spec", None):
        return build_world_from_file(args.spec)
    scale = WorldScale.small() if args.quick else None
    return build_world(seed=args.seed, scale=scale)


def _snapshot_cache(args) -> Optional[SnapshotCache]:
    if args.snapshot_cache is None:
        return None
    return SnapshotCache(args.snapshot_cache or None)


def _campaign_cache(args) -> Optional[CampaignCache]:
    if args.campaign_cache is None:
        return None
    return CampaignCache(args.campaign_cache or None)


def _fault_plan(args):
    """The fault plan for this invocation (flag, then environment)."""
    return resolve_fault_plan(args.fault_profile, seed=args.seed)


def _obs(args) -> Observability:
    """The observability handle ``main`` attached (no-op otherwise)."""
    return getattr(args, "obs", None) or NULL_OBS


def _print_error_report(dataset, out) -> None:
    table = TextTable(
        ["Day", "Total", "NOERROR", "NXDOMAIN", "SERVFAIL", "TIMEOUT", "REFUSED"],
        aligns=["<", ">", ">", ">", ">", ">", ">"],
    )
    for day, total, noerror, nxdomain, servfail, timeout, refused in dataset.error_class_rows():
        table.add_row([day.isoformat(), total, noerror, nxdomain, servfail, timeout, refused])
    print("\nrDNS error classes by day (Figure 6):", file=out)
    print(table.render(), file=out)


def _print_campaign_timings(campaign, out) -> None:
    metrics = campaign.last_metrics
    if metrics is None:
        return
    print(f"[timings] supplemental campaign: {metrics.describe()}", file=out)
    if metrics.cache_key is not None:
        outcome = "hit" if metrics.cache_hit else (
            "miss, stored" if metrics.cache_stored else "miss"
        )
        print(f"[timings] campaign cache {outcome} (key {metrics.cache_key[:12]}…)", file=out)


def _study_config(args) -> StudyConfig:
    """One StudyConfig from the shared flags (study and serve)."""
    config = StudyConfig.quick(args.seed) if args.quick else StudyConfig(seed=args.seed)
    config.plan = _plan(args)
    config.shards = args.shards
    config.max_workers = args.max_workers
    config.snapshot_workers = args.workers
    config.snapshot_cache = _snapshot_cache(args)
    config.campaign_workers = args.workers
    config.campaign_cache = _campaign_cache(args)
    config.fault_plan = _fault_plan(args)
    if getattr(args, "leak_sample_days", None) is not None:
        config.leak_sample_days = args.leak_sample_days
    if getattr(args, "blockfile", None) is not None:
        config.serve_blockfile = args.blockfile
    return config


def cmd_study(args, out) -> int:
    config = _study_config(args)
    study = ReproductionStudy(config, obs=_obs(args))
    try:
        report = study.dynamicity()
    except ValueError as error:
        if not _is_cadence_error(error):
            raise
        print(f"error: irregular snapshot series — {error}", file=sys.stderr)
        return 2
    print(
        f"Dynamicity ({config.dynamicity_start} .. {config.dynamicity_end}): "
        f"{report.dynamic_count} of {report.total_observed} observed /24s are dynamic",
        file=out,
    )
    leaks = study.leaks()
    print(f"\nIdentified identity-leaking networks: {len(leaks.identified)}", file=out)
    table = TextTable(["Suffix", "Records", "Unique names", "Ratio"], aligns=["<", ">", ">", ">"])
    for suffix in leaks.identified:
        stats = leaks.stats_for(suffix)
        table.add_row([suffix, stats.records, stats.unique_name_count, round(stats.ratio, 2)])
    print(table.render(), file=out)
    breakdown = study.type_breakdown()
    print("\nType breakdown (Figure 4):", file=out)
    for net_type in NetworkType:
        print(f"  {net_type.value:<12s} {breakdown[net_type]:5.1f}%", file=out)
    if args.timings and study.collection_metrics is not None:
        metrics = study.collection_metrics
        print(f"\n[timings] snapshot collection: {metrics.describe()}", file=out)
        if metrics.cache_key is not None:
            outcome = "hit" if metrics.cache_hit else (
                "miss, stored" if metrics.cache_stored else "miss"
            )
            if metrics.cache_migrated:
                outcome += ", payload migrated to columnar"
            print(f"[timings] snapshot cache {outcome} (key {metrics.cache_key[:12]}…)", file=out)
        sample = study.daily_series().last_sample_metrics
        if sample is not None:
            print(f"[timings] leak sample: {sample.describe()}", file=out)
    return 0


def cmd_campaign(args, out) -> int:
    obs = _obs(args)
    plan = _fault_plan(args)
    world_plan = _plan(args)
    # A plan runs shard by shard: no full world build in this process.
    campaign = SupplementalCampaign(
        world_plan if world_plan is not None else _world(args),
        shards=args.shards,
        networks=args.networks,
        fault_plan=plan,
        obs=obs,
    )
    obs.set_run_info(
        world_fingerprint=campaign.world_token,
        fault_profile=plan.name if plan is not None else None,
    )
    try:
        dataset = campaign.run(
            args.start, args.end, workers=args.workers, cache=_campaign_cache(args)
        )
    except ValueError as error:
        if not _is_cadence_error(error):
            raise
        print(f"error: irregular snapshot series — {error}", file=sys.stderr)
        return 2
    icmp_total, icmp_unique = dataset.icmp_stats()
    rdns_total, rdns_unique, rdns_ptrs = dataset.rdns_stats()
    print(
        f"Campaign {args.start}..{args.end}: {icmp_total:,} ICMP responses "
        f"({icmp_unique} addresses); {rdns_total:,} rDNS lookups "
        f"({rdns_unique} addresses, {rdns_ptrs} unique PTRs)",
        file=out,
    )
    table = TextTable(["Network", "Type", "Observed", "Percent"], aligns=["<", "<", ">", ">"])
    for name, net_type, _, observed, percent in dataset.table4_rows():
        table.add_row([name, net_type, observed, round(percent, 1)])
    print(table.render(), file=out)
    if plan is not None or args.error_report:
        _print_error_report(dataset, out)
    if plan is not None:
        metrics = campaign.last_metrics
        counters = metrics.fault_counters if metrics is not None else {}
        print(
            f"\nFault profile '{plan.name}' active: "
            f"{counters.get('echoes_lost', 0):,} echoes lost "
            f"({counters.get('icmp_retries', 0):,} ICMP retries), "
            f"{counters.get('rdns_timeouts', 0):,} rDNS timeouts over "
            f"{counters.get('rdns_attempts', 0):,} attempts",
            file=out,
        )
    if args.icmp_csv:
        rows = write_icmp_csv(args.icmp_csv, dataset.icmp)
        print(f"wrote {rows:,} ICMP rows to {args.icmp_csv}", file=out)
    if args.rdns_csv:
        rows = write_rdns_csv(args.rdns_csv, dataset.rdns)
        print(f"wrote {rows:,} rDNS rows to {args.rdns_csv}", file=out)
    if args.save_dir:
        from repro.scan.persistence import save_dataset

        path = save_dataset(dataset, args.save_dir)
        print(f"saved dataset to {path}", file=out)
    if args.timings:
        _print_campaign_timings(campaign, out)
    return 0


def cmd_track(args, out) -> int:
    world = _world(args)
    plan = _fault_plan(args)
    campaign = SupplementalCampaign(
        world, networks=[args.network], fault_plan=plan, obs=_obs(args)
    )
    dataset = campaign.run(args.start, args.end)
    tracker = DeviceTracker(dataset.rdns)
    days = (args.end - args.start).days
    labels = BRIAN_HOSTNAME_LABELS if args.name.lower() == "brian" and args.network == "Academic-A" else None
    matrix = tracker.presence_matrix(
        args.name,
        args.start,
        days,
        network=args.network,
        labels=labels,
        mark_unknown=plan is not None,
    )
    if not any(any(row) for row in matrix.values()):
        print(f"no devices matching {args.name!r} observed on {args.network}", file=out)
        return 1
    print(f"Devices containing {args.name!r} on {args.network}, {args.start}..{args.end}:", file=out)
    for label in sorted(matrix):
        cells = "".join(
            "#" if seen else ("?" if seen is None else ".") for seen in matrix[label]
        )
        print(f"  {label:24s} {cells}", file=out)
    if plan is not None and any(None in row for row in matrix.values()):
        print("  ('?' = not seen on a day with failed lookups: coverage gap, not absence)", file=out)
    return 0


def cmd_heist(args, out) -> int:
    world = _world(args)
    fault_plan = _fault_plan(args)
    campaign = SupplementalCampaign(
        world, networks=[args.network], fault_plan=fault_plan, obs=_obs(args)
    )
    dataset = campaign.run(args.start, args.end)
    planner = HeistPlanner(dataset, args.network)
    plan = planner.plan(source=args.source, weekdays_only=True)
    print(f"Quietest weekday hour on {args.network}: {plan.hour_of_day:02d}:00 "
          f"(avg {plan.average_activity:.1f} active clients, by {args.source})", file=out)
    peak = max(plan.activity_by_hour.values()) or 1.0
    for hour in range(24):
        value = plan.activity_by_hour.get(hour, 0.0)
        bar = "#" * int(round(24 * value / peak))
        print(f"  {hour:02d}:00 {value:7.1f} {bar}", file=out)
    if fault_plan is not None:
        print(
            f"  (fault profile '{fault_plan.name}' active: each hourly average "
            f"rests on >= {plan.min_samples()} measured hours)",
            file=out,
        )
    return 0


def cmd_snapshot(args, out) -> int:
    world = _world(args)
    if args.network is not None:
        records = world.internet.network(args.network).records_on(args.date, at_offset=12 * 3600)
    else:
        records = world.internet.records_on(args.date, at_offset=12 * 3600)
    shown = 0
    for address, hostname in records:
        print(f"{address}\t{hostname}", file=out)
        shown += 1
        if shown >= args.limit:
            print(f"... (truncated at {args.limit} records; raise --limit)", file=out)
            break
    if shown == 0:
        print("(no records)", file=out)
    return 0


def cmd_audit(args, out) -> int:
    world = _world(args)
    campaign = SupplementalCampaign(
        world, networks=args.networks, fault_plan=_fault_plan(args), obs=_obs(args)
    )
    dataset = campaign.run(args.start, args.end)
    reports = audit_by_network(dataset.rdns)
    table = TextTable(
        ["Network", "Grade", "Identity", "Dynamics", "Trackability", "Records"],
        aligns=["<", "^", ">", ">", ">", ">"],
    )
    for network, report in reports.items():
        table.add_row(
            [
                network,
                report.grade(),
                round(report.identity_score, 2),
                round(report.dynamics_score, 2),
                round(report.trackability_score, 2),
                report.records_observed,
            ]
        )
    print(table.render(), file=out)
    worst = max(reports.values(), key=lambda r: r.overall, default=None)
    if worst is not None and worst.named_hostnames:
        print("\nSample identity-carrying hostnames:", file=out)
        for hostname in worst.named_hostnames[:5]:
            print(f"  {hostname}", file=out)
    return 0


def _read_cache_entry(cache, key: str):
    """One entry's raw JSON document, or ``None`` if unreadable.

    Reads the file directly rather than via ``cache.load`` so a broken
    entry is *reported*, never silently repaired out from under the
    user mid-inspection.
    """
    import json

    try:
        with cache.path_for(key).open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def cmd_cache(args, out) -> int:
    import hashlib

    from repro.scan.blockfile import BlockFileError, BlockFileReader
    from repro.scan.snapshot import SnapshotSeries
    from repro.scan.storage import DATASET_FORMAT_VERSION

    cache = _snapshot_cache(args) or SnapshotCache()
    keys = cache.entries()

    if args.action == "inspect":
        print(f"snapshot cache {cache.root}: {len(keys)} entry(ies)", file=out)
        if keys:
            table = TextTable(
                ["Key", "Version", "Days", "Blockfile", "Bytes"],
                aligns=["<", ">", ">", "<", ">"],
            )
            for key in keys:
                payload = _read_cache_entry(cache, key)
                if payload is None:
                    table.add_row([key[:12] + "…", "corrupt", "-", "-", "-"])
                    continue
                version = payload.get("version", 2)
                table.add_row(
                    [
                        key[:12] + "…",
                        version,
                        len(payload.get("days", ())),
                        payload.get("blockfile", "-") if version >= 4 else "-",
                        payload.get("blockfile_bytes", "-") if version >= 4 else "-",
                    ]
                )
            print(table.render(), file=out)
        campaign = _campaign_cache(args) or CampaignCache()
        campaign_keys = campaign.entries()
        print(
            f"campaign cache {campaign.root}: {len(campaign_keys)} entry(ies)",
            file=out,
        )
        if campaign_keys:
            table = TextTable(["Key", "Version", "Networks"], aligns=["<", ">", ">"])
            for key in campaign_keys:
                payload = _read_cache_entry(campaign, key)
                if payload is None:
                    table.add_row([key[:12] + "…", "corrupt", "-"])
                    continue
                table.add_row(
                    [
                        key[:12] + "…",
                        payload.get("version", 2),
                        len(payload.get("targets_by_network", ())),
                    ]
                )
            print(table.render(), file=out)
        return 0

    if args.action == "verify":
        failures = 0
        for key in keys:
            payload = _read_cache_entry(cache, key)
            if payload is None:
                print(f"  {key[:12]}… ERROR: unreadable JSON document", file=out)
                failures += 1
                continue
            version = payload.get("version", 2)
            if version < 4:
                print(f"  {key[:12]}… v{version} OK (inline payload, no sidecar)", file=out)
                continue
            path = cache.root / payload.get("blockfile", f"{key}.rbf")
            try:
                blob = path.read_bytes()
            except OSError as error:
                print(f"  {key[:12]}… ERROR: missing sidecar ({error})", file=out)
                failures += 1
                continue
            digest = hashlib.sha256(blob).hexdigest()
            expected = payload.get("blockfile_sha256")
            if expected is not None and digest != expected:
                print(f"  {key[:12]}… ERROR: sidecar SHA-256 mismatch", file=out)
                failures += 1
                continue
            try:
                with BlockFileReader.open(path) as reader:
                    reader.verify()
                    day_count = len(reader.days)
            except BlockFileError as error:
                print(f"  {key[:12]}… ERROR: {error}", file=out)
                failures += 1
                continue
            print(
                f"  {key[:12]}… v{version} OK "
                f"({day_count} day(s), {len(blob):,} bytes, CRCs + SHA-256 good)",
                file=out,
            )
        print(
            f"verified {len(keys)} entry(ies) in {cache.root}: "
            f"{failures} failure(s)",
            file=out,
        )
        return 1 if failures else 0

    # migrate: rewrite pre-v4 entries as blockfile pairs, in place.
    migrated = current = failed = 0
    for key in keys:
        payload = cache.load(key)
        if payload is None:
            print(f"  {key[:12]}… corrupt entry repaired (removed)", file=out)
            failed += 1
            continue
        version = payload.get("version", 2)
        if version >= DATASET_FORMAT_VERSION:
            current += 1
            continue
        try:
            # Decoding never touches the world, so no internet handle
            # is needed for an offline rewrite.
            series = SnapshotSeries.from_payload(payload, None)
            cache.store_series(key, series)
        except (OSError, KeyError, TypeError, ValueError) as error:
            print(f"  {key[:12]}… ERROR: {type(error).__name__}: {error}", file=out)
            failed += 1
            continue
        migrated += 1
        print(f"  {key[:12]}… v{version} -> v{DATASET_FORMAT_VERSION}", file=out)
    print(
        f"migrated {migrated} entry(ies) in {cache.root} "
        f"({current} already v{DATASET_FORMAT_VERSION}, {failed} failure(s))",
        file=out,
    )
    return 1 if failed else 0


def cmd_plan(args, out) -> int:
    plan = synthetic_plan(
        args.seed,
        slash16s=args.slash16s,
        people=args.people,
        zone_layout=args.zone_layout,
        supplemental_every=args.supplemental_every,
    )
    plan.save(args.out)
    print(
        f"wrote plan {plan.fingerprint()[:12]}… to {args.out}: "
        f"{len(plan.entries)} networks ({args.slash16s * 256:,} /24s of "
        f"address space), {len(plan.supplemental_names)} supplemental",
        file=out,
    )
    return 0


def cmd_serve(args, out) -> int:
    from repro.serve import build_app, run_app

    config = _study_config(args)
    # build_app derives the world from config (seed + scale) itself;
    # only a --spec world needs to be built here and handed over.
    world = build_world_from_file(args.spec) if args.spec else None
    obs = _obs(args)
    print(
        f"collecting {config.dynamicity_start}..{config.dynamicity_end} "
        f"(seed {args.seed}) ...",
        file=out,
        flush=True,
    )
    try:
        app = build_app(config, world=world, obs=obs)
    except ValueError as error:
        if not _is_cadence_error(error):
            raise
        print(f"error: irregular snapshot series — {error}", file=sys.stderr)
        return 2
    repo = app.services.dynamicity.snapshots
    print(
        f"serving {repo.day_count} day(s), {len(repo.prefix_table())} /24 "
        f"prefix(es) on http://{args.host}:{args.port} (Ctrl-C to stop)",
        file=out,
        flush=True,
    )
    run_app(app, args.host, args.port)
    return 0


def cmd_evaluate(args, out) -> int:
    config = _study_config(args)
    plan = _plan(args)
    if plan is not None:
        worlds = {"plan": plan}
    else:
        worlds = default_worlds(args.seed, slash16s=args.slash16s, people=args.people)
    if args.worlds is not None:
        unknown = [label for label in args.worlds if label not in worlds]
        if unknown:
            raise ValueError(
                f"unknown world label(s): {', '.join(unknown)} "
                f"(available: {', '.join(worlds)})"
            )
        worlds = {label: worlds[label] for label in args.worlds}
    spec = MatrixSpec(
        worlds=worlds,
        policies=tuple(args.policies),
        faults=tuple(args.fault_profiles),
        dynamicity_start=config.dynamicity_start,
        dynamicity_end=config.dynamicity_end,
        supplemental_start=config.supplemental_start,
        supplemental_end=config.supplemental_end,
        leak_sample_days=config.leak_sample_days,
        dynamicity_thresholds=config.dynamicity_thresholds,
    ).validate()

    result = run_matrix(
        spec,
        workers=config.capped_workers(args.workers),
        snapshot_cache=config.snapshot_cache,
        campaign_cache=config.campaign_cache,
        obs=_obs(args),
    )

    cells = spec.cells()
    print(
        f"evaluated {len(cells)} cell(s): {len(worlds)} world(s) × "
        f"{len(spec.policies)} policy(ies) × {len(spec.faults)} fault "
        f"profile(s), {result.workers} worker(s)",
        file=out,
    )
    report = render_ranked_report(result)
    print(report, file=out)
    if args.timings:
        snapshot_hits = sum(1 for r in result.results if r.snapshot_cache_hit)
        campaign_hits = sum(1 for r in result.results if r.campaign_cache_hit)
        print(
            f"[timings] matrix: {result.total_seconds:.2f}s; cache hits "
            f"{snapshot_hits}/{len(result.results)} snapshot, "
            f"{campaign_hits}/{len(result.results)} campaign",
            file=out,
        )
    if args.report_out:
        target = pathlib.Path(args.report_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(report + "\n", encoding="utf-8")
        print(f"wrote ranked report to {target}", file=out)
    if args.out:
        target = write_matrix_json(args.out, result)
        print(f"wrote eval matrix payload to {target}", file=out)
    return 0


_COMMANDS = {
    "cache": cmd_cache,
    "plan": cmd_plan,
    "evaluate": cmd_evaluate,
    "study": cmd_study,
    "serve": cmd_serve,
    "audit": cmd_audit,
    "campaign": cmd_campaign,
    "supplemental": cmd_campaign,
    "track": cmd_track,
    "heist": cmd_heist,
    "snapshot": cmd_snapshot,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    if args.max_workers is not None:
        # One shared ceiling for every pool this process (and its
        # workers) creates — see repro.scan.parallel.worker_cap.
        import os

        os.environ["REPRO_MAX_WORKERS"] = str(args.max_workers)
    manifest_path = args.metrics_out or metrics_out_path()
    if manifest_path or args.trace:
        args.obs = Observability()
        args.obs.set_run_info(
            seed=args.seed,
            # The alias maps to the same command (and the same manifest).
            command="campaign" if args.command == "supplemental" else args.command,
        )
    else:
        args.obs = None
    if args.clear_snapshot_cache:
        cache = _snapshot_cache(args) or SnapshotCache()
        removed = cache.clear()
        print(f"cleared {removed} cached snapshot series from {cache.root}", file=out)
    if args.clear_campaign_cache:
        cache = _campaign_cache(args) or CampaignCache()
        removed = cache.clear()
        print(f"cleared {removed} cached campaign datasets from {cache.root}", file=out)
    if args.command is None:
        if args.clear_snapshot_cache or args.clear_campaign_cache:
            return 0
        parser.error(
            "a command is required (or --clear-snapshot-cache/--clear-campaign-cache)"
        )
    try:
        status = _COMMANDS[args.command](args, out)
    except ValueError as error:
        # Bad user input (e.g. an empty half-open window) — report it
        # like an argument error instead of a traceback.
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2
    if args.obs is not None:
        if args.trace:
            rendered = args.obs.tracer.render()
            if rendered:
                print("\n[trace]", file=out)
                print(rendered, file=out)
        if manifest_path:
            args.obs.write_manifest(manifest_path)
            print(f"wrote run manifest to {manifest_path}", file=out)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
