"""Which functions of ``repro`` bound which layer, and what they count.

Each entry wraps one function (``module``, ``Class.method`` or a plain
function name) in a span of ``layer``.  Public functions are used
where one bounds the layer; the few private ones are named in
``PRIVATE_REASONS`` with the reason no public function does.  Counter
readers take ``(result, args, kwargs)``; deltas read an attribute of
the instance before and after the call.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
from typing import List, NamedTuple, Sequence

from tracing import SpanLog, patch


def _one(result, args, kwargs):
    return 1


def _length(result, args, kwargs):
    return len(result)


def _arg_length(position: int):
    def reader(result, args, kwargs):
        return len(args[position])

    return reader


def _days(result, args, kwargs):
    return len(result.days)


def _responses(result, args, kwargs):
    return result.stats().total_responses


def _day_responses(result, args, kwargs):
    counts, _ = result
    return sum(counts.values())


def _zone_change(result, args, kwargs):
    return 0 if result is None else 1


def _icmp_rows(result, args, kwargs):
    return len(args[0].icmp)


def _cache_bytes(result, args, kwargs):
    if result is None:
        return 0
    cache, key = args[0], args[1]
    total = cache.path_for(key).stat().st_size
    sidecar = result.get("blockfile_path")
    if sidecar:
        total += os.path.getsize(sidecar)
    return total


def _pickled_result_bytes(result, args, kwargs):
    return len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


def _published_bytes(result, args, kwargs):
    return len(args[0])


class Target(NamedTuple):
    module: str
    name: str
    layer: str
    counters: Sequence = ()
    deltas: Sequence = ()


TARGETS: List[Target] = [
    Target("repro.netsim.internet", "build_world", "netsim.world",
           [("netsim.world.calls", _one)]),
    Target("repro.netsim.worldplan", "WorldPlan.build", "netsim.world",
           [("netsim.world.calls", _one)]),
    Target("repro.netsim.network", "Network._records_list", "netsim.presence",
           [("netsim.presence.calls", _one)]),
    Target("repro.netsim.network", "Network.counts_by_slash24", "netsim.presence",
           [("netsim.presence.calls", _one)]),
    Target("repro.netsim.engine", "SimulationEngine.run_until", "netsim.engine",
           deltas=[("netsim.engine.events", "events_run")]),
    Target("repro.netsim.engine", "SimulationEngine.run", "netsim.engine",
           deltas=[("netsim.engine.events", "events_run")]),
    Target("repro.dhcp.server", "DhcpServer.handle", "dhcp",
           [("dhcp.messages", _one)]),
    Target("repro.dhcp.server", "DhcpServer.expire_leases", "dhcp",
           [("dhcp.expired", _length)]),
    Target("repro.ipam.system", "IpamSystem.on_lease_event", "ipam",
           [("ipam.lease_events", _one)], [("ipam.dns_updates", "updates_applied")]),
    Target("repro.ipam.system", "IpamSystem.on_lease_batch", "ipam",
           [("ipam.lease_events", _arg_length(1))], [("ipam.dns_updates", "updates_applied")]),
    Target("repro.ipam.system", "IpamSystem.flush_pending", "ipam",
           deltas=[("ipam.dns_updates", "updates_applied")]),
    Target("repro.dns.zone", "ReverseZone.set_ptr", "dns.zone",
           [("dns.zone.changes", _zone_change)]),
    Target("repro.dns.zone", "ReverseZone.remove_ptr", "dns.zone",
           [("dns.zone.changes", _zone_change)]),
    Target("repro.dns.update", "UpdateHandler.handle", "dns.zone"),
    Target("repro.dns.resolver", "StubResolver.resolve_name", "dns.resolver",
           deltas=[("dns.resolver.queries", "queries_sent"),
                   ("dns.resolver.retries", "retries_sent")]),
    Target("repro.scan.icmp", "IcmpScanner.sweep", "scan.icmp",
           deltas=[("scan.icmp.probes", "probes_sent")]),
    Target("repro.scan.icmp", "IcmpScanner.probe", "scan.icmp",
           deltas=[("scan.icmp.probes", "probes_sent")]),
    Target("repro.scan.rdns", "RdnsLookupEngine.lookup", "scan.rdns",
           deltas=[("scan.rdns.lookups", "lookups_performed")]),
    Target("repro.scan.rdns", "RdnsLookupEngine.lookup_batch", "scan.rdns",
           deltas=[("scan.rdns.lookups", "lookups_performed")]),
    Target("repro.scan.snapshot", "SnapshotCollector.collect", "scan.snapshot",
           [("scan.snapshot.days", _days), ("scan.snapshot.responses", _responses)]),
    Target("repro.scan.sharded", "ShardedCollector.collect", "scan.snapshot",
           [("scan.snapshot.days", _days), ("scan.snapshot.responses", _responses)]),
    Target("repro.scan.snapshot", "derive_day", "scan.snapshot",
           [("scan.snapshot.days", _one), ("scan.snapshot.responses", _day_responses)]),
    Target("repro.scan.snapshot", "SnapshotSeries.sample_records", "scan.sample",
           [("scan.sample.records", _length)]),
    Target("repro.core.leaks", "LeakIdentifier.identify", "core.leaks",
           [("core.leaks.records", _arg_length(1))]),
    Target("repro.scan.parallel", "_map_chunks", "scan.pool",
           [("scan.pool.tasks", _arg_length(1)), ("scan.transport.bytes", _pickled_result_bytes)]),
    Target("repro.scan.transport", "publish", "scan.pool",
           [("scan.transport.bytes", _published_bytes)]),
    Target("repro.scan.cache", "SnapshotCache.load", "scan.cache",
           [("scan.cache.bytes", _cache_bytes)]),
    Target("repro.scan.snapshot", "SnapshotSeries.from_payload", "scan.cache"),
    Target("repro.scan.blockfile", "write_blockfile", "scan.blockfile"),
    Target("repro.scan.blockfile", "append_day_records", "scan.blockfile",
           [("scan.blockfile.appends", _one)]),
    Target("repro.scan.blockfile", "BlockFileReader.open", "scan.blockfile"),
    Target("repro.core.dynamicity", "DynamicityAnalyzer.analyze", "core.dynamicity"),
    Target("repro.core.dynamicity", "IncrementalDynamicityAnalyzer.report", "core.dynamicity"),
    Target("repro.core.dynamicity", "IncrementalDynamicityAnalyzer.ingest",
           "core.dynamicity.ingest"),
    Target("repro.scan.campaign", "SupplementalDataset.table4_rows", "core.table4",
           [("core.table4.rows", _icmp_rows)]),
    Target("repro.eval.runner", "_evaluate_cell", "eval.cell", [("eval.cells", _one)]),
    Target("repro.eval.scoring", "score_cell", "eval.score"),
    Target("repro.serve.app", "ServeApp.dispatch", "serve.dispatch"),
    Target("repro.serve.http", "encode_response", "serve.http"),
    Target("repro.reporting.tables", "TextTable.render", "reporting.render"),
    Target("repro.eval.report", "render_ranked_report", "reporting.render"),
    Target("repro.eval.report", "write_matrix_json", "reporting.render"),
]

#: Why a private function bounds a layer instead of a public one.
PRIVATE_REASONS = {
    "Network._records_list": (
        "Network.records_on is a generator over the list this builds; a span "
        "on the generator would end before the derivation runs"
    ),
    "_map_chunks": (
        "the one pool fan-out every pooled path (collection, sample, eval "
        "matrix) goes through; its public callers differ per path"
    ),
    "_evaluate_cell": "the per-cell unit of the matrix; run_matrix spans all cells",
}

#: Modules imported before patching, so lazily imported ones are covered.
MODULES = sorted({target.module for target in TARGETS} | {"repro.cli", "repro.serve"})


def install(log: SpanLog) -> None:
    """Wrap every target; ``from module import name`` sites included."""
    for name in MODULES:
        importlib.import_module(name)
    repro_modules = [
        module for key, module in list(sys.modules.items())
        if key == "repro" or key.startswith("repro.")
    ]
    for target in TARGETS:
        owner = sys.modules[target.module]
        attribute = target.name
        if "." in attribute:
            class_name, attribute = attribute.split(".")
            owner = getattr(owner, class_name)
        patch(owner, attribute, log, target.layer, counters=target.counters,
              deltas=target.deltas, modules=repro_modules)
