"""Sharded == unsharded, byte for byte.

The contract of plan sharding: for any shard count, worker count,
fault profile or cache temperature, :class:`ShardedCollector` and a
plan-sourced :class:`SupplementalCampaign` produce payloads
byte-identical to the single-world engines run over the same plan.  Everything downstream (dynamicity, caching, the serve layer)
leans on this, so the comparisons here are on serialized payloads, not
summaries.
"""

import datetime as dt
import json

import pytest

from repro.core.dynamicity import DynamicityAnalyzer
from repro.netsim.faults import plan_from_profile
from repro.netsim.worldplan import PlanError, synthetic_plan
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.obs import Observability
from repro.scan.campaign import SupplementalCampaign
from repro.scan.parallel import WorkerBudget, effective_campaign_workers, worker_cap
from repro.scan.sharded import ShardedCollector
from repro.scan.snapshot import SnapshotCollector

START = dt.date(2021, 1, 1)
END = dt.date(2021, 1, 13)

CAMPAIGN_START = dt.date(2021, 11, 1)
CAMPAIGN_END = dt.date(2021, 11, 3)


@pytest.fixture(scope="module")
def plan():
    return synthetic_plan(seed=11, slash16s=6, people=4, supplemental_every=1)


@pytest.fixture(scope="module")
def baseline_series(plan):
    # The unsharded reference: a plain collector over the fully built world.
    world = plan.build()
    return SnapshotCollector.openintel_style(world.internet).collect(START, END)


@pytest.fixture(scope="module")
def baseline_dataset(plan):
    world = plan.build()
    return SupplementalCampaign(world, fault_plan=None).run(
        CAMPAIGN_START, CAMPAIGN_END
    )


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


class TestShardedSnapshots:
    @pytest.mark.parametrize("shards", [1, 2, 4, 11])
    def test_byte_identical_across_shard_counts(self, plan, baseline_series, shards):
        series = ShardedCollector(plan, shards=shards).collect(START, END)
        assert canonical(series.to_payload()) == canonical(baseline_series.to_payload())

    def test_parallel_matches_serial(self, plan, baseline_series, monkeypatch):
        # Force a real pool even on single-core hosts.
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        series = ShardedCollector(plan, shards=3).collect(START, END, workers=3)
        assert canonical(series.to_payload()) == canonical(baseline_series.to_payload())

    def test_series_is_lazily_backed(self, plan):
        collector = ShardedCollector(plan, shards=2)
        series = collector.collect(START, END)
        # Count-level reads never materialise the full world...
        assert series.counts_by_slash24(START)
        assert not series._internet.materialized()
        # ...record-level reads do, transparently.
        assert list(series.records_on(START))
        assert series._internet.materialized()

    def test_invalid_shard_count_rejected(self, plan):
        with pytest.raises(PlanError):
            ShardedCollector(plan, shards=0)


class TestShardedSnapshotCache:
    def test_cache_hits_across_shard_counts(self, plan, baseline_series, tmp_path):
        cache = SnapshotCache(tmp_path / "snap")
        writer = ShardedCollector(plan, shards=4)
        written = writer.collect(START, END, cache=cache)
        assert writer.last_metrics.cache_stored

        # A different shard count reads the same entry: the key is
        # plan-level, and the payloads are identical bytes anyway.
        reader = ShardedCollector(plan, shards=1)
        replayed = reader.collect(START, END, cache=cache)
        assert reader.last_metrics.cache_hit
        assert canonical(replayed.to_payload()) == canonical(written.to_payload())
        assert canonical(replayed.to_payload()) == canonical(baseline_series.to_payload())

    def test_cache_key_is_shard_count_free(self, plan, tmp_path):
        cache = SnapshotCache(tmp_path / "snap")
        keys = {
            ShardedCollector(plan, shards=shards)._cache_key(cache, START, END)
            for shards in (1, 2, 4)
        }
        assert len(keys) == 1


class TestShardedCampaign:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_byte_identical_across_shard_counts(self, plan, baseline_dataset, shards):
        dataset = SupplementalCampaign(plan, shards=shards, fault_plan=None).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        assert canonical(dataset.to_payload()) == canonical(baseline_dataset.to_payload())

    def test_parallel_matches_serial(self, plan, baseline_dataset, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        dataset = SupplementalCampaign(plan, shards=2, fault_plan=None).run(
            CAMPAIGN_START, CAMPAIGN_END, workers=2
        )
        assert canonical(dataset.to_payload()) == canonical(baseline_dataset.to_payload())

    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_pooled_shard_counts_match_world_run(
        self, plan, baseline_dataset, monkeypatch, shards
    ):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        campaign = SupplementalCampaign(plan, shards=shards, fault_plan=None)
        dataset = campaign.run(CAMPAIGN_START, CAMPAIGN_END, workers=2)
        assert campaign.last_metrics.effective_workers == (1 if shards == 1 else 2)
        assert canonical(dataset.to_payload()) == canonical(baseline_dataset.to_payload())

    def test_world_and_plan_sources_agree(self, plan):
        # Same payload bytes and the same deterministic manifest
        # sections, whichever source the campaign is handed.
        runs = []
        for source in (plan.build(), plan):
            obs = Observability()
            dataset = SupplementalCampaign(source, shards=3, fault_plan=None, obs=obs).run(
                CAMPAIGN_START, CAMPAIGN_END
            )
            payload = obs.manifest().deterministic_payload()
            runs.append((canonical(dataset.to_payload()), payload["spans"], payload["metrics"]))
        world_run, plan_run = runs
        assert world_run == plan_run
        assert world_run[1], "campaign.run span missing"
        assert world_run[2]["counters"], "campaign counters missing"

    def test_faulted_run_matches_unsharded_faulted_run(self, plan, monkeypatch):
        faults = plan_from_profile("mild", seed=11)
        world = plan.build()
        reference = SupplementalCampaign(world, fault_plan=faults).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        serial = SupplementalCampaign(plan, shards=3, fault_plan=faults).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        assert canonical(serial.to_payload()) == canonical(reference.to_payload())
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        parallel = SupplementalCampaign(plan, shards=3, fault_plan=faults).run(
            CAMPAIGN_START, CAMPAIGN_END, workers=2
        )
        assert canonical(parallel.to_payload()) == canonical(reference.to_payload())

    def test_cache_hits_across_shard_counts(self, plan, baseline_dataset, tmp_path):
        cache = CampaignCache(tmp_path / "camp")
        writer = SupplementalCampaign(plan, shards=3, fault_plan=None)
        written = writer.run(CAMPAIGN_START, CAMPAIGN_END, cache=cache)
        assert writer.last_metrics.cache_stored

        reader = SupplementalCampaign(plan, shards=1, fault_plan=None)
        replayed = reader.run(CAMPAIGN_START, CAMPAIGN_END, cache=cache)
        assert reader.last_metrics.cache_hit
        assert canonical(replayed.to_payload()) == canonical(written.to_payload())
        assert canonical(replayed.to_payload()) == canonical(baseline_dataset.to_payload())

    def test_network_subset_respected(self, plan):
        names = plan.supplemental_names[:2]
        world = plan.build()
        reference = SupplementalCampaign(world, networks=names, fault_plan=None).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        dataset = SupplementalCampaign(plan, shards=2, networks=names, fault_plan=None).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        assert canonical(dataset.to_payload()) == canonical(reference.to_payload())

    def test_plan_without_supplementals_rejected(self):
        bare = synthetic_plan(seed=0, slash16s=2, people=2, supplemental_every=0)
        with pytest.raises(PlanError, match="supplemental"):
            SupplementalCampaign(bare).run(CAMPAIGN_START, CAMPAIGN_END)


class TestDownstreamEquivalence:
    def test_dynamicity_report_matches_unsharded(self, plan, baseline_series):
        sharded = ShardedCollector(plan, shards=4).collect(START, END)
        analyzer = DynamicityAnalyzer()
        left = analyzer.analyze(baseline_series)
        right = analyzer.analyze(sharded)
        assert left.dynamic_prefixes() == right.dynamic_prefixes()


class TestWorkerPlumbing:
    """The parallel-plumbing sweep: one budget, capped everywhere."""

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "5")
        assert worker_cap() == 5

    def test_env_override_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "zero")
        with pytest.raises(ValueError):
            worker_cap()
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        with pytest.raises(ValueError):
            worker_cap()

    def test_default_cap_bounded_by_machine(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        import os

        assert 1 <= worker_cap() <= max(os.cpu_count() or 1, 8)

    def test_budget_split_never_oversubscribes(self):
        budget = WorkerBudget(6)
        for outer_tasks in (1, 2, 3, 4, 6, 10):
            outer, inner = budget.split(outer_tasks)
            assert outer * inner <= budget.total
            assert outer >= 1 and inner >= 1

    def test_campaign_cap_counts_work_units_not_networks(self, monkeypatch):
        # The regression this sweep fixes: a 2-batch sharded run over 9
        # networks must size its pool by the 2 submissions it will make,
        # not by the 9 networks they contain.
        monkeypatch.setenv("REPRO_MAX_WORKERS", "8")
        assert effective_campaign_workers(8, work_units=2) == 2
        assert effective_campaign_workers(8, work_units=1) == 1
        assert effective_campaign_workers(3, work_units=9) == 3

    def test_campaign_cap_honours_machine_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert effective_campaign_workers(8, work_units=9) == 2

    def test_sharded_pool_is_budget_sized(self, plan, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        collector = ShardedCollector(plan, shards=4)
        collector.collect(START, END, workers=2)
        # 4 shards' worth of tasks, but never more than 2 workers.
        assert collector.last_metrics.effective_workers <= 2
