"""The matrix runner: execute every cell, serially or on a pool.

Each cell runs the same two-stage pipeline a study does — snapshot
collection over the dynamicity window
(:class:`~repro.scan.sharded.ShardedCollector`), then the supplemental
campaign (:class:`~repro.scan.campaign.SupplementalCampaign` over the
cell's plan) — and is scored in the worker that ran it.  Parallel
execution fans whole cells out over the existing
:class:`~repro.scan.parallel.WorkerBudget` process-pool transport
(:func:`~repro.scan.parallel._map_chunks`);
because a cell is scored from nothing but its own plan, windows and
caches, and results are re-ordered by cell index, a parallel sweep is
**byte-identical** to a serial one.

Cache safety: each cell's plan carries its policy (distinct
fingerprint + ``policy_token``) and each collector/campaign carries
the cell's fault token, so no two cells can ever share a snapshot or
campaign cache entry — and a warm rerun of the same spec hits every
cell's entries.

Observability: when the coordinator's handle is enabled, each cell
records its collector and campaign counters into a registry of its own
and returns the snapshot; the coordinator merges those snapshots and
emits its per-cell counters (``eval_cells_total`` labelled by
world/policy/faults, and ``eval_flagged_cells_total``) in cell order —
identical for serial and parallel runs — while pool shape and
wall-clock go to the non-deterministic ``timings.execution`` section.
A disabled handle leaves cells on the no-op handle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.eval.matrix import MatrixCell, MatrixSpec
from repro.eval.scoring import CellScore, score_cell, score_from_payload
from repro.netsim.faults import plan_from_profile
from repro.netsim.worldplan import WorldPlan
from repro.obs import Observability, resolve_obs
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.campaign import SupplementalCampaign
from repro.scan.parallel import WorkerBudget, worker_cap
from repro.scan.sharded import ShardedCollector


@dataclass
class CellResult:
    """One executed cell: its score plus cache-key provenance."""

    cell: MatrixCell
    score: CellScore
    snapshot_cache_key: Optional[str] = None
    campaign_cache_key: Optional[str] = None
    snapshot_cache_hit: bool = False
    campaign_cache_hit: bool = False


@dataclass
class MatrixResult:
    """The whole sweep, in cell order."""

    spec: MatrixSpec
    results: List[CellResult]
    workers: int = 1
    total_seconds: float = 0.0


def _spec_state(
    spec: MatrixSpec,
    snapshot_root: Optional[str],
    campaign_root: Optional[str],
    observe: bool = False,
) -> Tuple:
    """The picklable per-run state shared by every cell task."""
    return (
        spec.dynamicity_start.toordinal(),
        spec.dynamicity_end.toordinal(),
        spec.supplemental_start.toordinal(),
        spec.supplemental_end.toordinal(),
        spec.leak_sample_days,
        spec.dynamicity_thresholds,
        spec.track_min_days,
        spec.identity_norm,
        spec.dynamics_norm,
        snapshot_root,
        campaign_root,
        observe,
    )


def _cell_task(spec: MatrixSpec, cell: MatrixCell) -> Tuple:
    """One cell's picklable work item."""
    return (
        cell.index,
        cell.world,
        cell.policy,
        cell.faults,
        spec.plan_for(cell).to_payload(),
    )


def _evaluate_cell(state: Tuple, task: Tuple) -> Dict[str, Any]:
    """Run + score one cell (shared by the serial and pooled paths).

    Everything the cell needs arrives through ``state``/``task`` plain
    values; everything it returns is a JSON-able dict — the same bytes
    whether this executes inline or inside a worker process.
    """
    import datetime as dt

    (
        dyn_start_ord,
        dyn_end_ord,
        sup_start_ord,
        sup_end_ord,
        leak_sample_days,
        dynamicity_thresholds,
        track_min_days,
        identity_norm,
        dynamics_norm,
        snapshot_root,
        campaign_root,
        observe,
    ) = state
    index, world_label, policy, faults, plan_payload = task

    plan = WorldPlan.from_payload(plan_payload)
    cell = MatrixCell(index, world_label, policy, faults)
    # A throwaway single-world spec carrying just the scoring knobs the
    # worker needs; axes stay with the coordinator.
    spec = MatrixSpec(
        worlds={world_label: plan},
        policies=(policy,),
        faults=(faults,),
        dynamicity_start=dt.date.fromordinal(dyn_start_ord),
        dynamicity_end=dt.date.fromordinal(dyn_end_ord),
        supplemental_start=dt.date.fromordinal(sup_start_ord),
        supplemental_end=dt.date.fromordinal(sup_end_ord),
        leak_sample_days=leak_sample_days,
        dynamicity_thresholds=dynamicity_thresholds,
        track_min_days=track_min_days,
        identity_norm=identity_norm,
        dynamics_norm=dynamics_norm,
    )

    fault_plan = plan_from_profile(faults, seed=plan.seed) if faults != "none" else None
    fault_token = fault_plan.cache_token() if fault_plan is not None else None

    snapshot_cache = SnapshotCache(snapshot_root) if snapshot_root else None
    campaign_cache = CampaignCache(campaign_root) if campaign_root else None

    # The cell's own registry, returned as a snapshot: a pool worker's
    # handle would otherwise never reach the coordinator.
    cell_obs = Observability() if observe else None
    collector = ShardedCollector(plan, shards=1, fault_token=fault_token, obs=cell_obs)
    series = collector.collect(
        spec.dynamicity_start,
        spec.dynamicity_end,
        workers=1,
        cache=snapshot_cache,
    )
    # Fault plan always explicit (None = clean), never the environment:
    # the matrix axis owns the decision.
    campaign = SupplementalCampaign(plan, fault_plan=fault_plan, obs=cell_obs)
    dataset = campaign.run(
        spec.supplemental_start,
        spec.supplemental_end,
        workers=1,
        cache=campaign_cache,
    )

    score = score_cell(cell, spec, series, dataset)
    collect_metrics = collector.last_metrics
    campaign_metrics = campaign.last_metrics
    return {
        "index": index,
        "score": score.to_payload(),
        "snapshot_cache_key": collect_metrics.cache_key if collect_metrics else None,
        "campaign_cache_key": campaign_metrics.cache_key if campaign_metrics else None,
        "snapshot_cache_hit": bool(collect_metrics and collect_metrics.cache_hit),
        "campaign_cache_hit": bool(campaign_metrics and campaign_metrics.cache_hit),
        "metrics": cell_obs.metrics.snapshot() if cell_obs is not None else {},
    }


def _pooled_cell_task(task: Tuple) -> Dict[str, Any]:
    """Worker entry point: state arrives via the pool initializer."""
    import repro.scan.parallel as parallel

    assert parallel._WORKER_STATE is not None, "worker state missing"
    return _evaluate_cell(parallel._WORKER_STATE, task)


def run_matrix(
    spec: MatrixSpec,
    *,
    workers: Optional[int] = None,
    snapshot_cache: Optional[SnapshotCache] = None,
    campaign_cache: Optional[CampaignCache] = None,
    obs=None,
) -> MatrixResult:
    """Execute every cell of ``spec`` and return ordered results.

    ``workers`` bounds the cell-level process pool (``None`` defers to
    :func:`~repro.scan.parallel.worker_cap`); caches are passed by
    *root path* into workers so every process shares the on-disk
    namespace.  Output is byte-identical for any worker count.
    """
    from repro.scan.parallel import _map_chunks

    spec.validate()
    obs = resolve_obs(obs)
    started = time.perf_counter()
    cells = spec.cells()
    budget = WorkerBudget(workers if workers is not None else worker_cap())
    pool_workers = min(budget.total, len(cells))

    snapshot_root = str(snapshot_cache.root) if snapshot_cache is not None else None
    campaign_root = str(campaign_cache.root) if campaign_cache is not None else None
    state = _spec_state(spec, snapshot_root, campaign_root, observe=obs.enabled)
    tasks = [_cell_task(spec, cell) for cell in cells]

    with obs.span("eval_matrix") as span:
        if pool_workers >= 2:
            raw = _map_chunks(
                state,
                tasks,
                pool_workers,
                _pooled_cell_task,
                obs=obs,
                section="eval_pool",
            )
        else:
            raw = [_evaluate_cell(state, task) for task in tasks]
        by_index = {entry["index"]: entry for entry in raw}
        results: List[CellResult] = []
        for cell in cells:
            entry = by_index[cell.index]
            results.append(
                CellResult(
                    cell=cell,
                    score=score_from_payload(entry["score"]),
                    snapshot_cache_key=entry["snapshot_cache_key"],
                    campaign_cache_key=entry["campaign_cache_key"],
                    snapshot_cache_hit=entry["snapshot_cache_hit"],
                    campaign_cache_hit=entry["campaign_cache_hit"],
                )
            )
        span.set("cells", len(results))

    # Deterministic per-cell counters, in cell order (serial == parallel).
    for cell in cells:
        obs.metrics.merge_snapshot(by_index[cell.index]["metrics"])
    flagged = 0
    for result in results:
        obs.metrics.counter("eval_cells_total").labels(
            world=result.cell.world,
            policy=result.cell.policy,
            faults=result.cell.faults,
        ).inc()
        if result.score.flags:
            flagged += 1
            obs.metrics.counter("eval_flagged_cells_total").inc()
    total_seconds = time.perf_counter() - started
    obs.record_execution(
        "eval_matrix",
        cells=len(results),
        flagged_cells=flagged,
        pool_workers=pool_workers if pool_workers >= 2 else 1,
        total_seconds=total_seconds,
    )
    return MatrixResult(
        spec=spec,
        results=results,
        workers=pool_workers if pool_workers >= 2 else 1,
        total_seconds=total_seconds,
    )
