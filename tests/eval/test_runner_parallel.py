"""Serial and parallel matrix sweeps are byte-identical.

Cells fan out over the shared ``WorkerBudget`` process pool; since a
cell is scored from nothing but its own plan, windows and caches, and
results re-order by cell index, worker count must never change a byte
of the report or the JSON payload.
"""

import json

from repro.eval import MatrixSpec, campus_plan, matrix_payload, render_ranked_report, run_matrix
from repro.obs import Observability


class TestParallelIdentity:
    def test_parallel_matches_serial(self, campus_spec, campus_result):
        parallel = run_matrix(campus_spec, workers=2)
        assert parallel.workers == 2
        assert render_ranked_report(parallel) == render_ranked_report(campus_result)
        serial_payload = matrix_payload(campus_result)
        parallel_payload = matrix_payload(parallel)
        assert json.dumps(parallel_payload, sort_keys=True) == json.dumps(
            serial_payload, sort_keys=True
        )

    def test_results_follow_sweep_order(self, campus_spec, campus_result):
        assert [r.cell.index for r in campus_result.results] == [
            cell.index for cell in campus_spec.cells()
        ]

    def test_counters_deterministic_across_worker_counts(self, campus_spec):
        def eval_counters(workers):
            obs = Observability()
            run_matrix(campus_spec, workers=workers, obs=obs)
            counters = obs.manifest().deterministic_payload()["metrics"]["counters"]
            return json.dumps(
                {
                    name: value
                    for name, value in counters.items()
                    if name.startswith("eval_")
                },
                sort_keys=True,
            )

        serial = eval_counters(1)
        assert "eval_cells_total" in serial
        assert eval_counters(2) == serial

    def test_cell_counters_reach_the_manifest(self):
        # Cells record into their own registries and the coordinator
        # merges them in cell order, so the pooled manifest equals the
        # serial one and both carry the engines' counters.
        spec = MatrixSpec(
            worlds={"campus": campus_plan(7)},
            policies=("carry-over",),
            faults=("none", "mild"),
        ).validate()

        def manifest(workers):
            obs = Observability()
            run_matrix(spec, workers=workers, obs=obs)
            return obs.manifest()

        serial = manifest(1)
        pooled = manifest(2)
        assert pooled.deterministic_payload() == serial.deterministic_payload()
        for name in (
            "engine_events_total",
            "reactive_sweeps_total",
            "dhcp_messages_total",
        ):
            assert serial.counter_value(name) > 0, name
