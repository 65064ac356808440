"""Central registry of every metric name the codebase may emit.

Dashboards, the Prometheus exposition, and the perf-trajectory harness
all reference metrics by name; a typo at an instrumentation site would
silently create a dead series and leave the dashboard flat.  The
``unknown-metric-name`` lint rule (``repro.lint.rules``) therefore
requires every string literal passed to the metrics API
(``counter``/``gauge``/``histogram``/``timer``) to appear here — the
same pattern as the fault-point registry in ``repro.testkit.points``.

Add the name here first, then instrument; the linter keeps the two in
sync forever after.  This module must stay dependency-free (the linter
imports it while analyzing arbitrary files).
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES"]

#: Every metric name that instrumentation may emit, grouped by subsystem.
METRIC_NAMES: frozenset[str] = frozenset(
    {
        # bender executor / testing infrastructure
        "executor.programs",
        "executor.payloads",
        "executor.commands",
        "executor.loop_iterations",
        "executor.timing_violations",
        "executor.ns_per_wall_s",
        "executor.wall_s",
        "bench.settle_events",
        "bench.temperature_c",
        # simulator and memory controller
        "sim.runs",
        "sim.events",
        "sim.ns_per_wall_s",
        "memctrl.requests_served",
        "memctrl.row_hits",
        "memctrl.row_misses",
        "memctrl.row_conflicts",
        "memctrl.activations",
        "memctrl.refresh_commands",
        "memctrl.preventive_refreshes",
        "memctrl.row_hit_rate",
        # mitigations
        "mitigation.refreshes",
        "mitigation.table_evictions",
        # characterization experiments
        "acmin.searches",
        "acmin.probes",
        "acmin.sites_with_flips",
        "acmin.device_probes",
        "acmin.plan_probes",
        "taggonmin.searches",
        "taggonmin.probes",
        "taggonmin.sites_with_flips",
        "taggonmin.device_probes",
        "ber.measurements",
        "ber.bitflips",
        "campaign.experiments",
        "campaign.bitflips",
        # campaign engine
        "engine.shards",
        "engine.shards_resumed",
        "engine.shard_seconds",
        "engine.shard_failures",
        "engine.retries",
        # system-level attack demo
        "attack.runs",
        "attack.windows",
        "attack.windows_clean",
        "attack.bitflips",
        # service
        "service.requests",
        "service.requests_by_route",
        "service.request_seconds",
        "service.rate_limited",
        "service.cache_hits",
        "service.backpressure",
        "service.jobs_submitted",
        "service.jobs_completed",
        "service.jobs_failed",
        "service.jobs_interrupted",
        "service.job_seconds",
        "service.job_state_seconds",
        "service.jobs_by_state",
        "service.oldest_job_age_s",
        "service.queue_depth",
        "service.dashboard_snapshots",
        # fleet (shard leasing over the service API)
        "fleet.leases_granted",
        "fleet.leases_expired",
        "fleet.leases_reassigned",
        "fleet.leases_outstanding",
        "fleet.workers_active",
        "fleet.shards_pending",
        "fleet.heartbeats",
        "fleet.heartbeats_rejected",
        "fleet.completions",
        "fleet.completions_duplicate",
        "fleet.completions_rejected",
        "fleet.shard_failures",
        "fleet.shard_seconds",
        "fleet.lease_to_complete_seconds",
        # fleet worker process
        "worker.shards_executed",
        "worker.shards_discarded",
        "worker.lease_polls",
        # result warehouse (derived SQLite index over schema-v2 results)
        "warehouse.ingests",
        "warehouse.records_ingested",
        "warehouse.shards_ingested",
        "warehouse.shards_duplicate",
        "warehouse.ingest_seconds",
        "warehouse.rebuilds",
        "warehouse.queries",
        "warehouse.query_seconds",
        "warehouse.rows_fetched",
        "warehouse.groups_fetched",
        "warehouse.sources",
        "warehouse.records",
        "warehouse.torn_detected",
    }
)
