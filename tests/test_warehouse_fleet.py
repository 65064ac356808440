"""Fleet -> warehouse ingestion: exactly-once per shard.

Two layers of the same contract:

* In-process, against a real :class:`LeaseManager` and real
  :class:`FleetWorker` threads, the job checkpoint is fed into the
  warehouse once the workers finish, the way the service's supervisor
  does when a job settles.  The warehouse's row count and per-shard
  provenance must match the engine checkpoint line-for-line — including
  when a worker is killed mid-shard and its lease is reassigned — and a
  second pass over the checkpoint must ingest nothing.
* Over real HTTP, a 2-worker fleet job's analytics answers served by
  ``GET /v1/analytics`` must equal a local warehouse fed the fetched
  results document — the settle-time checkpoint ingest and the batch
  backfill path converge on identical aggregates.
"""

from __future__ import annotations

import json
import threading

from repro.characterization.campaign import dumps_results
from repro.fleet.worker import FleetWorker
from repro.testkit import FaultPlan, FaultSpec
from repro.testkit.points import FLEET_WORKER_COMPLETE
from repro.warehouse import Warehouse
from tests.test_fleet_http import WorkerProcess
from tests.test_fleet_worker import (
    TTL_S,
    FakeClock,
    InProcessLeaseClient,
    open_fleet_job,
    quiet_thread_crashes,
    small_spec,
)
from tests.test_service_http import ServerProcess

JOB_ID = "job-1"  # the id open_fleet_job registers


def checkpoint_shards(ckpt_path) -> dict[str, int]:
    """``shard_id -> unit count`` straight from the checkpoint file."""
    shards = {}
    for line in ckpt_path.read_text().splitlines():
        payload = json.loads(line)
        if payload["kind"] == "shard":
            shards[payload["shard_id"]] = len(payload["units"])
    return shards


def run_workers(client, worker_ids):
    workers = [
        FleetWorker(
            client=client,
            worker_id=worker_id,
            concurrency=1,
            poll_s=0.01,
            max_idle_s=0.5,
        )
        for worker_id in worker_ids
    ]
    threads = [threading.Thread(target=worker.run) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return workers


def test_two_worker_job_streams_every_shard_exactly_once(tmp_path):
    spec = small_spec(name="wh-fleet", seed=51)
    clock = FakeClock()
    manager, shards, ckpt = open_fleet_job(tmp_path, spec, clock)
    workers = run_workers(InProcessLeaseClient(manager), ("wt-1", "wt-2"))
    assert sum(w.stats.shards_executed for w in workers) == len(shards)
    result = manager.close_job(JOB_ID)
    assert not result.failures

    with Warehouse(":memory:") as warehouse:
        ingested = warehouse.ingest_checkpoint_file(ckpt.path, key=JOB_ID)
        expected = checkpoint_shards(ckpt.path)
        assert set(expected) == {s.shard_id for s in shards}
        assert warehouse.shard_provenance(JOB_ID) == expected
        assert ingested == warehouse.count_records() == sum(expected.values())
        assert warehouse.count_records() == len(result.records)

        # A second pass (a settle retried after a crash) re-offers every
        # checkpoint shard; all are duplicates.
        assert warehouse.ingest_checkpoint_file(ckpt.path, key=JOB_ID) == 0
        assert warehouse.shard_provenance(JOB_ID) == expected
        warehouse.finalize_source(JOB_ID)
        assert warehouse.verify()["ok"]


def test_lease_reassignment_never_double_ingests(tmp_path):
    """Kill a worker mid-completion; the retake lands exactly once."""
    spec = small_spec(name="wh-reassign", seed=52)
    clock = FakeClock()
    manager, shards, ckpt = open_fleet_job(tmp_path, spec, clock)
    client = InProcessLeaseClient(manager)
    doomed = FleetWorker(
        client=client,
        worker_id="wt-doomed",
        concurrency=1,
        poll_s=0.01,
        max_idle_s=0.5,
    )
    plan = FaultPlan(FaultSpec(FLEET_WORKER_COMPLETE, "crash", at_hit=1))
    with plan, quiet_thread_crashes():
        doomed.run()
    assert plan.fired

    clock.advance(TTL_S + 0.1)  # the dead worker's lease expires
    run_workers(client, ("wt-survivor",))
    result = manager.close_job(JOB_ID)
    assert not result.failures

    with Warehouse(":memory:") as warehouse:
        warehouse.ingest_checkpoint_file(ckpt.path, key=JOB_ID)
        expected = checkpoint_shards(ckpt.path)
        assert set(expected) == {s.shard_id for s in shards}
        assert warehouse.shard_provenance(JOB_ID) == expected
        assert warehouse.count_records() == len(result.records)
        assert warehouse.ingest_checkpoint_file(ckpt.path, key=JOB_ID) == 0
        warehouse.finalize_source(JOB_ID)

        # The ingested rows answer identically to a batch backfill of
        # the merged results — reassignment left no trace.
        with Warehouse(":memory:") as reference:
            reference.ingest_results_text(
                dumps_results(spec, result.records), key=JOB_ID
            )
            for report in ("acmin", "sweep", "modules"):
                assert json.dumps(
                    warehouse.analytics(report), sort_keys=True
                ) == json.dumps(reference.analytics(report), sort_keys=True)


def test_http_fleet_job_serves_warehouse_analytics(tmp_path):
    """End-to-end: submit -> 2 workers -> /v1/analytics over the wire."""
    server = ServerProcess(
        tmp_path, extra_args=("--backend", "fleet", "--lease-ttl-s", "5.0")
    )
    workers = []
    try:
        client = server.client(client_id="wh-fleet-e2e")
        spec = small_spec(name="wh-http", seed=53)
        submitted = client.submit(spec)
        workers = [
            WorkerProcess(server, f"whw{i}", max_idle_s=5.0) for i in (1, 2)
        ]
        final = client.wait(submitted.job_id, timeout_s=120)
        assert final.state == "done"

        text = client.fetch_results_text(final.job_id)
        with Warehouse(":memory:") as reference:
            reference.ingest_results_text(text, key=final.job_id)
            for report in ("acmin", "temperature", "sweep", "modules"):
                served = client.analytics(report)
                assert json.dumps(served, sort_keys=True) == json.dumps(
                    reference.analytics(report), sort_keys=True
                ), report

        counters = {
            entry["name"]: entry["value"]
            for entry in client.metrics()["counters"]
        }
        # Every record reached the warehouse exactly once, when the job
        # settled and its checkpoint was ingested: the ingest counter
        # equals the job's record count.
        assert counters.get("warehouse.records_ingested") == final.records
        assert counters.get("warehouse.shards_ingested", 0) >= 1
        for worker in workers:
            assert worker.wait() == 0
    finally:
        for worker in workers:
            worker.kill9()
        server.kill()
