"""Job lifecycle, rate limiting, backpressure, persistence, supervisor."""

import asyncio
import json
import multiprocessing
import threading
import time

import pytest

from repro.characterization import engine
from repro.characterization.campaign import CampaignSpec, run_campaign
from repro.characterization.engine import _ShardOutcome, plan_shards
from repro.fleet.leases import LeaseManager, outcome_to_payload
from repro.service.jobs import (
    DONE,
    FAILED,
    INTERRUPTED,
    QUEUED,
    Job,
    JobManager,
    JobSupervisor,
    QueueFull,
    RateLimited,
    TokenBucket,
)
from repro.service.store import ResultStore, spec_key
from repro.testkit import FaultPlan, FaultSpec
from repro.testkit.points import ENGINE_SHARD_START
from tests.test_engine import _die_at_first_attempt_of


def small_spec(**kwargs):
    defaults = dict(
        name="jobs-unit",
        module_ids=("S3",),
        experiment="acmin",
        t_aggon_values=(36.0, 7800.0),
        activation_counts=(1, 100),
        sites_per_module=2,
        seed=5,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def make_manager(tmp_path, **kwargs):
    store = ResultStore(tmp_path / "results")
    return JobManager(tmp_path, store, **kwargs)


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------


def test_token_bucket_burst_then_refill():
    bucket = TokenBucket(rate_per_s=10.0, burst=2.0)
    assert bucket.try_acquire(now_s=0.0) == 0.0
    assert bucket.try_acquire(now_s=0.0) == 0.0
    wait = bucket.try_acquire(now_s=0.0)  # bucket empty
    assert wait == pytest.approx(0.1)
    # After enough simulated time the bucket refills.
    assert bucket.try_acquire(now_s=1.0) == 0.0


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate_per_s=0.0, burst=2.0)
    with pytest.raises(ValueError):
        TokenBucket(rate_per_s=1.0, burst=0.5)


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------


def run_async(coroutine):
    return asyncio.run(coroutine)


def test_submit_outcomes_new_duplicate_cached(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        spec = small_spec()
        job, outcome = await manager.submit(spec, client="a")
        assert outcome == "new" and job.state == QUEUED
        assert job.job_id == spec_key(spec)
        assert job.shards_total > 0
        # Same spec while queued: deduplicated onto the same job.
        same, outcome = await manager.submit(spec, client="b")
        assert outcome == "duplicate" and same is job
        # A different spec is a different job.
        other, outcome = await manager.submit(small_spec(seed=6), client="a")
        assert outcome == "new" and other is not job

    run_async(scenario())


def test_submit_served_from_store_is_born_done(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        spec = small_spec()
        records = run_campaign(spec)
        manager.store.put(spec, records)
        job, outcome = await manager.submit(spec, client="a")
        assert outcome == "cached"
        assert job.state == DONE and job.cached
        assert job.records == len(records)

    run_async(scenario())


def test_submit_backpressure_when_queue_full(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path, queue_limit=2)
        await manager.submit(small_spec(seed=1), client="a")
        await manager.submit(small_spec(seed=2), client="a")
        with pytest.raises(QueueFull) as excinfo:
            await manager.submit(small_spec(seed=3), client="a")
        assert excinfo.value.retry_after_s > 0

    run_async(scenario())


def test_rate_limiting_per_client(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path, rate_per_s=1.0, rate_burst=2.0)
        manager.check_rate("alice")
        manager.check_rate("alice")
        with pytest.raises(RateLimited) as excinfo:
            manager.check_rate("alice")
        assert excinfo.value.retry_after_s > 0
        manager.check_rate("bob")  # independent bucket

    run_async(scenario())


def test_failed_job_is_readmitted_as_new(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        spec = small_spec()
        job, _ = await manager.submit(spec, client="a")
        job.state = FAILED
        again, outcome = await manager.submit(spec, client="a")
        assert outcome == "new" and again is not job

    run_async(scenario())


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------


def test_job_publish_sequences_and_wakes_waiters(tmp_path):
    async def scenario():
        job = Job(job_id="j", spec=small_spec())
        waiter = asyncio.ensure_future(job.wait_changed())
        await asyncio.sleep(0)
        job.publish({"event": "state", "state": QUEUED})
        job.publish({"event": "progress", "done": 1})
        await asyncio.wait_for(waiter, timeout=1.0)
        assert [e["seq"] for e in job.events] == [0, 1]

    run_async(scenario())


# ----------------------------------------------------------------------
# persistence and recovery
# ----------------------------------------------------------------------


def test_persist_and_recover_reenqueues_unfinished(tmp_path):
    async def first_life():
        manager = make_manager(tmp_path)
        spec = small_spec()
        job, _ = await manager.submit(spec, client="a")
        return job.job_id

    job_id = run_async(first_life())

    async def second_life():
        manager = make_manager(tmp_path)
        assert manager.recover() == 1
        job = manager.jobs[job_id]
        assert job.state == QUEUED
        next_job = await asyncio.wait_for(manager.next_job(), timeout=1.0)
        assert next_job is job

    run_async(second_life())


def test_recover_requeues_done_job_with_pruned_store(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        spec = small_spec()
        job, _ = await manager.submit(spec, client="a")
        job.state = DONE  # claims done, but the store has no entry
        manager.persist(job)
        fresh = make_manager(tmp_path)
        assert fresh.recover() == 1
        assert fresh.jobs[job.job_id].state == QUEUED

    run_async(scenario())


def test_recover_skips_corrupt_record(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        (manager.jobs_dir / "bogus.json").write_text("{not json")
        assert manager.recover() == 0

    run_async(scenario())


def test_persisted_record_is_valid_json_with_spec(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        spec = small_spec()
        job, _ = await manager.submit(spec, client="a")
        payload = json.loads((manager.jobs_dir / f"{job.job_id}.json").read_text())
        assert payload["state"] == QUEUED
        assert CampaignSpec.from_json(payload["spec"]) == spec

    run_async(scenario())


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------


def test_supervisor_runs_job_to_done_and_stores_results(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        supervisor = JobSupervisor(manager, tmp_path / "checkpoints")
        spec = small_spec()
        job, _ = await manager.submit(spec, client="a")
        await supervisor.run_job(job)
        assert job.state == DONE
        assert manager.store.has(job.job_id)
        assert not supervisor.checkpoint_path(job).exists()
        assert job.events[-1]["event"] == "done"
        assert any(e["event"] == "progress" for e in job.events)
        # Stored results parse back to the original spec.
        loaded_spec, records = manager.store.load(job.job_id)
        assert loaded_spec == spec and len(records) == job.records

    run_async(scenario())


def test_supervisor_interrupts_on_drain_and_keeps_checkpoint(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        calls = {"n": 0}

        def draining():
            calls["n"] += 1
            return calls["n"] > 2  # let a shard or two land, then drain

        supervisor = JobSupervisor(
            manager, tmp_path / "checkpoints", shard_size=1, draining=draining
        )
        job, _ = await manager.submit(small_spec(sites_per_module=4), client="a")
        await supervisor.run_job(job)
        assert job.state == INTERRUPTED
        assert supervisor.checkpoint_path(job).exists()
        assert not manager.store.has(job.job_id)
        # A later supervisor (fresh service) finishes from the checkpoint.
        resumed = JobSupervisor(manager, tmp_path / "checkpoints", shard_size=1)
        job.state = QUEUED
        await resumed.run_job(job)
        assert job.state == DONE
        done_event = job.events[-1]
        assert done_event["event"] == "done"
        assert done_event["shards_resumed"] > 0

    run_async(scenario())


def test_supervisor_failure_isolates_job(tmp_path, monkeypatch):
    async def scenario():
        manager = make_manager(tmp_path)
        supervisor = JobSupervisor(manager, tmp_path / "checkpoints")
        job, _ = await manager.submit(small_spec(), client="a")

        def explode(*args, **kwargs):
            raise RuntimeError("engine fell over")

        # An exception out of the executor is a failed attempt: the
        # retry budget runs out and the job settles failed (a lease left
        # held would instead re-lease every TTL and never settle).
        with monkeypatch.context() as patch:
            patch.setattr("repro.fleet.driver.execute_shard", explode)
            await asyncio.wait_for(supervisor.run_job(job), timeout=60.0)
        assert job.state == FAILED
        assert "engine fell over" in job.error
        assert job.events[-1]["event"] == "failed"
        # Nothing was left open in the lease table: the same job reruns.
        job.state = QUEUED
        await asyncio.wait_for(supervisor.run_job(job), timeout=60.0)
        assert job.state == DONE, job.error

    run_async(scenario())


def test_unusable_checkpoint_restarts_instead_of_failing(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        calls = {"n": 0}

        def draining():
            calls["n"] += 1
            return calls["n"] > 2

        spec = small_spec()
        first = JobSupervisor(
            manager, tmp_path / "checkpoints", shard_size=1, draining=draining
        )
        job, _ = await manager.submit(spec, client="a")
        await first.run_job(job)
        assert job.state == INTERRUPTED
        # A restart under another shard size cannot line its shards up
        # with that checkpoint: the job starts fresh rather than failing.
        restarted = JobSupervisor(manager, tmp_path / "checkpoints", shard_size=2)
        job.state = QUEUED
        await restarted.run_job(job)
        assert job.state == DONE, job.error
        assert job.events[-1]["shards_resumed"] == 0
        _spec, records = manager.store.load(job.job_id)
        assert records == run_campaign(spec)

    run_async(scenario())


def test_shards_total_counts_the_service_shard_size(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path, shard_size=1)
        supervisor = JobSupervisor(manager, tmp_path / "checkpoints", shard_size=1)
        spec = small_spec(sites_per_module=8)
        assert len(plan_shards(spec, shard_size=1)) == 16
        job, _ = await manager.submit(spec, client="a")
        assert job.state == QUEUED
        assert job.shards_total == 16
        assert job.to_payload()["shards_total"] == 16
        await asyncio.wait_for(supervisor.run_job(job), timeout=60.0)
        assert job.state == DONE, job.error
        assert job.shards_total == 16
        # A supervisor planning at another size recounts when it starts.
        other = small_spec(sites_per_module=8, seed=6)
        job, _ = await manager.submit(other, client="a")
        resized = JobSupervisor(manager, tmp_path / "checkpoints", shard_size=2)
        await asyncio.wait_for(resized.run_job(job), timeout=60.0)
        assert job.state == DONE, job.error
        assert job.shards_total == len(plan_shards(other, shard_size=2)) == 8

    run_async(scenario())


def test_local_job_feeds_the_warehouse_like_a_batch_ingest(tmp_path):
    from repro.warehouse import Warehouse

    async def scenario():
        manager = make_manager(tmp_path)
        spec = small_spec()
        with Warehouse(":memory:") as warehouse, Warehouse(":memory:") as batch:
            supervisor = JobSupervisor(
                manager, tmp_path / "checkpoints", warehouse=warehouse
            )
            job, _ = await manager.submit(spec, client="a")
            await supervisor.run_job(job)
            assert job.state == DONE
            report = warehouse.verify()
            assert report["ok"]
            assert [source["key"] for source in report["sources"]] == [job.job_id]
            batch.ingest_records(spec, run_campaign(spec), key=job.job_id)
            for name in ("sweep", "acmin", "modules"):
                assert warehouse.analytics(name) == batch.analytics(name)

    run_async(scenario())


# ----------------------------------------------------------------------
# local backend: the supervisor leases shards from its own table
# ----------------------------------------------------------------------


def counter(metrics, name):
    return sum(
        entry["value"]
        for entry in metrics.to_dict()["counters"]
        if entry["name"] == name
    )


def test_local_job_leases_its_shards_from_the_service_table(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        supervisor = JobSupervisor(
            manager,
            tmp_path / "checkpoints",
            shard_size=1,
            lease_manager=LeaseManager(metrics=manager.metrics),
        )
        spec = small_spec()
        job, _ = await manager.submit(spec, client="a")
        await asyncio.wait_for(supervisor.run_job(job), timeout=60.0)
        assert job.state == DONE, job.error
        shards = len(plan_shards(spec, shard_size=1))
        assert counter(manager.metrics, "fleet.leases_granted") == shards
        assert counter(manager.metrics, "fleet.completions") == shards

    run_async(scenario())


def test_local_shard_longer_than_the_lease_ttl_is_heartbeated(tmp_path):
    async def scenario():
        manager = make_manager(tmp_path)
        supervisor = JobSupervisor(
            manager,
            tmp_path / "checkpoints",
            lease_manager=LeaseManager(ttl_s=0.3, metrics=manager.metrics),
        )
        spec = small_spec()
        job, _ = await manager.submit(spec, client="a")
        with FaultPlan(FaultSpec(ENGINE_SHARD_START, "delay", delay_s=1.0)):
            await asyncio.wait_for(supervisor.run_job(job), timeout=60.0)
        assert job.state == DONE, job.error
        _spec, records = manager.store.load(job.job_id)
        assert records == run_campaign(spec)
        assert counter(manager.metrics, "fleet.leases_expired") == 0
        assert counter(manager.metrics, "fleet.leases_reassigned") == 0

    run_async(scenario())


def test_local_shards_do_not_wait_for_the_status_poll(tmp_path, monkeypatch):
    def instant(spec_json, shard, attempt=0, observe=False, trace_header=None):
        return _ShardOutcome(
            shard=shard, attempt=attempt, ok=True, units=[], flips=0, elapsed_s=0.0
        )

    monkeypatch.setattr("repro.fleet.driver.execute_shard", instant)

    async def scenario():
        manager = make_manager(tmp_path)
        supervisor = JobSupervisor(manager, tmp_path / "checkpoints", shard_size=1)
        spec = small_spec(sites_per_module=8)
        job, _ = await manager.submit(spec, client="a")
        assert len(plan_shards(spec, shard_size=1)) == 16
        started = time.monotonic()
        await asyncio.wait_for(supervisor.run_job(job), timeout=60.0)
        assert job.state == DONE, job.error
        assert time.monotonic() - started < 2.0

    run_async(scenario())


def test_local_job_settles_when_a_remote_worker_completes_its_last_shard(
    tmp_path, monkeypatch
):
    """A ``repro worker`` may lease a local job's shards, the last one too."""
    spec = small_spec()
    local_started = threading.Event()
    remote_leased = threading.Event()

    def local(*args, **kwargs):
        local_started.set()
        remote_leased.wait(10.0)
        return engine.execute_shard(*args, **kwargs)

    monkeypatch.setattr("repro.fleet.driver.execute_shard", local)

    async def until(condition):
        deadline = time.monotonic() + 10.0
        while not condition():
            assert time.monotonic() < deadline
            await asyncio.sleep(0.01)

    async def scenario():
        manager = make_manager(tmp_path)
        supervisor = JobSupervisor(manager, tmp_path / "checkpoints", shard_size=2)
        table = supervisor.lease_manager
        job, _ = await manager.submit(spec, client="a")
        assert len(plan_shards(spec, shard_size=2)) == 2
        running = asyncio.create_task(supervisor.run_job(job))
        await until(local_started.is_set)
        # The remote worker leases the other shard and uploads it after
        # the local driver completed its own, as the HTTP routes would.
        (grant,) = table.acquire("remote", 1)
        remote_leased.set()
        await until(lambda: table.job_status(job.job_id).shards_completed == 1)
        outcome = await asyncio.to_thread(
            engine.execute_shard, grant.spec_json, grant.shard, grant.attempt
        )
        await supervisor.complete(
            grant.lease_id, "remote", grant.epoch, outcome_to_payload(outcome)
        )
        await asyncio.wait_for(running, timeout=5.0)
        assert job.state == DONE, job.error
        _spec, records = manager.store.load(job.job_id)
        assert records == run_campaign(spec)

    run_async(scenario())


def test_dead_pool_process_costs_a_local_job_one_attempt(tmp_path, monkeypatch):
    spec = small_spec(sites_per_module=4)
    expected = run_campaign(spec)
    monkeypatch.setattr(engine, "_run_shard_units", _die_at_first_attempt_of(3))

    async def scenario():
        manager = make_manager(tmp_path)
        supervisor = JobSupervisor(
            manager, tmp_path / "checkpoints", engine_workers=2, shard_size=1
        )
        closed = []
        close_job = supervisor.lease_manager.close_job

        def close_and_keep(job_id):
            closed.append(close_job(job_id))
            return closed[-1]

        monkeypatch.setattr(supervisor.lease_manager, "close_job", close_and_keep)
        job, _ = await manager.submit(spec, client="a")
        await asyncio.wait_for(supervisor.run_job(job), timeout=120.0)
        assert job.state == DONE, job.error
        (result,) = closed
        assert not result.failures
        assert result.retries == 1  # no sibling shard was charged an attempt
        _spec, records = manager.store.load(job.job_id)
        assert records == expected

    run_async(scenario())
    assert multiprocessing.active_children() == []
