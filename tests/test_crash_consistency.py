"""Crash consistency: engine checkpoints and the service survive kills.

Every test installs a :class:`FaultPlan` that kills the process (an
``InjectedCrash``, which no ``except Exception`` can swallow) at a
named production fault point, then restarts the component from disk
and asserts the two durability invariants:

* a shard whose checkpoint append completed is **never** re-run or
  lost, and a truncated trailing append only costs that one shard;
* the result store never serves a corrupt (partially written) entry —
  a damaged file is a cache miss, so the campaign simply runs again.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from pathlib import Path

import pytest

from repro.characterization.campaign import CampaignSpec, run_campaign
from repro.characterization.engine import CampaignCheckpoint, plan_shards, run_engine
from repro.service.jobs import DONE, QUEUED, JobManager, JobSupervisor
from repro.service.store import ResultStore, spec_key
from repro.testkit import FaultPlan, FaultSpec, InjectedCrash, prop, service_requests
from repro.testkit.faults import FaultError
from repro.testkit.points import (
    ENGINE_CHECKPOINT_APPEND,
    ENGINE_SHARD_START,
    FLEET_WORKER_COMPLETE,
    SERVICE_JOB_PERSIST,
    SERVICE_STORE_PUT,
    SERVICE_STORE_READ,
)


def small_spec(**kwargs):
    defaults = dict(
        name="crash-unit",
        module_ids=("S3",),
        experiment="acmin",
        t_aggon_values=(36.0, 7800.0),
        activation_counts=(1, 100),
        sites_per_module=3,
        seed=11,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


# ----------------------------------------------------------------------
# engine checkpoint
# ----------------------------------------------------------------------


def test_truncated_checkpoint_append_loses_only_that_shard(tmp_path):
    spec = small_spec()
    path = tmp_path / "ckpt.jsonl"
    plan = FaultPlan(
        FaultSpec(ENGINE_CHECKPOINT_APPEND, "truncate", at_hit=3, keep_bytes=10)
    )
    with plan:
        with pytest.raises(InjectedCrash):
            run_engine(spec, workers=1, shard_size=1, checkpoint=path)
    assert plan.fired  # the kill really happened mid-append

    # The two fully appended shards survive; the truncated third is
    # dropped by load() (it just re-runs), never parsed as garbage.
    survivors = CampaignCheckpoint(path, spec, shard_size=1).load()
    assert len(survivors) == 2

    resumed = run_engine(spec, workers=1, shard_size=1, checkpoint=path, resume=True)
    assert resumed.ok
    assert resumed.shards_resumed == 2
    assert resumed.records == run_campaign(spec)


def test_crash_at_shard_start_resumes_completed_work(tmp_path):
    spec = small_spec()
    path = tmp_path / "ckpt.jsonl"
    with FaultPlan(FaultSpec(ENGINE_SHARD_START, "crash", at_hit=4)):
        with pytest.raises(InjectedCrash):
            run_engine(spec, workers=1, shard_size=1, checkpoint=path)

    # Three shards finished (and checkpointed) before the kill.
    assert len(CampaignCheckpoint(path, spec, shard_size=1).load()) == 3

    resumed = run_engine(spec, workers=1, shard_size=1, checkpoint=path, resume=True)
    assert resumed.ok
    assert resumed.shards_resumed == 3
    assert resumed.records == run_campaign(spec)


def test_repeated_crashes_still_converge(tmp_path):
    """Every restart makes progress; N kills never lose finished shards."""
    spec = small_spec()
    path = tmp_path / "ckpt.jsonl"
    completed = 0
    for _ in range(10):  # more attempts than shards
        plan = FaultPlan(
            FaultSpec(ENGINE_CHECKPOINT_APPEND, "truncate", at_hit=2, keep_bytes=5)
        )
        try:
            with plan:
                result = run_engine(
                    spec,
                    workers=1,
                    shard_size=1,
                    checkpoint=path,
                    resume=path.exists(),
                )
            break
        except InjectedCrash:
            now_completed = len(CampaignCheckpoint(path, spec, shard_size=1).load())
            assert now_completed >= completed  # progress is monotone
            completed = now_completed
    else:
        pytest.fail("engine never completed despite per-run progress")
    assert result.ok
    assert result.records == run_campaign(spec)


# ----------------------------------------------------------------------
# result store
# ----------------------------------------------------------------------


def test_truncated_store_put_is_a_cache_miss_not_corrupt_data(tmp_path):
    store = ResultStore(tmp_path)
    spec = small_spec(sites_per_module=1)
    records = run_campaign(spec)
    key = spec_key(spec)

    with FaultPlan(FaultSpec(SERVICE_STORE_PUT, "truncate", keep_bytes=25)):
        with pytest.raises(InjectedCrash):
            store.put(spec, records)
    assert store.path(key).exists()  # partial bytes did land on disk

    # The damaged entry is never served: miss on has(), KeyError on
    # read, quarantined off the key listing for post-mortems.
    assert not store.has(key)
    with pytest.raises(KeyError):
        store.read_text(key)
    assert key not in store.keys()
    assert store.path(key).with_name(f"{key}.json.corrupt").exists()

    # A re-run re-puts cleanly over the quarantined entry.
    assert store.put(spec, records) == key
    loaded_spec, loaded_records = store.load(key)
    assert loaded_spec == spec
    assert loaded_records == records


def test_store_read_io_error_is_surfaced_not_misserved(tmp_path):
    store = ResultStore(tmp_path)
    spec = small_spec(sites_per_module=1)
    store.put(spec, run_campaign(spec))
    with FaultPlan(FaultSpec(SERVICE_STORE_READ, "io-error")):
        with pytest.raises(FaultError):
            store.read_text(spec_key(spec))
    # After the transient error the entry is still intact.
    assert store.has(spec_key(spec))


# ----------------------------------------------------------------------
# job manager
# ----------------------------------------------------------------------


def run_async(coroutine):
    return asyncio.run(coroutine)


def test_crash_during_submit_persist_leaves_no_ghost_job(tmp_path):
    async def scenario():
        manager = JobManager(tmp_path, ResultStore(tmp_path / "results"))
        spec = small_spec(sites_per_module=1)
        with FaultPlan(FaultSpec(SERVICE_JOB_PERSIST, "crash")):
            with pytest.raises(InjectedCrash):
                await manager.submit(spec)
        # The client never got an ack, and the crash happened before
        # the job record hit disk: a restart knows nothing about it.
        fresh = JobManager(tmp_path, ResultStore(tmp_path / "results"))
        assert fresh.recover() == 0
        assert fresh.jobs == {}

    run_async(scenario())


def test_recover_requeues_done_job_whose_cached_result_went_corrupt(tmp_path):
    spec = small_spec(sites_per_module=1)
    records = run_campaign(spec)
    key = spec_key(spec)

    async def scenario():
        store = ResultStore(tmp_path / "results")
        store.put(spec, records)
        manager = JobManager(tmp_path, store)
        job, outcome = await manager.submit(spec)
        assert outcome == "cached" and job.state == DONE

        # Corrupt the stored result behind the service's back (as a
        # truncated non-atomic write would have).
        store.path(key).write_text('{"schema_version": 2, "spe')

        fresh = JobManager(tmp_path, ResultStore(tmp_path / "results"))
        assert fresh.recover() == 1  # the DONE job went back in the queue
        assert fresh.jobs[key].state == QUEUED
        assert not fresh.store.has(key)  # quarantined, never served

    run_async(scenario())


# ----------------------------------------------------------------------
# generative session property: restarts never lose or corrupt state
# ----------------------------------------------------------------------

_SPECS = tuple(
    small_spec(name=f"session-{index}", sites_per_module=1, seed=20 + index)
    for index in range(3)
)
_CACHED_RECORDS: dict[int, list] = {}


def _records_for(index: int) -> list:
    if index not in _CACHED_RECORDS:
        _CACHED_RECORDS[index] = run_campaign(_SPECS[index])
    return _CACHED_RECORDS[index]


@prop(max_examples=10, session=service_requests(max_ops=10, distinct_specs=3))
def test_service_sessions_survive_restarts(session):
    """Any submit/status/results/restart interleaving stays consistent."""

    async def scenario():
        with tempfile.TemporaryDirectory() as raw_dir:
            data_dir = Path(raw_dir)
            store = ResultStore(data_dir / "results")
            store.put(_SPECS[0], _records_for(0))  # spec 0 is pre-cached
            manager = JobManager(data_dir, store)
            submitted: set[str] = set()
            for op, index in session:
                spec = _SPECS[index]
                key = spec_key(spec)
                if op == "submit":
                    job, outcome = await manager.submit(spec)
                    submitted.add(key)
                    if index == 0:
                        assert outcome == "cached" and job.state == DONE
                    else:
                        assert outcome in ("new", "duplicate")
                elif op == "status":
                    job = manager.jobs.get(key)
                    if job is not None:
                        assert job.state in (QUEUED, DONE)
                elif op == "results":
                    if store.has(key):
                        loaded_spec, loaded = store.load(key)
                        assert loaded_spec == spec
                        assert loaded == _records_for(index)
                else:  # restart: new process recovers from disk
                    manager = JobManager(data_dir, ResultStore(data_dir / "results"))
                    manager.recover()
                    store = manager.store
                # Submitted jobs are durable across every op, and DONE
                # is only ever backed by a valid stored result.
                assert submitted <= set(manager.jobs)
                for job_key, job in manager.jobs.items():
                    if job.state == DONE:
                        assert manager.store.has(job_key)

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# the shard driver's completion window, under each in-process caller
# ----------------------------------------------------------------------


def checkpoint_shard_ids(text: str) -> list[str]:
    lines = [json.loads(line) for line in text.splitlines()]
    return sorted(line["shard_id"] for line in lines if line["kind"] == "shard")


def test_engine_crash_between_execute_and_complete_resumes_every_shard_once(
    tmp_path,
):
    spec = small_spec()
    path = tmp_path / "ckpt.jsonl"
    with FaultPlan(FaultSpec(FLEET_WORKER_COMPLETE, "crash", at_hit=3)):
        with pytest.raises(InjectedCrash):
            run_engine(spec, workers=1, shard_size=1, checkpoint=path)

    # The third shard ran but was never completed: only two are on disk.
    assert len(CampaignCheckpoint(path, spec, shard_size=1).load()) == 2

    resumed = run_engine(spec, workers=1, shard_size=1, checkpoint=path, resume=True)
    assert resumed.ok
    assert resumed.shards_resumed == 2
    assert resumed.records == run_campaign(spec)
    assert checkpoint_shard_ids(path.read_text()) == sorted(
        shard.shard_id for shard in plan_shards(spec, 1)
    )


def test_local_job_crash_between_execute_and_complete_resumes_in_a_fresh_supervisor(
    tmp_path, monkeypatch
):
    spec = small_spec(sites_per_module=2)
    expected = run_campaign(spec)
    # The settle unlinks the job checkpoint; keep its final text.
    settled_checkpoints = []
    finalize = JobSupervisor._warehouse_finalize

    def keep_checkpoint(supervisor, job):
        settled_checkpoints.append(supervisor.checkpoint_path(job).read_text())
        finalize(supervisor, job)

    monkeypatch.setattr(JobSupervisor, "_warehouse_finalize", keep_checkpoint)

    async def first_life():
        manager = JobManager(tmp_path, ResultStore(tmp_path / "results"))
        supervisor = JobSupervisor(manager, tmp_path / "checkpoints", shard_size=1)
        job, _ = await manager.submit(spec)
        with FaultPlan(FaultSpec(FLEET_WORKER_COMPLETE, "crash", at_hit=2)):
            with pytest.raises(InjectedCrash):
                await supervisor.run_job(job)
        return job.job_id

    job_id = run_async(first_life())

    async def second_life():
        manager = JobManager(tmp_path, ResultStore(tmp_path / "results"))
        assert manager.recover() == 1
        supervisor = JobSupervisor(manager, tmp_path / "checkpoints", shard_size=1)
        job = await asyncio.wait_for(manager.next_job(), timeout=1.0)
        await asyncio.wait_for(supervisor.run_job(job), timeout=60.0)
        assert job.state == DONE, job.error
        assert job.events[-1]["shards_resumed"] == 1
        _spec, records = manager.store.load(job_id)
        assert records == expected

    run_async(second_life())
    (text,) = settled_checkpoints
    assert checkpoint_shard_ids(text) == sorted(
        shard.shard_id for shard in plan_shards(spec, 1)
    )
