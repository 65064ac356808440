"""FleetWorker tests against an in-process lease server (no HTTP).

The fake client speaks the exact wire shapes (`LeaseGrant.to_payload`,
JSON-roundtripped completion bodies, :class:`ServiceError` with the
protocol's status codes) into a real :class:`LeaseManager`, so these
tests exercise the worker's full loop — lease, execute through the real
engine, heartbeat bookkeeping, upload, fencing discard — with
deterministic clocks and crash injection, minus only the socket.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time

from repro.characterization.campaign import (
    CampaignSpec,
    dumps_results,
    run_campaign,
)
from repro.characterization.engine import CampaignCheckpoint, plan_shards
from repro.fleet.leases import LeaseError, LeaseManager
from repro.fleet.worker import FleetWorker
from repro.service.client import ServiceError
from repro.testkit import FaultPlan, FaultSpec
from repro.testkit.points import (
    ENGINE_SHARD_START,
    FLEET_WORKER_COMPLETE,
    FLEET_WORKER_EXECUTE,
)

TTL_S = 30.0


def small_spec(**kwargs):
    defaults = dict(
        name="fleet-worker-unit",
        module_ids=("S3",),
        experiment="acmin",
        t_aggon_values=(36.0, 7800.0),
        activation_counts=(1, 100),
        sites_per_module=2,
        seed=17,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class InProcessLeaseClient:
    """ServiceClient's lease surface, bridged straight to a LeaseManager.

    The real manager is event-loop-single-threaded; worker threads call
    concurrently, so every call takes one lock (standing in for the
    loop's serialization).  Completion payloads are JSON-roundtripped,
    exactly as HTTP would.
    """

    def __init__(self, manager: LeaseManager):
        self.manager = manager
        self.lock = threading.Lock()

    def lease_shards(self, worker_id, max_shards=1, wait_s=0.0):
        # Answers at once, as a server that does not wait would.
        with self.lock:
            grants = self.manager.acquire(worker_id, max_shards)
        body = {"leases": [grant.to_payload() for grant in grants]}
        if not grants:
            body["retry_after_s"] = 0.01
        return json.loads(json.dumps(body))

    def lease_heartbeat(self, lease_id, worker_id, epoch):
        with self.lock:
            try:
                ttl_s = self.manager.heartbeat(lease_id, worker_id, epoch)
            except LeaseError as error:
                raise ServiceError(error.status, str(error))
        return {"ttl_s": ttl_s}

    def lease_complete(self, lease_id, worker_id, epoch, result):
        result = json.loads(json.dumps(result))
        with self.lock:
            try:
                outcome = self.manager.complete(lease_id, worker_id, epoch, result)
            except LeaseError as error:
                raise ServiceError(error.status, str(error))
            if outcome.checkpoint_append is not None:
                outcome.checkpoint_append()
        return {"outcome": outcome.outcome}


def open_fleet_job(tmp_path, spec, clock, observe=False):
    shards = plan_shards(spec, 1)
    ckpt = CampaignCheckpoint(tmp_path / "ckpt.jsonl", spec, 1)
    ckpt.start()
    manager = LeaseManager(ttl_s=TTL_S, clock=clock)
    manager.open_job(
        "job-1",
        spec.to_json(),
        shards,
        {},
        ckpt,
        units_total=sum(len(shard.site_indices) for shard in shards),
        observe=observe,
        trace_now=(lambda: 0.0) if observe else None,
    )
    return manager, shards, ckpt


@contextlib.contextmanager
def quiet_thread_crashes():
    """Injected crashes kill worker threads by design; mute the hook."""
    previous = threading.excepthook
    threading.excepthook = lambda args: None
    try:
        yield
    finally:
        threading.excepthook = previous


def test_worker_drains_the_job_and_results_are_byte_identical(tmp_path):
    spec = small_spec()
    clock = FakeClock()
    manager, shards, _ckpt = open_fleet_job(tmp_path, spec, clock, observe=True)
    worker = FleetWorker(
        client=InProcessLeaseClient(manager),
        worker_id="wt-1",
        concurrency=2,
        poll_s=0.01,
        max_idle_s=0.5,
    )
    stats = worker.run()
    assert stats.shards_executed == len(shards)
    assert stats.shards_discarded == 0
    assert not stats.errors
    result = manager.close_job("job-1")
    assert not result.failures
    assert dumps_results(spec, result.records) == dumps_results(
        spec, run_campaign(spec)
    )
    # observe=True workers shipped their spans back with each completion.
    assert result.trace_batches
    spans = [span for batch, _, _ in result.trace_batches for span in batch]
    assert any(span["name"] == "campaign.shard" for span in spans)


def test_worker_killed_mid_shard_is_reassigned_without_double_count(tmp_path):
    """Crash at each worker fault point; a fresh worker finishes cleanly."""
    for point in (FLEET_WORKER_EXECUTE, FLEET_WORKER_COMPLETE):
        spec = small_spec(seed=18 if point == FLEET_WORKER_EXECUTE else 19)
        clock = FakeClock()
        workdir = tmp_path / point
        workdir.mkdir()
        manager, shards, ckpt = open_fleet_job(workdir, spec, clock)
        client = InProcessLeaseClient(manager)
        doomed = FleetWorker(
            client=client,
            worker_id="wt-doomed",
            concurrency=1,
            poll_s=0.01,
            max_idle_s=0.5,
        )
        plan = FaultPlan(FaultSpec(point, "crash", at_hit=1))
        with plan, quiet_thread_crashes():
            doomed.run()  # the work thread dies at the injected crash
        assert plan.fired
        assert doomed.stats.shards_executed < len(shards)
        # The dead worker's lease expires; a fresh worker takes over.
        clock.advance(TTL_S + 0.1)
        survivor = FleetWorker(
            client=client,
            worker_id="wt-survivor",
            concurrency=1,
            poll_s=0.01,
            max_idle_s=0.5,
        )
        survivor.run()
        result = manager.close_job("job-1")
        assert not result.failures
        assert dumps_results(spec, result.records) == dumps_results(
            spec, run_campaign(spec)
        )
        # Exactly one checkpoint record per shard: nothing double-counted.
        shard_lines = [
            json.loads(line)["shard_id"]
            for line in ckpt.path.read_text().splitlines()
            if json.loads(line)["kind"] == "shard"
        ]
        assert sorted(shard_lines) == sorted(s.shard_id for s in shards)


def test_fenced_completion_is_discarded_not_retried(tmp_path):
    """A 409 on upload means the shard was reassigned: discard, move on."""

    class FencingClient(InProcessLeaseClient):
        def lease_complete(self, lease_id, worker_id, epoch, result):
            raise ServiceError(409, "lease expired; shard reassigned")

    spec = small_spec(seed=20)
    clock = FakeClock()
    manager, _shards, _ckpt = open_fleet_job(tmp_path, spec, clock)
    worker = FleetWorker(
        client=FencingClient(manager),
        worker_id="wt-zombie",
        concurrency=1,
        poll_s=0.01,
        max_shards=2,
    )
    stats = worker.run()
    assert stats.shards_discarded == 2
    assert stats.shards_executed == 0
    assert not stats.errors  # a fence is protocol, not an error


# ----------------------------------------------------------------------
# long-poll: the worker asks again at once after a reply that waited
# ----------------------------------------------------------------------


class ScriptedLeaseClient(InProcessLeaseClient):
    """Plays scripted lease replies first, then the table; logs each call."""

    def __init__(self, manager, replies):
        super().__init__(manager)
        self.replies = list(replies)
        self.calls = []  # (monotonic instant, wait_s) per lease request

    def lease_shards(self, worker_id, max_shards=1, wait_s=0.0):
        self.calls.append((time.monotonic(), wait_s))
        if self.replies:
            return self.replies.pop(0)
        return super().lease_shards(worker_id, max_shards, wait_s=wait_s)


def test_worker_asks_again_at_once_after_an_empty_reply_that_waited(tmp_path):
    manager, _shards, _ckpt = open_fleet_job(tmp_path, small_spec(), FakeClock())
    client = ScriptedLeaseClient(manager, [{"leases": []}, {"leases": []}])
    worker = FleetWorker(
        client=client, worker_id="wt-long", poll_s=5.0, max_shards=1
    )
    started = time.monotonic()
    stats = worker.run()
    assert stats.shards_executed == 1
    assert len(client.calls) == 3
    # Two waited-out empty replies, then the lease: no 5 s sleep between.
    assert client.calls[2][0] - started < 1.0
    assert all(wait_s == 5.0 for _, wait_s in client.calls)


def test_worker_backs_off_by_retry_after_when_the_server_did_not_wait(tmp_path):
    manager, _shards, _ckpt = open_fleet_job(tmp_path, small_spec(), FakeClock())
    client = ScriptedLeaseClient(manager, [{"leases": [], "retry_after_s": 0.2}])
    worker = FleetWorker(
        client=client, worker_id="wt-hint", poll_s=5.0, max_shards=1
    )
    stats = worker.run()
    assert stats.shards_executed == 1
    (first_s, _), (second_s, _) = client.calls[:2]
    assert 0.2 <= second_s - first_s < 5.0


# ----------------------------------------------------------------------
# stop rules: idle time and the shard cap
# ----------------------------------------------------------------------


def test_max_idle_counts_only_time_without_a_lease(tmp_path):
    """Shards slower than --max-idle-s still run: executing is not idle."""
    manager, shards, _ckpt = open_fleet_job(tmp_path, small_spec(), FakeClock())
    assert len(shards) == 4
    worker = FleetWorker(
        client=InProcessLeaseClient(manager),
        worker_id="wt-slow",
        poll_s=0.01,
        max_idle_s=0.3,
    )
    with FaultPlan(FaultSpec(ENGINE_SHARD_START, "delay", delay_s=0.5, times=10)):
        stats = worker.run()
    assert stats.shards_executed == len(shards)
    status = manager.job_status("job-1")
    assert status.settled and status.shards_completed == len(shards)


def test_max_shards_caps_the_leases_of_every_slot(tmp_path):
    """--max-shards 1 --concurrency 3 takes one lease, not one per slot."""
    spec = small_spec(seed=21)
    manager, _shards, _ckpt = open_fleet_job(tmp_path, spec, FakeClock())
    worker = FleetWorker(
        client=InProcessLeaseClient(manager),
        worker_id="wt-capped",
        concurrency=3,
        poll_s=0.01,
        max_shards=1,
    )
    stats = worker.run()
    assert stats.shards_executed == 1
    status = manager.job_status("job-1")
    assert status.shards_completed == 1
    assert status.shards_leased == 0
