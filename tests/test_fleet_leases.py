"""Lease-protocol unit tests: TTLs, fencing epochs, exactly-once shards.

Everything here drives a real :class:`~repro.fleet.leases.LeaseManager`
with a fake clock (no sleeping, no HTTP) and uses the engine's public
``execute_shard`` as the worker, so the acceptance oracle is the real
one: the merged records must be byte-identical to a sequential
``run_campaign`` regardless of which "worker" ran what, who died, or
how often a lease expired.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from repro.characterization.campaign import (
    CampaignSpec,
    dumps_results,
    run_campaign,
)
from repro.characterization.engine import (
    CampaignCheckpoint,
    execute_shard,
    plan_shards,
)
from repro.fleet.leases import (
    FencingViolation,
    LeaseManager,
    UnknownLease,
    outcome_to_payload,
)
from repro.testkit import FaultPlan, FaultSpec, integers, lists, prop
from repro.testkit.points import ENGINE_SHARD_START

TTL_S = 10.0


def small_spec(**kwargs):
    defaults = dict(
        name="fleet-unit",
        module_ids=("S3",),
        experiment="acmin",
        t_aggon_values=(36.0, 7800.0),
        activation_counts=(1, 100),
        sites_per_module=2,
        seed=13,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def open_manager(tmp_path, spec=None, shard_size=1, clock=None, **kwargs):
    """A LeaseManager with one open job over ``spec``'s shards."""
    spec = spec if spec is not None else small_spec()
    clock = clock if clock is not None else FakeClock()
    shards = plan_shards(spec, shard_size)
    ckpt = CampaignCheckpoint(tmp_path / "ckpt.jsonl", spec, shard_size)
    ckpt.start()
    manager = LeaseManager(ttl_s=TTL_S, clock=clock, **kwargs)
    manager.open_job(
        "job-1",
        spec.to_json(),
        shards,
        {},
        ckpt,
        units_total=sum(len(shard.site_indices) for shard in shards),
    )
    return manager, clock, shards, ckpt, spec


def wire_result(grant, ok=True, error=None):
    """Execute a grant's shard and JSON-roundtrip the payload (as HTTP would)."""
    if ok:
        payload = outcome_to_payload(
            execute_shard(grant.spec_json, grant.shard, attempt=grant.attempt)
        )
    else:
        payload = {
            "ok": False,
            "error": error or "synthetic failure",
            "shard_id": grant.shard.shard_id,
            "seed": grant.shard.seed,
            "attempt": grant.attempt,
            "elapsed_s": 0.0,
            "flips": 0,
            "units": [],
        }
    return json.loads(json.dumps(payload))


def finish(manager, worker_id="w"):
    """Drain every pending shard through ``worker_id``; apply appends."""
    while True:
        grants = manager.acquire(worker_id, max_shards=4)
        if not grants:
            return
        for grant in grants:
            result = manager.complete(
                grant.lease_id, worker_id, grant.epoch, wire_result(grant)
            )
            if result.checkpoint_append is not None:
                result.checkpoint_append()


# ----------------------------------------------------------------------
# grants, heartbeats, expiry
# ----------------------------------------------------------------------


def test_acquire_grants_shards_in_plan_order_once(tmp_path):
    manager, _clock, shards, _ckpt, _spec = open_manager(tmp_path)
    grants = manager.acquire("w1", max_shards=len(shards) + 5)
    assert [g.shard.shard_id for g in grants] == [s.shard_id for s in shards]
    assert all(g.epoch == 1 for g in grants)
    assert manager.acquire("w2", max_shards=1) == []  # everything leased


def test_heartbeat_within_ttl_renews_the_lease(tmp_path):
    manager, clock, _shards, _ckpt, _spec = open_manager(tmp_path)
    (grant,) = manager.acquire("w1", max_shards=1)
    for _ in range(5):  # renewed leases survive far beyond one TTL
        clock.advance(TTL_S * 0.8)
        assert manager.heartbeat(grant.lease_id, "w1", grant.epoch) == TTL_S
    assert manager.job_status("job-1").shards_leased == 1


def test_heartbeat_after_expiry_is_rejected_with_409(tmp_path):
    manager, clock, _shards, _ckpt, _spec = open_manager(tmp_path)
    (grant,) = manager.acquire("w1", max_shards=1)
    clock.advance(TTL_S + 0.1)
    with pytest.raises(FencingViolation) as excinfo:
        manager.heartbeat(grant.lease_id, "w1", grant.epoch)
    assert excinfo.value.status == 409
    # The shard went back to the pending pool for reassignment.
    assert manager.job_status("job-1").shards_pending >= 1


def test_expired_lease_is_reassigned_with_bumped_epoch(tmp_path):
    manager, clock, _shards, _ckpt, _spec = open_manager(tmp_path)
    (first,) = manager.acquire("w1", max_shards=1)
    clock.advance(TTL_S + 0.1)
    (second,) = manager.acquire("w2", max_shards=1)
    assert second.shard.shard_id == first.shard.shard_id
    assert second.epoch == first.epoch + 1
    snapshot = manager.metrics.to_dict()
    reassigned = [
        c for c in snapshot["counters"] if c["name"] == "fleet.leases_reassigned"
    ]
    assert reassigned and reassigned[0]["value"] == 1


def test_unknown_lease_id_answers_404(tmp_path):
    manager, _clock, _shards, _ckpt, _spec = open_manager(tmp_path)
    with pytest.raises(UnknownLease) as excinfo:
        manager.heartbeat("L999", "w1", 1)
    assert excinfo.value.status == 404


# ----------------------------------------------------------------------
# completion fencing and idempotency
# ----------------------------------------------------------------------


def test_zombie_completion_after_reassignment_is_fenced_off(tmp_path):
    manager, clock, _shards, ckpt, _spec = open_manager(tmp_path)
    (zombie,) = manager.acquire("w1", max_shards=1)
    zombie_result = wire_result(zombie)
    clock.advance(TTL_S + 0.1)  # w1 stalls; its lease expires
    (fresh,) = manager.acquire("w2", max_shards=1)
    accepted = manager.complete(
        fresh.lease_id, "w2", fresh.epoch, wire_result(fresh)
    )
    assert accepted.outcome == "accepted"
    accepted.checkpoint_append()
    # The zombie wakes up and uploads its stale result: rejected, and the
    # checkpoint still holds exactly one record for the shard.
    with pytest.raises(FencingViolation):
        manager.complete(zombie.lease_id, "w1", zombie.epoch, zombie_result)
    lines = [
        json.loads(line)
        for line in ckpt.path.read_text().splitlines()
        if json.loads(line)["kind"] == "shard"
    ]
    assert len(lines) == 1
    assert lines[0]["shard_id"] == zombie.shard.shard_id


def test_duplicate_completion_is_idempotent(tmp_path):
    manager, _clock, _shards, ckpt, _spec = open_manager(tmp_path)
    (grant,) = manager.acquire("w1", max_shards=1)
    result = wire_result(grant)
    first = manager.complete(grant.lease_id, "w1", grant.epoch, result)
    assert first.outcome == "accepted"
    first.checkpoint_append()
    again = manager.complete(grant.lease_id, "w1", grant.epoch, result)
    assert again.outcome == "duplicate"
    assert again.checkpoint_append is None
    shard_lines = [
        line
        for line in ckpt.path.read_text().splitlines()
        if json.loads(line)["kind"] == "shard"
    ]
    assert len(shard_lines) == 1


def test_completion_from_wrong_worker_is_fenced(tmp_path):
    manager, _clock, _shards, _ckpt, _spec = open_manager(tmp_path)
    (grant,) = manager.acquire("w1", max_shards=1)
    with pytest.raises(FencingViolation):
        manager.complete(grant.lease_id, "w2", grant.epoch, wire_result(grant))


def test_reported_failures_retry_then_fail_permanently(tmp_path):
    manager, _clock, _shards, _ckpt, _spec = open_manager(tmp_path)
    shard_id = None
    for round_index in range(manager.max_retries + 1):
        (grant,) = manager.acquire("w1", max_shards=1)
        if shard_id is None:
            shard_id = grant.shard.shard_id
        assert grant.shard.shard_id == shard_id  # same shard re-leased
        outcome = manager.complete(
            grant.lease_id,
            "w1",
            grant.epoch,
            wire_result(grant, ok=False, error="boom"),
        )
        expected = (
            "retry" if round_index < manager.max_retries else "failed"
        )
        assert outcome.outcome == expected
    status = manager.job_status("job-1")
    assert status.shards_failed == 1
    finish(manager)
    result = manager.close_job("job-1")
    assert len(result.failures) == 1
    assert result.failures[0].shard_id == shard_id
    assert result.failures[0].attempts == manager.max_retries + 1


def test_permanent_failure_keeps_the_worker_traceback(tmp_path):
    manager, _clock, _shards, ckpt, _spec = open_manager(tmp_path)
    attempts = manager.max_retries + 1
    with FaultPlan(FaultSpec(ENGINE_SHARD_START, "io-error", times=attempts)):
        for _ in range(attempts):
            (grant,) = manager.acquire("w1", max_shards=1)
            outcome = manager.complete(
                grant.lease_id, "w1", grant.epoch, wire_result(grant)
            )
    assert outcome.outcome == "failed"
    outcome.checkpoint_append()
    (failure,) = manager.close_job("job-1").failures
    assert "injected io-error" in failure.error
    assert failure.traceback.startswith("Traceback")
    assert "FaultError" in failure.traceback
    (line,) = [
        json.loads(line)
        for line in ckpt.path.read_text().splitlines()
        if json.loads(line)["kind"] == "failure"
    ]
    assert line["traceback"] == failure.traceback


# ----------------------------------------------------------------------
# on_pending: the long-poll wake hook
# ----------------------------------------------------------------------


def test_on_pending_fires_when_a_job_opens_with_leasable_shards(tmp_path):
    wakes = []
    open_manager(tmp_path, on_pending=lambda: wakes.append("wake"))
    assert wakes == ["wake"]


def test_on_pending_fires_when_a_failed_attempt_is_requeued(tmp_path):
    wakes = []
    manager, _clock, _shards, _ckpt, _spec = open_manager(
        tmp_path, on_pending=lambda: wakes.append("wake")
    )
    wakes.clear()
    (grant,) = manager.acquire("w1", max_shards=1)
    assert wakes == []  # a grant makes nothing leasable
    outcome = manager.complete(
        grant.lease_id, "w1", grant.epoch, wire_result(grant, ok=False)
    )
    assert outcome.outcome == "retry"
    assert wakes == ["wake"]


def test_on_pending_fires_when_an_expired_lease_returns_its_shard(tmp_path):
    wakes = []
    manager, clock, _shards, _ckpt, _spec = open_manager(
        tmp_path, on_pending=lambda: wakes.append("wake")
    )
    wakes.clear()
    manager.acquire("w1", max_shards=2)
    clock.advance(TTL_S - 1.0)
    manager.job_status("job-1")
    assert wakes == []  # still inside the TTL
    clock.advance(2.0)
    assert manager.job_status("job-1").shards_leased == 0
    assert wakes == ["wake"]  # one scan, one wake for both shards


def test_on_pending_is_silent_for_a_job_whose_shards_all_resumed(tmp_path):
    spec = small_spec()
    manager, _clock, shards, ckpt, _spec = open_manager(tmp_path, spec)
    finish(manager)
    manager.close_job("job-1")
    resumed = CampaignCheckpoint(tmp_path / "ckpt.jsonl", spec, 1).load()
    assert len(resumed) == len(shards)
    wakes = []
    fresh = LeaseManager(
        ttl_s=TTL_S, clock=FakeClock(), on_pending=lambda: wakes.append("wake")
    )
    fresh.open_job(
        "job-1",
        spec.to_json(),
        shards,
        resumed,
        ckpt,
        units_total=sum(len(shard.site_indices) for shard in shards),
    )
    assert fresh.job_status("job-1").settled
    assert wakes == []


# ----------------------------------------------------------------------
# byte-identity: the core acceptance oracle
# ----------------------------------------------------------------------


def test_fleet_results_are_byte_identical_to_sequential_run(tmp_path):
    spec = small_spec()
    manager, _clock, _shards, _ckpt, _spec = open_manager(tmp_path, spec)
    finish(manager)
    result = manager.close_job("job-1")
    assert not result.failures
    assert dumps_results(spec, result.records) == dumps_results(
        spec, run_campaign(spec)
    )


def test_resume_from_checkpoint_skips_completed_shards(tmp_path):
    spec = small_spec(sites_per_module=3)
    manager, _clock, shards, ckpt, _spec = open_manager(tmp_path, spec)
    # Complete half the shards, then "restart" into a new manager.
    for grant in manager.acquire("w1", max_shards=len(shards) // 2):
        done = manager.complete(
            grant.lease_id, "w1", grant.epoch, wire_result(grant)
        )
        done.checkpoint_append()
    completed = len(shards) // 2

    ckpt2 = CampaignCheckpoint(tmp_path / "ckpt.jsonl", spec, 1)
    resumed = ckpt2.load()
    assert len(resumed) == completed
    manager2 = LeaseManager(ttl_s=TTL_S, clock=FakeClock())
    manager2.open_job(
        "job-1",
        spec.to_json(),
        shards,
        resumed,
        ckpt2,
        units_total=sum(len(shard.site_indices) for shard in shards),
    )
    assert manager2.job_status("job-1").shards_pending == len(shards) - completed
    finish(manager2, "w2")
    result = manager2.close_job("job-1")
    assert result.shards_resumed == completed
    assert dumps_results(spec, result.records) == dumps_results(
        spec, run_campaign(spec)
    )


# ----------------------------------------------------------------------
# generative: random kill/join schedules always converge
# ----------------------------------------------------------------------


@prop(
    max_examples=8,
    steps=lists(integers(0, 5), min_size=6, max_size=24),
)
def test_random_kill_join_schedule_converges_to_sequential_result(steps):
    """Chaos-monkey the protocol; the bytes must not care.

    Each step either leases to a random worker, completes an outstanding
    lease, kills a worker (drop its heartbeats and advance past the
    TTL), or uploads a stale zombie result.  Afterwards one reliable
    worker finishes whatever is left.  Invariants: the merged records
    are byte-identical to the sequential run, and the checkpoint holds
    exactly one record per shard.
    """
    with tempfile.TemporaryDirectory() as raw_dir:
        _run_schedule(steps, Path(raw_dir))


def _run_schedule(steps, tmp_path):
    spec = small_spec()
    manager, clock, shards, ckpt, _spec = open_manager(tmp_path, spec)
    workers = ["w0", "w1", "w2"]
    outstanding = []  # (worker_id, grant) believed live by its worker
    zombies = []  # (worker_id, grant, result) from killed workers

    for step in steps:
        action = step % 4
        worker = workers[step % len(workers)]
        if action == 0:
            for grant in manager.acquire(worker, max_shards=1):
                outstanding.append((worker, grant))
        elif action == 1 and outstanding:
            worker, grant = outstanding.pop(0)
            try:
                done = manager.complete(
                    grant.lease_id, worker, grant.epoch, wire_result(grant)
                )
            except FencingViolation:
                continue  # expired while "executing"; server fenced it
            if done.checkpoint_append is not None:
                done.checkpoint_append()
        elif action == 2 and outstanding:
            # Kill the worker holding the oldest lease: it stops
            # heartbeating but keeps its computed result as a zombie.
            dead, grant = outstanding.pop(0)
            zombies.append((dead, grant, wire_result(grant)))
            clock.advance(TTL_S + 0.1)
        elif action == 3 and zombies:
            dead, grant, result = zombies.pop(0)
            try:
                late = manager.complete(grant.lease_id, dead, grant.epoch, result)
            except (FencingViolation, UnknownLease):
                continue  # the fence held
            # Accepted means the lease was still genuinely valid.
            if late.checkpoint_append is not None:
                late.checkpoint_append()

    clock.advance(TTL_S + 0.1)  # expire whatever the chaos left behind
    finish(manager, "finisher")
    result = manager.close_job("job-1")
    assert not result.failures
    assert dumps_results(spec, result.records) == dumps_results(
        spec, run_campaign(spec)
    )
    per_shard: dict[str, int] = {}
    for line in ckpt.path.read_text().splitlines():
        payload = json.loads(line)
        if payload["kind"] == "shard":
            per_shard[payload["shard_id"]] = (
                per_shard.get(payload["shard_id"], 0) + 1
            )
    assert set(per_shard) == {shard.shard_id for shard in shards}
    assert all(count == 1 for count in per_shard.values())
