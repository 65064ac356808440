"""The shard lease table: the one scheduler every campaign runs through.

The campaign engine's shard — one (module x site-block x sweep-point)
cell with a deterministic seed — is an independent, restartable unit of
work.  A :class:`LeaseManager` owns the shard tables of open jobs and
hands shards out as **leases**.  The service's table serves every job
of ``repro serve``: over HTTP to pull-based ``repro worker`` processes,
and in-process to the supervisor itself (worker id ``local``) on the
local backend.  ``repro campaign`` runs through a private table (no
HTTP, infinite TTL) inside
:func:`~repro.characterization.engine.run_engine`.  Either way the table
alone decides what runs next, when a failed shard retries (at once) or
fails permanently, what a resumed run skips, and the sweep order the
results come back in.  The table also tells its owner when a shard
becomes leasable (the ``on_pending`` hook), so the service can hold an
idle worker's ``POST /v1/leases`` open until there is work to grant.

The protocol invariants (exercised by ``tests/test_fleet_leases.py``):

* **TTL** — a granted lease must be renewed by heartbeat before
  ``ttl_s`` elapses or it *expires*: the shard returns to the pending
  pool and the next ``acquire`` reassigns it.
* **Fencing epochs** — every grant of a shard increments that shard's
  epoch, and every heartbeat/completion must present the epoch it was
  granted under.  A zombie worker (lease expired, shard reassigned)
  presenting a stale epoch is rejected with ``409``, so its late upload
  can never double-count a shard.
* **Idempotent completion** — completing a shard that is already
  completed is acknowledged as a ``duplicate`` and changes nothing.
* **At-most-one checkpoint record per shard** — only the first accepted
  completion appends to the job's engine checkpoint; everything a
  resumed run reads is exactly what one winning worker reported.

Because every shard is a deterministic function of its seed, *which*
worker ran it is irrelevant to the bytes of the merged result — the
lease protocol only has to guarantee exactly-once accounting, not
determinism.  All methods are synchronous and single-threaded by
contract (the service calls them on its event loop, like
:class:`~repro.service.jobs.JobManager`; the engine from its one
scheduling thread); time is injected so tests drive expiry with a fake
clock.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.characterization import registry
from repro.characterization.engine import (
    CampaignCheckpoint,
    EngineResult,
    ShardFailure,
    ShardSpec,
)
from repro.obs import MetricsRegistry, get_logger, monotonic_s

__all__ = [
    "LeaseError",
    "UnknownLease",
    "FencingViolation",
    "LeaseGrant",
    "CompletionResult",
    "FleetJobStatus",
    "LeaseManager",
    "shard_to_payload",
    "shard_from_payload",
    "outcome_to_payload",
]

logger = get_logger("fleet.leases")

#: Shard slot states inside a fleet job.
_PENDING = "pending"
_LEASED = "leased"
_COMPLETED = "completed"
_FAILED = "failed"


class LeaseError(Exception):
    """A lease operation was rejected; ``status`` is the HTTP mapping."""

    status = 400


class UnknownLease(LeaseError):
    """The lease id does not name a live lease (job finished or bogus)."""

    status = 404


class FencingViolation(LeaseError):
    """Stale epoch, expired lease, or wrong worker: the fence held."""

    status = 409


# ----------------------------------------------------------------------
# wire forms
# ----------------------------------------------------------------------


def shard_to_payload(shard: ShardSpec) -> dict:
    """JSON-safe form of a :class:`ShardSpec` for the lease response."""
    return {
        "index": shard.index,
        "shard_id": shard.shard_id,
        "module_id": shard.module_id,
        "module_index": shard.module_index,
        "site_indices": list(shard.site_indices),
        "sweep_index": shard.sweep_index,
        "seed": shard.seed,
    }


def shard_from_payload(payload: dict) -> ShardSpec:
    """Rebuild a :class:`ShardSpec` a lease response shipped."""
    return ShardSpec(
        index=payload["index"],
        shard_id=payload["shard_id"],
        module_id=payload["module_id"],
        module_index=payload["module_index"],
        site_indices=tuple(payload["site_indices"]),
        sweep_index=payload["sweep_index"],
        seed=payload["seed"],
    )


def outcome_to_payload(outcome) -> dict:
    """Completion body for one ``engine.execute_shard`` outcome.

    The success keys (``shard_id``/``seed``/``attempt``/``elapsed_s``/
    ``flips``/``units``) are the engine's checkpoint shard-line schema,
    so the table can append an accepted upload to the job checkpoint
    verbatim.  A failed attempt carries its ``error`` and
    ``traceback``, which land in the permanent failure record.
    ``spans``/``metrics`` ride along only when the worker observed (they
    merge into the service trace and are never checkpointed).
    """
    return {
        "ok": outcome.ok,
        "error": outcome.error,
        "traceback": outcome.traceback_text,
        **outcome.shard_line(),
        "spans": outcome.spans,
        "metrics": outcome.metrics,
    }


#: Checkpoint shard-line keys accepted from a completion payload.
_CHECKPOINT_KEYS = ("shard_id", "seed", "attempt", "elapsed_s", "flips", "units")


@dataclass(frozen=True)
class LeaseGrant:
    """One granted lease, as returned to (and serialized for) a worker."""

    lease_id: str
    job_id: str
    epoch: int
    ttl_s: float
    attempt: int
    spec_json: str
    shard: ShardSpec
    observe: bool = False
    trace_parent: str | None = None

    def to_payload(self) -> dict:
        """The JSON body entry for ``POST /v1/leases``."""
        return {
            "lease_id": self.lease_id,
            "job_id": self.job_id,
            "epoch": self.epoch,
            "ttl_s": self.ttl_s,
            "attempt": self.attempt,
            "spec": self.spec_json,
            "shard": shard_to_payload(self.shard),
            "observe": self.observe,
            "trace_parent": self.trace_parent,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LeaseGrant":
        """Rebuild a grant on the worker side."""
        return cls(
            lease_id=payload["lease_id"],
            job_id=payload["job_id"],
            epoch=payload["epoch"],
            ttl_s=payload["ttl_s"],
            attempt=payload.get("attempt", 0),
            spec_json=payload["spec"],
            shard=shard_from_payload(payload["shard"]),
            observe=payload.get("observe", False),
            trace_parent=payload.get("trace_parent"),
        )


@dataclass
class CompletionResult:
    """What :meth:`LeaseManager.complete` decided about one upload."""

    #: ``"accepted"`` (first completion), ``"duplicate"`` (idempotent
    #: re-upload of a completed shard), ``"retry"`` (a reported failure
    #: that will be re-leased), or ``"failed"`` (the retry budget is
    #: spent; the shard failed permanently).
    outcome: str
    #: Set on ``"accepted"`` and ``"failed"`` when the job has a
    #: checkpoint: call it off the event loop to append the shard (or
    #: failure) line to the job's engine checkpoint (at most once).
    checkpoint_append: Callable[[], None] | None = None


@dataclass(frozen=True)
class FleetJobStatus:
    """Progress snapshot of one open job (for events/dashboard)."""

    units_done: int
    units_total: int
    flips: int
    shards_pending: int
    shards_leased: int
    shards_completed: int
    shards_failed: int

    @property
    def settled(self) -> bool:
        """No shard is pending or leased: the job can be closed."""
        return self.shards_pending == 0 and self.shards_leased == 0


@dataclass
class _ShardSlot:
    """Server-side state of one leasable shard."""

    shard: ShardSpec
    state: str = _PENDING
    epoch: int = 0
    attempts: int = 0
    worker_id: str | None = None
    lease_id: str | None = None
    deadline_s: float = 0.0
    granted_s: float = 0.0
    granted_tracer_s: float = 0.0


@dataclass
class _FleetJob:
    """One open job inside the manager."""

    job_id: str
    spec_json: str
    record_type: type
    checkpoint: CampaignCheckpoint | None
    slots: dict[str, _ShardSlot]
    units_total: int
    #: Heap of ``(plan index, shard id)`` of the pending slots, so grants
    #: go out in plan order without rescanning finished shards.
    pending: list[tuple[int, str]] = field(default_factory=list)
    leased: dict[str, _ShardSlot] = field(default_factory=dict)
    completed: int = 0
    retries: int = 0
    units: list = field(default_factory=list)
    failures: list[ShardFailure] = field(default_factory=list)
    flips: int = 0
    shards_resumed: int = 0
    observe: bool = False
    trace_parent: str | None = None
    trace_now: Callable[[], float] | None = None
    trace_batches: list[tuple[list, dict, float]] = field(default_factory=list)
    on_change: Callable[[], None] | None = None

    def changed(self) -> None:
        if self.on_change is not None:
            self.on_change()

    def fold(self, payload: dict) -> None:
        """Add a checkpoint shard line's units and flips to the result."""
        self.units.extend(
            (entry["unit"], self.record_type(**entry["record"]))
            for entry in payload["units"]
        )
        self.flips += payload.get("flips", 0)

    def release(self, slot: _ShardSlot, state: str) -> None:
        """Move a leased slot to ``state``; a pending one is re-queued.

        Only a completed slot keeps its ``worker_id``: it names the
        winner, whose network-retry re-upload stays idempotent.
        """
        del self.leased[slot.shard.shard_id]
        slot.state = state
        if state != _COMPLETED:
            slot.worker_id = None
        if state == _PENDING:
            heapq.heappush(self.pending, (slot.shard.index, slot.shard.shard_id))


class LeaseManager:
    """Owns shard leases for every open job.

    The service builds one instance with its lease TTL and shares it
    with its :class:`~repro.service.jobs.JobSupervisor`: the HTTP
    handlers call :meth:`acquire` and :meth:`heartbeat` on the event
    loop, the supervisor opens and closes jobs around them and leases
    local-backend shards itself, and every completion goes through
    :meth:`JobSupervisor.complete <repro.service.jobs.JobSupervisor.complete>`.
    :func:`~repro.characterization.engine.run_engine` runs every
    ``repro campaign`` through a private instance with ``ttl_s=math.inf``.
    ``clock`` defaults to the repo's monotonic single-clock and is
    injectable so the protocol tests can force expiry deterministically.
    ``on_pending`` is called, synchronously, whenever a shard becomes
    leasable: a job opens with a shard left to run, a failed attempt is
    re-queued, or an expired lease returns its shard.  The service sets
    its long-poll wake event with it; expiry is found lazily, by the
    next call that scans (``acquire``, ``job_status``, ``stats``, ...).
    """

    def __init__(
        self,
        ttl_s: float = 10.0,
        max_retries: int = 2,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = monotonic_s,
        on_pending: Callable[[], None] | None = None,
    ) -> None:
        if ttl_s <= 0.0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self.ttl_s = ttl_s
        self.max_retries = max_retries
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        self.on_pending = on_pending
        self._jobs: dict[str, _FleetJob] = {}
        #: lease_id -> (job_id, shard_id, epoch); kept for the life of
        #: the job so stale ids answer with a precise rejection.
        self._leases: dict[str, tuple[str, str, int]] = {}
        self._lease_seq = 0
        #: worker_id -> last time it touched the API (for the gauge).
        self._worker_seen_s: dict[str, float] = {}

    # -- job lifecycle (supervisor side) --------------------------------

    def open_job(
        self,
        job_id: str,
        spec_json: str,
        shards: list[ShardSpec],
        resumed: dict[str, dict],
        checkpoint: CampaignCheckpoint | None,
        units_total: int,
        observe: bool = False,
        trace_parent: str | None = None,
        trace_now: Callable[[], float] | None = None,
        on_change: Callable[[], None] | None = None,
    ) -> None:
        """Register a job's shards as leasable work.

        ``resumed`` maps already-checkpointed shard ids to their
        checkpoint payloads (from :meth:`CampaignCheckpoint.load`); those
        shards are folded straight into the result and never leased.
        With ``checkpoint=None`` accepted shards and failures are kept
        in memory only.
        """
        if job_id in self._jobs:
            raise ValueError(f"fleet job {job_id} is already open")
        job = _FleetJob(
            job_id=job_id,
            spec_json=spec_json,
            record_type=registry.get(json.loads(spec_json)["experiment"]).record_type,
            checkpoint=checkpoint,
            slots={},
            units_total=units_total,
            observe=observe,
            trace_parent=trace_parent,
            trace_now=trace_now,
            on_change=on_change,
        )
        for shard in shards:
            payload = resumed.get(shard.shard_id)
            if payload is not None:
                job.fold(payload)
                job.shards_resumed += 1
                continue
            job.slots[shard.shard_id] = _ShardSlot(shard=shard)
            job.pending.append((shard.index, shard.shard_id))
        heapq.heapify(job.pending)
        self._jobs[job_id] = job
        self._update_gauges()
        logger.info(
            "job %s opened: %d leasable shard(s), %d resumed",
            job_id,
            len(job.slots),
            job.shards_resumed,
        )
        job.changed()
        if job.pending:
            self._pending_added()

    def job_status(self, job_id: str) -> FleetJobStatus:
        """Progress counts for one open job."""
        job = self._jobs[job_id]
        self._expire_scan()
        return FleetJobStatus(
            units_done=len(job.units),
            units_total=job.units_total,
            flips=job.flips,
            shards_pending=len(job.pending),
            shards_leased=len(job.leased),
            shards_completed=job.completed + job.shards_resumed,
            shards_failed=len(job.failures),
        )

    def close_job(self, job_id: str) -> EngineResult:
        """Remove a settled (or abandoned) job and return its results.

        Records come back in sequential sweep order.  A job closed with
        shards still pending or leased is ``interrupted``: outstanding
        leases die with it, so later heartbeats and completions answer
        :class:`UnknownLease` and the workers discard their local
        results (the checkpoint already holds every accepted shard, so
        nothing is lost).
        """
        job = self._jobs.pop(job_id)
        for lease_id in [
            lease_id
            for lease_id, (owner, _, _) in self._leases.items()
            if owner == job_id
        ]:
            del self._leases[lease_id]
        job.units.sort(key=lambda unit: unit[0])
        self._update_gauges()
        return EngineResult(
            records=[record for _, record in job.units],
            failures=list(job.failures),
            shards_total=len(job.slots) + job.shards_resumed,
            shards_run=job.completed,
            shards_resumed=job.shards_resumed,
            retries=job.retries,
            interrupted=bool(job.pending or job.leased),
            trace_batches=list(job.trace_batches),
        )

    # -- worker-facing protocol -----------------------------------------

    def acquire(self, worker_id: str, max_shards: int = 1) -> list[LeaseGrant]:
        """Lease up to ``max_shards`` pending shards to ``worker_id``.

        Oldest open job first, shards in plan order.  Every grant bumps
        the shard's fencing epoch; a shard previously leased (expired or
        failed) counts as a reassignment.
        """
        if max_shards < 1:
            raise LeaseError(f"max_shards must be >= 1, got {max_shards}")
        now = self.clock()
        self._worker_seen_s[worker_id] = now
        self._expire_scan(now)
        grants: list[LeaseGrant] = []
        for job in self._jobs.values():
            while job.pending and len(grants) < max_shards:
                _, shard_id = heapq.heappop(job.pending)
                slot = job.slots[shard_id]
                reassigned = slot.epoch > 0
                slot.epoch += 1
                slot.state = _LEASED
                job.leased[shard_id] = slot
                slot.worker_id = worker_id
                slot.deadline_s = now + self.ttl_s
                slot.granted_s = now
                slot.granted_tracer_s = (
                    job.trace_now() if job.trace_now is not None else 0.0
                )
                self._lease_seq += 1
                slot.lease_id = f"L{self._lease_seq}"
                self._leases[slot.lease_id] = (job.job_id, shard_id, slot.epoch)
                self.metrics.counter("fleet.leases_granted").inc()
                if reassigned:
                    self.metrics.counter("fleet.leases_reassigned").inc()
                grants.append(
                    LeaseGrant(
                        lease_id=slot.lease_id,
                        job_id=job.job_id,
                        epoch=slot.epoch,
                        ttl_s=self.ttl_s,
                        attempt=slot.attempts,
                        spec_json=job.spec_json,
                        shard=slot.shard,
                        observe=job.observe,
                        trace_parent=job.trace_parent,
                    )
                )
        self._update_gauges()
        return grants

    def heartbeat(self, lease_id: str, worker_id: str, epoch: int) -> float:
        """Renew a lease; returns the new TTL.

        Raises :class:`FencingViolation` when the lease expired (the
        shard is pending or re-leased under a newer epoch) and
        :class:`UnknownLease` when the id names no live job.
        """
        now = self.clock()
        self._worker_seen_s[worker_id] = now
        self._expire_scan(now)
        job, slot, granted_epoch = self._resolve(lease_id)
        if (
            slot.state != _LEASED
            or slot.epoch != granted_epoch
            or epoch != granted_epoch
            or slot.worker_id != worker_id
        ):
            self.metrics.counter("fleet.heartbeats_rejected").inc()
            raise FencingViolation(
                f"lease {lease_id} (epoch {epoch}) is no longer held by "
                f"{worker_id}: shard {slot.shard.shard_id} is {slot.state} "
                f"at epoch {slot.epoch}"
            )
        slot.deadline_s = now + self.ttl_s
        self.metrics.counter("fleet.heartbeats").inc()
        return self.ttl_s

    def complete(
        self, lease_id: str, worker_id: str, epoch: int, payload: dict
    ) -> CompletionResult:
        """Apply one completion upload; fenced, idempotent, exactly-once.

        Decision table (the failure matrix in ``docs/FLEET.md``):

        * the winning worker re-uploads its completed shard (network
          retry) -> ``"duplicate"`` (no state change);
        * stale epoch / expired lease / foreign worker — including a
          zombie uploading a shard another worker already won -> raises
          :class:`FencingViolation` (the upload is discarded);
        * reported failure under a valid lease -> ``"retry"`` until the
          retry budget (``max_retries``) is spent, then ``"failed"``: a
          permanent :class:`ShardFailure` carrying the worker's error
          and traceback;
        * success under a valid lease -> ``"accepted"``: units fold into
          the job and the returned ``checkpoint_append`` persists the
          shard line (call it off the event loop).
        """
        now = self.clock()
        self._worker_seen_s[worker_id] = now
        self._expire_scan(now)
        job, slot, granted_epoch = self._resolve(lease_id)
        if slot.state == _COMPLETED:
            if (
                slot.epoch == granted_epoch
                and epoch == granted_epoch
                and slot.worker_id == worker_id
            ):
                # The winning worker re-uploading (network retry): fine.
                self.metrics.counter("fleet.completions_duplicate").inc()
                return CompletionResult(outcome="duplicate")
            # A zombie's stale upload of an already-won shard: fenced.
            self.metrics.counter("fleet.completions_rejected").inc()
            raise FencingViolation(
                f"completion for lease {lease_id} (epoch {epoch}) rejected: "
                f"shard {slot.shard.shard_id} was completed at epoch "
                f"{slot.epoch} by another worker"
            )
        if (
            slot.state != _LEASED
            or slot.epoch != granted_epoch
            or epoch != granted_epoch
            or slot.worker_id != worker_id
        ):
            self.metrics.counter("fleet.completions_rejected").inc()
            raise FencingViolation(
                f"completion for lease {lease_id} (epoch {epoch}) rejected: "
                f"shard {slot.shard.shard_id} is {slot.state} at epoch "
                f"{slot.epoch} — the lease expired and the shard was "
                "reassigned"
            )
        if payload.get("shard_id") != slot.shard.shard_id:
            raise LeaseError(
                f"completion for lease {lease_id} names shard "
                f"{payload.get('shard_id')!r}, lease covers "
                f"{slot.shard.shard_id!r}"
            )
        if not payload.get("ok", False):
            return self._completion_failed(job, slot, payload)
        job.fold(payload)
        job.release(slot, _COMPLETED)
        job.completed += 1
        if job.observe and (payload.get("spans") or payload.get("metrics")):
            job.trace_batches.append(
                (
                    payload.get("spans") or [],
                    payload.get("metrics") or {},
                    slot.granted_tracer_s,
                )
            )
        self.metrics.counter("fleet.completions").inc()
        self.metrics.histogram("fleet.shard_seconds").record(
            float(payload.get("elapsed_s", 0.0))
        )
        self.metrics.histogram("fleet.lease_to_complete_seconds").record(
            max(now - slot.granted_s, 0.0)
        )
        self._update_gauges()
        line = {key: payload[key] for key in _CHECKPOINT_KEYS}
        job.changed()
        return CompletionResult(
            outcome="accepted",
            checkpoint_append=(
                None
                if job.checkpoint is None
                else lambda: job.checkpoint.record_shard_payload(line)
            ),
        )

    def _completion_failed(
        self, job: _FleetJob, slot: _ShardSlot, payload: dict
    ) -> CompletionResult:
        """A worker reported a shard attempt failed: retry or give up."""
        slot.attempts += 1
        error = str(payload.get("error") or "unknown error")
        if slot.attempts > self.max_retries:
            job.release(slot, _FAILED)
            failure = ShardFailure(
                shard_id=slot.shard.shard_id,
                attempts=slot.attempts,
                error=error,
                traceback=str(payload.get("traceback") or ""),
            )
            job.failures.append(failure)
            self.metrics.counter("fleet.shard_failures").inc()
            logger.error(
                "shard %s failed permanently after %d attempt(s): %s",
                slot.shard.shard_id,
                slot.attempts,
                error,
            )
            job.changed()
            self._update_gauges()
            return CompletionResult(
                outcome="failed",
                checkpoint_append=(
                    None
                    if job.checkpoint is None
                    else lambda: job.checkpoint.record_failure(failure)
                ),
            )
        job.release(slot, _PENDING)
        job.retries += 1
        logger.warning(
            "shard %s attempt %d failed (%s); will retry",
            slot.shard.shard_id,
            slot.attempts,
            error,
        )
        self._update_gauges()
        self._pending_added()
        return CompletionResult(outcome="retry")

    # -- bookkeeping ----------------------------------------------------

    def _resolve(self, lease_id: str) -> tuple[_FleetJob, _ShardSlot, int]:
        entry = self._leases.get(lease_id)
        if entry is None:
            raise UnknownLease(
                f"unknown lease {lease_id!r} (bogus id, or its job settled)"
            )
        job_id, shard_id, epoch = entry
        job = self._jobs.get(job_id)
        if job is None:  # settled concurrently; treat like a closed job
            raise UnknownLease(f"lease {lease_id!r}: job {job_id} has settled")
        return job, job.slots[shard_id], epoch

    def _expire_scan(self, now: float | None = None) -> int:
        """Return expired leases to the pending pool; count them."""
        now = self.clock() if now is None else now
        expired = 0
        for job in self._jobs.values():
            for slot in list(job.leased.values()):
                if now > slot.deadline_s:
                    logger.warning(
                        "lease %s on shard %s (worker %s) expired; "
                        "shard returns to the pending pool",
                        slot.lease_id,
                        slot.shard.shard_id,
                        slot.worker_id,
                    )
                    job.release(slot, _PENDING)
                    expired += 1
        if expired:
            self.metrics.counter("fleet.leases_expired").inc(expired)
            self._update_gauges()
            self._pending_added()
        return expired

    def _pending_added(self) -> None:
        if self.on_pending is not None:
            self.on_pending()

    def active_workers(self, now: float | None = None) -> int:
        """Workers seen within the last two TTL windows."""
        now = self.clock() if now is None else now
        horizon = 2.0 * self.ttl_s
        return sum(
            1 for seen in self._worker_seen_s.values() if now - seen <= horizon
        )

    def stats(self) -> dict:
        """The fleet section of ``/healthz`` and the dashboard stream."""
        self._expire_scan()
        self._update_gauges()
        jobs = self._jobs.values()
        return {
            "jobs_open": len(self._jobs),
            "workers_active": self.active_workers(),
            "shards_pending": sum(len(job.pending) for job in jobs),
            "leases_outstanding": sum(len(job.leased) for job in jobs),
            "shards_completed": sum(job.completed for job in jobs),
            "shards_failed": sum(len(job.failures) for job in jobs),
        }

    def _update_gauges(self) -> None:
        jobs = self._jobs.values()
        self.metrics.gauge("fleet.leases_outstanding").set(
            sum(len(job.leased) for job in jobs)
        )
        self.metrics.gauge("fleet.shards_pending").set(
            sum(len(job.pending) for job in jobs)
        )
        self.metrics.gauge("fleet.workers_active").set(self.active_workers())
