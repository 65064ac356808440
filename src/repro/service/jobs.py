"""Job model, bounded queue, per-client rate limiting, and supervisor.

A *job* is one submitted campaign spec moving through the lifecycle::

    queued -> running -> done
                     \\-> failed          (shards failed permanently)
                     \\-> interrupted     (service drained mid-job)

Jobs are content-addressed: the job id *is* the result-store key of the
spec, so resubmitting an identical (spec, seed, modules) campaign lands
on the same job — deduplicated while in flight, served from the result
cache once done.  Every state change persists the job's JSON record
under ``<data_dir>/jobs/``, and the supervisor runs each job with a
per-job engine checkpoint through the service's
:class:`~repro.fleet.leases.LeaseManager`, so a service restart (or
SIGTERM drain) re-enqueues unfinished jobs and they resume
shard-by-shard instead of starting over.  Both backends take that one
path: the supervisor leases a ``local`` job's shards to itself, and
``repro worker`` processes lease a ``fleet`` job's.  Every job settles
the same way, which stores the results and feeds the warehouse once,
from the job checkpoint.

Backpressure is explicit: :meth:`JobManager.submit` raises
:class:`RateLimited` when a client exceeds its token bucket and
:class:`QueueFull` when the bounded queue is at capacity — the HTTP
layer turns both into ``429`` with a ``Retry-After`` hint.
"""

from __future__ import annotations

import asyncio
import json
import time
import traceback
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.characterization.campaign import CampaignSpec
from repro.characterization.engine import (
    CampaignCheckpoint,
    EngineResult,
    _pool_context,
    execute_shard,
    plan_shards,
)
from repro.fleet.leases import (
    CompletionResult,
    LeaseError,
    LeaseGrant,
    LeaseManager,
    outcome_to_payload,
)
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    ProgressEvent,
    ProgressReporter,
    TraceContext,
    Tracer,
    atomic_write_text,
    get_logger,
    monotonic_s,
)
from repro.service.store import ResultStore, spec_key
from repro.testkit.faults import fault_write
from repro.testkit.points import SERVICE_JOB_PERSIST

__all__ = [
    "QUEUED",
    "RUNNING",
    "INTERRUPTED",
    "DONE",
    "FAILED",
    "TERMINAL_STATES",
    "RateLimited",
    "QueueFull",
    "TokenBucket",
    "Job",
    "JobManager",
    "JobSupervisor",
]

logger = get_logger("service.jobs")

#: Job lifecycle states (persisted as strings in the job records).
QUEUED = "queued"
RUNNING = "running"
INTERRUPTED = "interrupted"
DONE = "done"
FAILED = "failed"

#: States a job never leaves on its own (failed jobs can be resubmitted).
TERMINAL_STATES = (DONE, FAILED)

#: Worker id the supervisor leases local-backend shards under.
_LOCAL_WORKER = "local"


class RateLimited(Exception):
    """A client exceeded its submission token bucket."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"rate limited; retry after {retry_after_s:.2f}s")
        self.retry_after_s = retry_after_s


class QueueFull(Exception):
    """The bounded job queue is at capacity (backpressure)."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"job queue full; retry after {retry_after_s:.2f}s")
        self.retry_after_s = retry_after_s


class TokenBucket:
    """Classic token bucket: ``rate_per_s`` refill up to ``burst`` tokens."""

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0.0 or burst < 1.0:
            raise ValueError("rate_per_s must be > 0 and burst >= 1")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self.tokens = float(burst)
        self._updated_s = time.monotonic()

    def try_acquire(self, now_s: float | None = None) -> float:
        """Take one token; returns 0.0 on success, else seconds to wait."""
        now_s = time.monotonic() if now_s is None else now_s
        elapsed = max(now_s - self._updated_s, 0.0)
        self.tokens = min(self.tokens + elapsed * self.rate_per_s, self.burst)
        self._updated_s = now_s
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate_per_s


@dataclass
class Job:
    """One submitted campaign and its in-memory event stream."""

    job_id: str
    spec: CampaignSpec
    state: str = QUEUED
    client: str = ""
    submitted_seq: int = 0
    submitted_at_s: float = 0.0
    cached: bool = False
    error: str | None = None
    records: int | None = None
    shards_total: int = 0
    #: Serialized :class:`TraceContext` of the submitting request span;
    #: the supervisor parents the job's engine trace under it, stitching
    #: client -> server -> engine -> worker into one trace.
    trace_parent: str | None = None
    events: list[dict] = field(default_factory=list)
    #: Monotonic instant the job entered its current state (not
    #: persisted; feeds the per-state latency histograms and age gauges).
    state_entered_s: float = field(default=0.0, repr=False)
    _changed: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def terminal(self) -> bool:
        """Whether the job reached ``done`` or ``failed``."""
        return self.state in TERMINAL_STATES

    def publish(self, event: dict) -> None:
        """Append one NDJSON event and wake every streaming reader.

        Must be called on the event loop thread (the supervisor bridges
        engine-thread progress callbacks via ``call_soon_threadsafe``).
        """
        event = {"seq": len(self.events), **event}
        self.events.append(event)
        changed, self._changed = self._changed, asyncio.Event()
        changed.set()

    async def wait_changed(self) -> None:
        """Block until the next :meth:`publish` (event-loop only)."""
        await self._changed.wait()

    def set_state(self, state: str, **extra: object) -> None:
        """Move to ``state`` and publish the transition as an event."""
        self.state = state
        self.publish({"event": "state", "state": state, **extra})

    def to_payload(self) -> dict:
        """The JSON form served by ``GET /v1/campaigns/{id}`` (and persisted)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "campaign": self.spec.name,
            "experiment": self.spec.experiment,
            "client": self.client,
            "submitted_seq": self.submitted_seq,
            "submitted_at_s": self.submitted_at_s,
            "cached": self.cached,
            "error": self.error,
            "records": self.records,
            "shards_total": self.shards_total,
            "trace_parent": self.trace_parent,
            "events": len(self.events),
            "spec": self.spec.to_json(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Job":
        """Rebuild a persisted job record (events are not persisted)."""
        return cls(
            job_id=payload["job_id"],
            spec=CampaignSpec.from_json(payload["spec"]),
            state=payload["state"],
            client=payload.get("client", ""),
            submitted_seq=payload.get("submitted_seq", 0),
            submitted_at_s=payload.get("submitted_at_s", 0.0),
            cached=payload.get("cached", False),
            error=payload.get("error"),
            records=payload.get("records"),
            shards_total=payload.get("shards_total", 0),
            trace_parent=payload.get("trace_parent"),
        )


class JobManager:
    """Owns the job table, the bounded queue, and submission admission.

    All methods are event-loop-thread only (the HTTP handlers and the
    supervisor share one loop); the engine's worker thread never touches
    the manager directly.
    """

    def __init__(
        self,
        data_dir: str | Path,
        store: ResultStore,
        queue_limit: int = 16,
        rate_per_s: float = 50.0,
        rate_burst: float = 100.0,
        metrics: MetricsRegistry | None = None,
        shard_size: int = 4,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.jobs_dir = Path(data_dir) / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.store = store
        self.queue_limit = queue_limit
        #: The service's shard size: a queued job's ``shards_total`` is
        #: counted with it (the supervisor recounts with its own plan
        #: when the job starts).
        self.shard_size = shard_size
        self.rate_per_s = rate_per_s
        self.rate_burst = rate_burst
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.jobs: dict[str, Job] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._buckets: dict[str, TokenBucket] = {}
        self._seq = 0

    # -- admission -----------------------------------------------------

    def check_rate(self, client: str) -> None:
        """Charge one submission against ``client``'s token bucket."""
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate_per_s, self.rate_burst)
            self._buckets[client] = bucket
        wait_s = bucket.try_acquire()
        if wait_s > 0.0:
            self.metrics.counter("service.rate_limited").inc()
            raise RateLimited(wait_s)

    def queued_count(self) -> int:
        """Jobs admitted but not yet picked up by the supervisor."""
        return sum(1 for job in self.jobs.values() if job.state == QUEUED)

    async def submit(
        self,
        spec: CampaignSpec,
        client: str = "",
        trace_parent: str | None = None,
    ) -> tuple[Job, str]:
        """Admit one spec; returns ``(job, outcome)``.

        Outcomes: ``"new"`` (enqueued, will run), ``"cached"`` (results
        already in the store — job is born ``done``), ``"duplicate"``
        (the same spec is already queued or running).  A previously
        ``failed`` job is re-admitted as ``"new"``.  Raises
        :class:`QueueFull` when the bounded queue is at capacity.
        ``trace_parent`` is the submitting request's serialized
        :class:`TraceContext`; the job's engine trace parents under it.

        Store IO (the cache probe/load and the job record write) runs on
        a worker thread; the job table is re-checked after each await
        because a concurrent submission of the same spec may have won
        the race while this one was off the loop.
        """
        key = spec_key(spec)
        duplicate = self._existing(key)
        if duplicate is not None:
            return duplicate
        has_cached = await asyncio.to_thread(self.store.has, key)
        duplicate = self._existing(key)
        if duplicate is not None:
            return duplicate
        if has_cached:
            job = Job(
                job_id=key,
                spec=spec,
                state=DONE,
                client=client,
                submitted_seq=self._next_seq(),
                submitted_at_s=time.time(),
                cached=True,
            )
            # Claim the key before awaiting so a concurrent duplicate
            # resolves against this job instead of racing the load.
            self.jobs[key] = job
            _spec, records = await asyncio.to_thread(self.store.load, key)
            job.records = len(records)
            job.publish({"event": "state", "state": DONE, "cached": True})
            await asyncio.to_thread(self.persist, job)
            self.metrics.counter("service.cache_hits").inc()
            logger.info("campaign %s served from result cache", key)
            return job, "cached"
        if self.queued_count() >= self.queue_limit:
            self.metrics.counter("service.backpressure").inc()
            raise QueueFull(retry_after_s=1.0)
        job = Job(
            job_id=key,
            spec=spec,
            client=client,
            submitted_seq=self._next_seq(),
            submitted_at_s=time.time(),
            shards_total=len(plan_shards(spec, self.shard_size)),
            trace_parent=trace_parent,
            state_entered_s=monotonic_s(),
        )
        job.publish({"event": "state", "state": QUEUED})
        self.jobs[key] = job
        await asyncio.to_thread(self.persist, job)
        self._queue.put_nowait(key)
        self.metrics.counter("service.jobs_submitted").inc()
        self.metrics.gauge("service.queue_depth").set(self.queued_count())
        logger.info(
            "job %s queued (campaign %r, %d shards)",
            key,
            spec.name,
            job.shards_total,
        )
        return job, "new"

    def _existing(self, key: str) -> tuple[Job, str] | None:
        """A live job already admitted under ``key``, as a submit outcome."""
        existing = self.jobs.get(key)
        if existing is None or existing.state == FAILED:
            return None
        if existing.state == DONE:
            self.metrics.counter("service.cache_hits").inc()
            return existing, "cached"
        return existing, "duplicate"

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- persistence and recovery --------------------------------------

    def persist(self, job: Job) -> None:
        """Write the job's JSON record atomically."""
        path = self.jobs_dir / f"{job.job_id}.json"
        fault_write(
            SERVICE_JOB_PERSIST,
            lambda text: atomic_write_text(path, text),
            json.dumps(job.to_payload(), indent=1),
        )

    def recover(self) -> int:
        """Reload persisted jobs; re-enqueue every unfinished one.

        Jobs found ``queued``, ``running``, or ``interrupted`` go back on
        the queue (in original submission order) — their engine
        checkpoints make the re-run incremental.  Returns the number of
        jobs re-enqueued.
        """
        recovered: list[Job] = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                job = Job.from_payload(json.loads(path.read_text()))
            except (ValueError, TypeError, KeyError) as error:
                logger.warning("skipping unreadable job record %s: %s", path, error)
                continue
            self.jobs[job.job_id] = job
            self._seq = max(self._seq, job.submitted_seq)
            job.state_entered_s = monotonic_s()
            if job.state == DONE and not self.store.has(job.job_id):
                # Results vanished (pruned store?): run it again.
                job.state = QUEUED
            if job.state not in TERMINAL_STATES:
                job.shards_total = len(plan_shards(job.spec, self.shard_size))
                job.set_state(QUEUED, resumed=True)
                recovered.append(job)
            elif job.state == DONE:
                job.publish({"event": "state", "state": DONE, "cached": True})
            else:
                job.publish(
                    {"event": "failed", "error": job.error or "unknown error"}
                )
        for job in sorted(recovered, key=lambda j: j.submitted_seq):
            self.persist(job)
            self._queue.put_nowait(job.job_id)
        if recovered:
            logger.info(
                "recovered %d unfinished job(s): %s",
                len(recovered),
                ", ".join(job.job_id for job in recovered),
            )
        return len(recovered)

    # -- supervisor feed -----------------------------------------------

    async def next_job(self) -> Job | None:
        """The next queued job, or None on a drain wakeup sentinel."""
        key = await self._queue.get()
        if key is None:
            return None
        job = self.jobs.get(key)
        if job is None or job.state != QUEUED:
            return None
        self.metrics.gauge("service.queue_depth").set(self.queued_count())
        return job

    def wake(self) -> None:
        """Unblock a supervisor waiting on an empty queue (for drain)."""
        self._queue.put_nowait(None)

    # -- fleet gauges --------------------------------------------------

    def update_state_gauges(self) -> None:
        """Refresh per-state job-count and oldest-job-age gauges.

        Called by the HTTP layer just before exposing metrics, so
        ``/metrics`` and the dashboard stream always reflect the current
        job table without per-transition bookkeeping.
        """
        now_s = monotonic_s()
        by_state: dict[str, int] = {}
        oldest: dict[str, float] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
            if job.state_entered_s > 0.0:
                age_s = max(now_s - job.state_entered_s, 0.0)
                oldest[job.state] = max(oldest.get(job.state, 0.0), age_s)
        for state in (QUEUED, RUNNING, INTERRUPTED, DONE, FAILED):
            self.metrics.gauge("service.jobs_by_state", state=state).set(
                by_state.get(state, 0)
            )
            self.metrics.gauge("service.oldest_job_age_s", state=state).set(
                round(oldest.get(state, 0.0), 6)
            )


class JobSupervisor:
    """Runs queued jobs one at a time, every shard through the lease table.

    Each job opens in the service's :class:`~repro.fleet.leases.
    LeaseManager` and settles through one path.  The two backends differ
    only in who leases the shards, and produce byte-identical results
    (every shard's records are a pure function of its seed):

    * ``backend="local"`` — the supervisor leases them to itself (worker
      id ``local``), up to ``engine_workers`` at a time, and runs each
      with :func:`~repro.characterization.engine.execute_shard` on a
      dedicated thread (``engine_workers == 1``) or a process pool, so
      the event loop keeps serving requests;
    * ``backend="fleet"`` — ``repro worker`` processes pull them over
      HTTP; the supervisor just watches progress.

    Every completion, local or remote, goes through :meth:`complete`.
    Once ``draining`` returns True no further local shard is leased;
    local shards already running finish and checkpoint, then the job
    closes ``interrupted`` with its checkpoint intact.
    """

    def __init__(
        self,
        manager: JobManager,
        checkpoints_dir: str | Path,
        engine_workers: int = 1,
        shard_size: int = 4,
        draining: Callable[[], bool] | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        backend: str = "local",
        lease_manager: LeaseManager | None = None,
        warehouse=None,
    ) -> None:
        if backend not in ("local", "fleet"):
            raise ValueError(f"backend must be 'local' or 'fleet', got {backend!r}")
        if engine_workers < 1:
            raise ValueError(f"engine_workers must be >= 1, got {engine_workers}")
        self.manager = manager
        self.checkpoints_dir = Path(checkpoints_dir)
        self.checkpoints_dir.mkdir(parents=True, exist_ok=True)
        self.engine_workers = engine_workers
        self.shard_size = shard_size
        self.draining = draining if draining is not None else lambda: False
        self.metrics = metrics if metrics is not None else manager.metrics
        self.backend = backend
        self.lease_manager = (
            lease_manager
            if lease_manager is not None
            else LeaseManager(metrics=self.metrics)
        )
        #: Optional :class:`repro.warehouse.Warehouse`.  A done job is
        #: indexed under its job id (== result-store key) from the job
        #: checkpoint when it settles.  The warehouse is derived state —
        #: ingest failures are logged, never fail the job, and ``repro
        #: warehouse rebuild`` heals.
        self.warehouse = warehouse
        #: Held while :meth:`complete` appends a checkpoint line and while
        #: a job closes, so a close never races an in-flight append (or
        #: the post-settle unlink could leave a headerless stray file).
        self._checkpoint_lock = asyncio.Lock()
        #: The service-wide tracer; each job's trace is collected on a
        #: per-job tracer (parented by the job's ``trace_parent``) and
        #: folded into this one when the job settles.
        self.tracer: Tracer | NullTracer = tracer if tracer is not None else NullTracer()

    async def run(self) -> None:
        """Supervisor loop: pull jobs until drained."""
        while not self.draining():
            job = await self.manager.next_job()
            if job is None:
                continue  # wakeup sentinel (or stale entry); re-check drain
            await self.run_job(job)
        logger.info("supervisor drained; no further jobs will start")

    def checkpoint_path(self, job: Job) -> Path:
        """The engine checkpoint sidecar for one job."""
        return self.checkpoints_dir / f"{job.job_id}.checkpoint.jsonl"

    def _record_state_duration(self, job: Job) -> None:
        """Record how long ``job`` spent in its current state, and reset."""
        if job.state_entered_s > 0.0:
            self.metrics.histogram(
                "service.job_state_seconds", state=job.state
            ).record(max(monotonic_s() - job.state_entered_s, 0.0))
        job.state_entered_s = monotonic_s()

    def _enter_state(self, job: Job, state: str, **extra: object) -> None:
        """Transition ``job``, recording time spent in the previous state."""
        self._record_state_duration(job)
        job.set_state(state, **extra)

    def _open_checkpoint(
        self, job: Job
    ) -> tuple[CampaignCheckpoint, dict[str, dict]]:
        """The job's checkpoint and its completed shards (worker thread).

        One rule for both backends: a checkpoint this run cannot resume
        (written under another shard size or schema) is logged and
        started fresh, so resubmitting the job never fails on it again.
        """
        ckpt = CampaignCheckpoint(self.checkpoint_path(job), job.spec, self.shard_size)
        if ckpt.path.exists():
            try:
                return ckpt, ckpt.load()
            except ValueError as error:
                logger.warning(
                    "job %s checkpoint unusable (%s); starting fresh",
                    job.job_id,
                    error,
                )
        ckpt.start()
        return ckpt, {}

    async def run_job(self, job: Job) -> None:
        """Execute one job through the lease table and settle it."""
        fleet = self.backend == "fleet"
        self._enter_state(job, RUNNING, **({"backend": "fleet"} if fleet else {}))
        await asyncio.to_thread(self.manager.persist, job)
        # Each job collects its trace on a private tracer parented by the
        # submitting request's context, then folds it into the service
        # tracer — concurrent requests never share a span stack.
        job_tracer: Tracer | NullTracer = NullTracer()
        trace_shift_s = 0.0
        if self.tracer.enabled:
            job_tracer = Tracer(context=TraceContext.from_header(job.trace_parent))
            trace_shift_s = self.tracer.now_s()
        started_s = monotonic_s()
        try:
            ckpt, resumed = await asyncio.to_thread(self._open_checkpoint, job)
            result = await self._run_shards(job, ckpt, resumed, job_tracer)
        except Exception as error:  # job isolation boundary: never kill the loop
            await self._fail(job, f"{type(error).__name__}: {error}")
            return
        finally:
            if self.tracer.enabled:
                self.tracer.ingest(job_tracer.drain(), shift_s=trace_shift_s)
        await self._settle(job, result, monotonic_s() - started_s)

    async def complete(
        self, lease_id: str, worker_id: str, epoch: int, payload: dict
    ) -> CompletionResult:
        """Apply one shard completion and append its checkpoint line.

        The one completion path: the ``POST /v1/leases/{id}/complete``
        route calls it for remote workers, and the local backend for its
        own shards.  Raises :class:`~repro.fleet.leases.LeaseError` when
        the table rejects the upload.
        """
        async with self._checkpoint_lock:
            result = self.lease_manager.complete(lease_id, worker_id, epoch, payload)
            if result.checkpoint_append is not None:
                await asyncio.to_thread(result.checkpoint_append)
        return result

    async def _run_shards(
        self,
        job: Job,
        ckpt: CampaignCheckpoint,
        resumed: dict[str, dict],
        job_tracer: Tracer | NullTracer,
    ) -> EngineResult:
        """Open one job's shards in the lease table and wait for them.

        Lease activity becomes the job's progress events, and the job
        closes when every shard is completed or permanently failed.  A
        drain closes it early, ``interrupted``, with its checkpoint
        intact: local shards already running finish first, outstanding
        remote uploads are fenced off, and a restart resumes the
        remaining shards.
        """
        shards = plan_shards(job.spec, self.shard_size)
        job.shards_total = len(shards)
        # The job trace: one detached span on the job tracer covers the
        # whole fan-out; its context header rides in every lease so shard
        # spans parent under it, across the wire or from a local pool.
        fleet_span = None
        trace_header = None
        if self.tracer.enabled:
            fleet_span = job_tracer.start_span(
                "fleet.job", job=job.job_id, shards=len(shards)
            )
            context = fleet_span.context()
            trace_header = context.to_header() if context is not None else None

        changed = asyncio.Event()
        units_total = sum(len(shard.site_indices) for shard in shards)
        self.lease_manager.open_job(
            job.job_id,
            job.spec.to_json(),
            shards,
            resumed,
            ckpt,
            units_total=units_total,
            observe=self.tracer.enabled,
            trace_parent=trace_header,
            trace_now=job_tracer.now_s if self.tracer.enabled else None,
            on_change=changed.set,
        )
        progress = ProgressReporter(
            label=job.job_id,
            total=units_total,
            sink=lambda event: _publish_progress(job, event),
        )
        running: set[asyncio.Task] = set()
        executor: Executor | None = None
        try:
            status = self.lease_manager.job_status(job.job_id)
            progress.advance(status.units_done, flips=status.flips)
            if self.backend == "local" and status.shards_pending:
                # One dedicated thread (not the loop's shared default
                # executor) keeps the engine's thread-local runner, and
                # so its sampled cells, warm across the job's shards.
                executor = (
                    ThreadPoolExecutor(max_workers=1)
                    if self.engine_workers == 1
                    else ProcessPoolExecutor(
                        max_workers=min(self.engine_workers, status.shards_pending),
                        mp_context=_pool_context(),
                    )
                )
            while True:
                draining = self.draining()
                if executor is not None and not draining:
                    self._lease_local(executor, running, changed)
                status = self.lease_manager.job_status(job.job_id)
                if status.units_done != progress.done:
                    progress.advance(
                        status.units_done - progress.done,
                        flips=status.flips - progress.flips,
                    )
                if status.settled or (draining and not running):
                    break
                changed.clear()
                try:
                    await asyncio.wait_for(changed.wait(), timeout=0.25)
                except asyncio.TimeoutError:
                    pass
        finally:
            if running:
                await asyncio.wait(running)
            if executor is not None:
                await asyncio.to_thread(executor.shutdown)
            async with self._checkpoint_lock:
                result = self.lease_manager.close_job(job.job_id)
        if fleet_span is not None:
            for spans, metrics_snapshot, granted_s in result.trace_batches:
                job_tracer.ingest(spans, parent=fleet_span, shift_s=granted_s)
                if metrics_snapshot:
                    self.metrics.merge_snapshot(metrics_snapshot)
            fleet_span.set(
                shards_completed=result.shards_run,
                shards_resumed=result.shards_resumed,
            )
            fleet_span.__exit__(None, None, None)
        return result

    def _lease_local(
        self, executor: Executor, running: set[asyncio.Task], changed: asyncio.Event
    ) -> None:
        """Lease pending shards to this supervisor, up to ``engine_workers``.

        A finished shard wakes the wait loop at once, which refills its
        slot without waiting for the status poll.
        """
        free = self.engine_workers - len(running)
        if free < 1:
            return
        for grant in self.lease_manager.acquire(_LOCAL_WORKER, free):
            task = asyncio.create_task(self._execute_local_shard(grant, executor))
            running.add(task)
            task.add_done_callback(running.discard)
            task.add_done_callback(lambda _task: changed.set())

    async def _execute_local_shard(self, grant: LeaseGrant, executor: Executor) -> None:
        """Run one locally leased shard and complete it; never raises.

        The lease is heartbeated every third of its TTL while the shard
        runs.  An exception from the executor itself (a killed pool
        process, a runner that cannot be built) becomes a failed attempt,
        so the table's retry budget applies and the job still settles.
        """
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(
                executor,
                execute_shard,
                grant.spec_json,
                grant.shard,
                grant.attempt,
                grant.observe,
                grant.trace_parent,
            )
            while not (await asyncio.wait({future}, timeout=grant.ttl_s / 3.0))[0]:
                self.lease_manager.heartbeat(grant.lease_id, _LOCAL_WORKER, grant.epoch)
            payload = outcome_to_payload(future.result())
        except LeaseError as error:
            logger.warning(
                "local shard %s lost its lease: %s", grant.shard.shard_id, error
            )
            return
        except Exception as error:  # surfaced as a failed attempt
            payload = {
                "ok": False,
                "shard_id": grant.shard.shard_id,
                "error": f"{type(error).__name__}: {error}",
                "traceback": traceback.format_exc(),
            }
        try:
            await self.complete(grant.lease_id, _LOCAL_WORKER, grant.epoch, payload)
        except LeaseError as error:
            logger.warning(
                "local shard %s completion rejected: %s", grant.shard.shard_id, error
            )

    async def _settle(
        self, job: Job, result: EngineResult, elapsed_s: float
    ) -> None:
        """Finish a job either backend ran: interrupted, failed, or done.

        A done job's records go to the result store, and the warehouse
        ingests the job checkpoint and finalizes the source before the
        checkpoint is unlinked.
        """
        if result.interrupted:
            self._enter_state(job, INTERRUPTED, shards_run=result.shards_run)
            await asyncio.to_thread(self.manager.persist, job)
            self.metrics.counter("service.jobs_interrupted").inc()
            logger.info(
                "job %s interrupted by drain after %d shard(s); checkpoint kept",
                job.job_id,
                result.shards_run,
            )
            return
        self.metrics.histogram("service.job_seconds").record(elapsed_s)
        if result.failures:
            first = result.failures[0]
            await self._fail(
                job,
                f"{len(result.failures)} shard(s) failed permanently; "
                f"first: {first.shard_id}: {first.error}",
            )
            return
        await asyncio.to_thread(self.manager.store.put, job.spec, result.records)
        await asyncio.to_thread(self._warehouse_finalize, job)
        self.checkpoint_path(job).unlink(missing_ok=True)
        job.records = len(result.records)
        self._record_state_duration(job)
        job.state = DONE
        job.publish(
            {
                "event": "done",
                "records": job.records,
                "elapsed_s": round(elapsed_s, 3),
                "shards_resumed": result.shards_resumed,
            }
        )
        await asyncio.to_thread(self.manager.persist, job)
        self.metrics.counter("service.jobs_completed").inc()
        logger.info(
            "job %s done: %d records in %.2fs (%d shards resumed)",
            job.job_id,
            job.records,
            elapsed_s,
            result.shards_resumed,
        )

    def _warehouse_finalize(self, job: Job) -> None:
        """Ingest a done job's checkpoint and finalize its source (thread).

        This is the only place a service job reaches the warehouse.
        Analytics read only finalized sources, so nothing is lost by not
        ingesting shards while the job runs.  A source left by an earlier
        crash is caught up by shard provenance (exactly-once).
        """
        if self.warehouse is None:
            return
        try:
            self.warehouse.ingest_checkpoint_file(
                self.checkpoint_path(job), key=job.job_id, finalize=True
            )
        except Exception:
            logger.exception(
                "warehouse finalize failed for job %s; run "
                "'repro warehouse rebuild' to reconverge",
                job.job_id,
            )

    async def _fail(self, job: Job, error: str) -> None:
        job.error = error
        self._record_state_duration(job)
        job.state = FAILED
        job.publish({"event": "failed", "error": error})
        await asyncio.to_thread(self.manager.persist, job)
        self.metrics.counter("service.jobs_failed").inc()
        logger.error("job %s failed: %s", job.job_id, error)


def _publish_progress(job: Job, event: ProgressEvent) -> None:
    """Publish one progress snapshot on ``job``'s stream (loop thread)."""
    job.publish(
        {
            "event": "progress",
            "done": event.done,
            "total": event.total,
            "flips": event.flips,
            "elapsed_s": round(event.elapsed_s, 3),
            "eta_s": None if event.eta_s is None else round(event.eta_s, 3),
        }
    )
