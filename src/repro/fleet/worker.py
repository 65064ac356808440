"""The ``repro worker`` process: lease shards, execute, upload, repeat.

A :class:`FleetWorker` is the pull side of the lease protocol in
:mod:`repro.fleet.leases`.  It runs ``concurrency`` work-loop threads,
each cycling lease -> execute (through the engine's public
:func:`~repro.characterization.engine.execute_shard` entry point) ->
complete, plus one dedicated heartbeat thread that renews every held
lease at a third of its TTL so a healthy worker never expires while a
killed one does.

Each lease request is a long-poll of ``poll_s`` seconds: the server
holds an empty answer until a shard becomes leasable, so an idle worker
gets a new job's first shard when the job opens.  After an empty reply
that waited, the worker asks again at once; a reply carrying
``retry_after_s`` (a server that did not wait, or one that is draining)
is backed off by ``min(retry_after_s, poll_s)``.

Fault handling is intentionally one-sided: the worker trusts the server
to fence.  When a heartbeat or completion answers ``409``/``404`` the
lease was lost (expired and reassigned, or the job settled) and the
worker *discards* its local result — uploading would be double-counting,
and the shard's deterministic seed guarantees whoever re-ran it produced
identical bytes.  Crash tests hook the three ``fleet.worker.*`` fault
points (:mod:`repro.testkit.points`) to kill workers mid-shard, drop
heartbeats until expiry, and race completions against reassignment.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

from repro.characterization.engine import execute_shard
from repro.fleet.leases import LeaseGrant, outcome_to_payload
from repro.obs import MetricsRegistry, get_logger
from repro.service.client import ServiceClient, ServiceError
from repro.testkit.faults import fault_point
from repro.testkit.points import (
    FLEET_WORKER_COMPLETE,
    FLEET_WORKER_EXECUTE,
    FLEET_WORKER_HEARTBEAT,
)

__all__ = ["FleetWorker", "default_worker_id"]

logger = get_logger("fleet.worker")


def default_worker_id() -> str:
    """``worker-<host>-<pid>``: unique per process, stable within one."""
    import os

    return f"worker-{socket.gethostname()}-{os.getpid()}"


@dataclass
class _HeldLease:
    """One lease a work thread is currently executing."""

    grant: LeaseGrant
    revoked: bool = False


@dataclass
class WorkerStats:
    """What one :meth:`FleetWorker.run` call accomplished."""

    shards_executed: int = 0
    shards_discarded: int = 0
    shards_failed: int = 0
    lease_polls: int = 0
    errors: list[str] = field(default_factory=list)


class FleetWorker:
    """A pull-based shard worker speaking the ``/v1/leases`` protocol.

    ``client`` is anything with the three lease methods of
    :class:`~repro.service.client.ServiceClient` (tests inject an
    in-process shim around a real ``LeaseManager``).  The worker stops
    when ``max_shards`` shards have been executed, when no lease has
    been granted for ``max_idle_s``, or on :meth:`stop`.
    """

    def __init__(
        self,
        server_url: str | None = None,
        worker_id: str | None = None,
        concurrency: int = 1,
        poll_s: float = 0.25,
        max_idle_s: float | None = None,
        max_shards: int | None = None,
        client: object | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if client is None:
            if server_url is None:
                raise ValueError("FleetWorker needs a server_url or a client")
            client = ServiceClient(server_url)
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.client = client
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.concurrency = concurrency
        self.poll_s = poll_s
        self.max_idle_s = max_idle_s
        self.max_shards = max_shards
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = WorkerStats()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._held: dict[str, _HeldLease] = {}
        self._last_grant_s = time.monotonic()
        self._heartbeat_ttl_s = 10.0

    # -- lifecycle -----------------------------------------------------

    def stop(self) -> None:
        """Ask every loop to wind down after its current shard."""
        self._stop.set()

    def run(self) -> WorkerStats:
        """Run until a stop condition; returns the tally."""
        logger.info(
            "worker %s starting: concurrency=%d poll=%.2fs",
            self.worker_id,
            self.concurrency,
            self.poll_s,
        )
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True
        )
        heartbeat.start()
        workers = [
            threading.Thread(
                target=self._work_loop, name=f"fleet-work-{index}", daemon=True
            )
            for index in range(self.concurrency)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        self._stop.set()
        heartbeat.join(timeout=5.0)
        logger.info(
            "worker %s done: %d executed, %d discarded, %d failed",
            self.worker_id,
            self.stats.shards_executed,
            self.stats.shards_discarded,
            self.stats.shards_failed,
        )
        return self.stats

    # -- work loop -----------------------------------------------------

    def _should_stop(self) -> bool:
        if self._stop.is_set():
            return True
        with self._lock:
            if (
                self.max_shards is not None
                and self.stats.shards_executed + self.stats.shards_discarded
                >= self.max_shards
            ):
                return True
            idle_s = time.monotonic() - self._last_grant_s
        if self.max_idle_s is not None and idle_s > self.max_idle_s:
            return True
        return False

    def _work_loop(self) -> None:
        while not self._should_stop():
            try:
                grant = self._lease_one()
            except ServiceError as error:
                logger.warning("worker %s lease failed: %s", self.worker_id, error)
                with self._lock:
                    self.stats.errors.append(str(error))
                self._stop.wait(self.poll_s)
                continue
            if grant is None:
                continue
            try:
                self._run_lease(grant)
            except ServiceError as error:
                logger.error(
                    "worker %s shard %s upload failed permanently: %s",
                    self.worker_id,
                    grant.shard.shard_id,
                    error,
                )
                with self._lock:
                    self.stats.errors.append(str(error))

    def _lease_one(self) -> LeaseGrant | None:
        with self._lock:
            self.stats.lease_polls += 1
        self.metrics.counter("worker.lease_polls").inc()
        payload = self.client.lease_shards(
            self.worker_id, max_shards=1, wait_s=self.poll_s
        )
        leases = payload.get("leases", [])
        if not leases:
            # An empty reply that waited out the long-poll asks again at
            # once; one that did not wait (wait_s unsupported, or the
            # server is draining) carries a hint and is backed off.
            retry_s = payload.get("retry_after_s")
            if retry_s is not None:
                self._stop.wait(min(float(retry_s), self.poll_s))
            return None
        grant = LeaseGrant.from_payload(leases[0])
        with self._lock:
            self._last_grant_s = time.monotonic()
            self._held[grant.lease_id] = _HeldLease(grant)
            self._heartbeat_ttl_s = min(self._heartbeat_ttl_s, grant.ttl_s)
        return grant

    def _run_lease(self, grant: LeaseGrant) -> None:
        try:
            fault_point(FLEET_WORKER_EXECUTE)
            outcome = execute_shard(
                grant.spec_json,
                grant.shard,
                attempt=grant.attempt,
                observe=grant.observe,
                trace_header=grant.trace_parent,
            )
            fault_point(FLEET_WORKER_COMPLETE)
            self._upload(grant, outcome_to_payload(outcome))
        finally:
            with self._lock:
                self._held.pop(grant.lease_id, None)

    def _upload(self, grant: LeaseGrant, result: dict) -> None:
        with self._lock:
            revoked = self._held[grant.lease_id].revoked
        if revoked:
            self._discard(grant, "lease revoked before upload")
            return
        try:
            response = self.client.lease_complete(
                grant.lease_id, self.worker_id, grant.epoch, result
            )
        except ServiceError as error:
            if error.status in (404, 409):
                self._discard(grant, f"completion fenced ({error.status})")
                return
            raise
        outcome = response.get("outcome", "accepted")
        with self._lock:
            self.stats.shards_executed += 1
            if not result.get("ok", False):
                self.stats.shards_failed += 1
        self.metrics.counter("worker.shards_executed").inc()
        logger.info(
            "worker %s shard %s attempt %d -> %s",
            self.worker_id,
            grant.shard.shard_id,
            grant.attempt,
            outcome,
        )

    def _discard(self, grant: LeaseGrant, reason: str) -> None:
        with self._lock:
            self.stats.shards_discarded += 1
        self.metrics.counter("worker.shards_discarded").inc()
        logger.warning(
            "worker %s discarding shard %s result: %s",
            self.worker_id,
            grant.shard.shard_id,
            reason,
        )

    # -- heartbeat loop ------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                interval = max(self._heartbeat_ttl_s / 3.0, 0.05)
                held = list(self._held.values())
            for entry in held:
                if entry.revoked:
                    continue
                try:
                    fault_point(FLEET_WORKER_HEARTBEAT)
                    self.client.lease_heartbeat(
                        entry.grant.lease_id, self.worker_id, entry.grant.epoch
                    )
                except ServiceError as error:
                    if error.status in (404, 409):
                        entry.revoked = True
                        logger.warning(
                            "worker %s lost lease %s (%d): will discard",
                            self.worker_id,
                            entry.grant.lease_id,
                            error.status,
                        )
                    else:
                        logger.warning(
                            "worker %s heartbeat for %s failed: %s",
                            self.worker_id,
                            entry.grant.lease_id,
                            error,
                        )
                except OSError as error:
                    logger.warning(
                        "worker %s heartbeat for %s dropped: %s",
                        self.worker_id,
                        entry.grant.lease_id,
                        error,
                    )
            self._stop.wait(interval)
