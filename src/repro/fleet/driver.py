"""The one shard driver: lease -> execute -> heartbeat -> complete.

Every campaign shard runs through a :class:`ShardDriver`, leasing
through a client with the lease methods of
:class:`~repro.service.client.ServiceClient`: that client over HTTP
(``repro worker``), :func:`~repro.characterization.engine.run_engine`'s
locked client over its private table, or the local backend's client
that runs each call on the service's event loop.  One rule each:

* **Executing.** Every shard runs through
  :func:`~repro.characterization.engine.execute_shard`, looked up as this
  module's global at call time: with one slot on the thread that called
  :meth:`ShardDriver.run`, else in the process of one of N slot threads.
  The driver's thread forks those processes before any of its other
  threads starts, and forks every replacement.
* **Heartbeats.** One thread renews every held lease at a third of its
  TTL; a lease with an infinite TTL is never renewed.
* **Failures.** Any exception out of the executor, a dead slot process
  included, is a failed attempt carrying its traceback; a dead process
  is replaced.  A fenced heartbeat or completion (``404``/``409``) means
  the lease was lost: the result is discarded.
* **Stopping.** On :meth:`~ShardDriver.stop`, once ``max_shards`` leases
  were taken, or after ``max_idle_s`` without holding a lease.

A client answers for the protocol with errors carrying an HTTP
``status``; any other exception out of a client call ends the run.  The
``fleet.worker.*`` fault points (:mod:`repro.testkit.points`) fire here.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection

from repro.characterization.engine import execute_shard
from repro.fleet.leases import LeaseGrant, outcome_to_payload
from repro.obs import NULL_REGISTRY, MetricsRegistry, SamplingProfiler, get_logger
from repro.testkit.faults import fault_point
from repro.testkit.points import (
    FLEET_WORKER_COMPLETE,
    FLEET_WORKER_EXECUTE,
    FLEET_WORKER_HEARTBEAT,
)

__all__ = ["ShardDriver", "WorkerStats"]

logger = get_logger("fleet.driver")

#: Statuses of a lease the table no longer honours: discard the result.
_FENCED = (404, 409)

#: Slot processes fork where they can: a cheap start that inherits the
#: parent's registrations (and its test patches).
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


def _attempt(grant: LeaseGrant) -> dict:
    """Run one granted shard; its completion payload, failed or not."""
    args = (grant.spec_json, grant.shard, grant.attempt, grant.observe)
    try:
        return outcome_to_payload(execute_shard(*args, grant.trace_parent))
    except Exception as error:  # a failed attempt
        return _failure(grant, error)


def _failure(grant: LeaseGrant, error: Exception) -> dict:
    """The payload of an attempt ended by ``error``, while it is handled."""
    return {
        "ok": False,
        "shard_id": grant.shard.shard_id,
        "error": f"{type(error).__name__}: {error}",
        "traceback": traceback.format_exc(),
    }


def _serve(conn: Connection, driver_end: Connection, profiled: bool) -> None:
    """A slot process: answer each grant sent down ``conn`` until ``None``."""
    driver_end.close()  # then EOF on ``conn`` means the driver is gone
    with contextlib.suppress(EOFError):
        while (grant := conn.recv()) is not None:
            profiler = SamplingProfiler().start() if profiled else None
            payload = _attempt(grant)
            conn.send((payload, profiler.stop().counts if profiler is not None else {}))


class _SlotProcess:
    """One slot's process and the pipe it takes grants from."""

    def __init__(self, profiled: bool) -> None:
        self.conn, peer = _CONTEXT.Pipe()
        self.process = _CONTEXT.Process(target=_serve, args=(peer, self.conn, profiled))
        self.process.daemon = True
        self.process.start()
        peer.close()  # the process holds the only other end: its death is EOF

    def attempt(self, grant: LeaseGrant, profiler: SamplingProfiler | None) -> dict:
        """Run the grant in the process; its death is a failed attempt."""
        try:
            self.conn.send(grant)
            payload, counts = self.conn.recv()
        except (EOFError, OSError):
            self.process.join()
            code = self.process.exitcode
            return _failure(grant, ChildProcessError(f"slot process exited: {code}"))
        if profiler is not None:
            profiler.merge_counts(counts)
        return payload

    def close(self) -> None:
        """Ask the process to exit, and reap it."""
        with contextlib.suppress(OSError):
            self.conn.send(None)
        self.process.join()
        self.conn.close()


@dataclass
class WorkerStats:
    """What one :meth:`ShardDriver.run` call accomplished."""

    shards_executed: int = 0
    shards_discarded: int = 0
    shards_failed: int = 0
    errors: list[str] = field(default_factory=list)


class ShardDriver:
    """Leases shards through ``client`` and runs them on ``slots`` slots.

    ``poll_s`` bounds one lease request's wait for work, and the back-off
    after an empty reply carrying ``retry_after_s``.  ``profiler`` (a
    started :class:`~repro.obs.SamplingProfiler`) receives the samples
    slot processes take, so a multi-slot run still yields one profile.
    """

    def __init__(
        self,
        client,
        worker_id: str,
        slots: int = 1,
        poll_s: float = 0.25,
        max_idle_s: float | None = None,
        max_shards: int | None = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
        profiler: SamplingProfiler | None = None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.client = client
        self.worker_id = worker_id
        self.slots = slots
        self.poll_s = poll_s
        self.max_idle_s = max_idle_s
        self.max_shards = max_shards
        self.metrics = metrics
        self.profiler = profiler
        self.stats = WorkerStats()
        self._stop = threading.Event()
        self._finished = threading.Event()
        self._lock = threading.Lock()
        self._held: dict[str, LeaseGrant] = {}
        self._revoked: set[str] = set()
        self._leasing = 0
        self._idle_since_s = time.monotonic()
        self._ttl_s = math.inf
        self._heartbeat: threading.Thread | None = None
        self._crash: BaseException | None = None

    def stop(self) -> None:
        """Lease nothing more; held shards still finish and complete."""
        self._stop.set()

    def run(self) -> WorkerStats:
        """Drive until a stop condition; returns the tally.

        An exception that ends a slot's thread stops the others and is
        re-raised here.
        """
        return self._drive(self._fork_slots())

    def _fork_slots(self) -> list[_SlotProcess]:
        """A process per slot when there are several, forked on this thread."""
        if self.slots == 1:
            return []
        return [_SlotProcess(self.profiler is not None) for _ in range(self.slots)]

    def _drive(self, processes: list[_SlotProcess]) -> WorkerStats:
        """Run one slot here, or a thread per process, forking replacements."""
        self._idle_since_s = time.monotonic()
        ended: queue.SimpleQueue = queue.SimpleQueue()
        threads: list[threading.Thread] = []

        def slot(index: int) -> None:
            try:
                ended.put((index, self._work(processes[index])))
            except BaseException as error:
                self._crash = self._crash or error
                self._stop.set()
                ended.put((index, False))

        def start(index: int) -> None:
            threads.append(threading.Thread(target=slot, args=(index,)))
            threads[-1].start()

        try:
            if not processes:
                self._work(None)
            for index in range(len(processes)):
                start(index)
            running = len(processes)
            while running:
                index, died = ended.get()
                if died and not self._stop.is_set():
                    processes[index].close()
                    processes[index] = _SlotProcess(self.profiler is not None)
                    start(index)
                else:
                    running -= 1
        finally:
            self._stop.set()
            for thread in threads:
                thread.join()
            for process in processes:
                process.close()
            self._finished.set()
            if self._heartbeat is not None:
                self._heartbeat.join()
        if self._crash is not None:
            raise self._crash
        return self.stats

    def _reserve(self) -> bool:
        """Take a place for one lease request under the caps, or say stop."""
        with self._lock:
            if self._stop.is_set():
                return False
            taken = self.stats.shards_executed + self.stats.shards_discarded
            if self.max_shards is not None and (
                taken + len(self._held) + self._leasing >= self.max_shards
            ):
                return False
            if (
                self.max_idle_s is not None
                and not self._held
                and time.monotonic() - self._idle_since_s > self.max_idle_s
            ):
                return False
            self._leasing += 1
            return True

    def _work(self, process: _SlotProcess | None) -> bool:
        """One slot's loop; True when it ended because its process died."""
        while self._reserve():
            grant = self._lease_one()
            if grant is not None:
                self._run_lease(grant, process)
                if process is not None and process.process.exitcode is not None:
                    return True  # it died
        return False

    def _lease_one(self) -> LeaseGrant | None:
        """Send the reserved lease request; the grant, if one came back."""
        self.metrics.counter("worker.lease_polls").inc()
        try:
            payload = self.client.lease_shards(
                self.worker_id, max_shards=1, wait_s=self.poll_s
            )
        except Exception as error:
            if getattr(error, "status", None) is None:
                raise
            logger.warning("worker %s lease failed: %s", self.worker_id, error)
            self.stats.errors.append(str(error))
            self._stop.wait(self.poll_s)
            return None
        finally:
            with self._lock:
                self._leasing -= 1
        if not payload.get("leases"):
            # A reply that waited out the long-poll asks again at once;
            # one that did not wait carries a hint and is backed off.
            if payload.get("retry_after_s") is not None:
                self._stop.wait(min(float(payload["retry_after_s"]), self.poll_s))
            return None
        grant = LeaseGrant.from_payload(payload["leases"][0])
        with self._lock:
            self._held[grant.lease_id] = grant
            self._ttl_s = min(self._ttl_s, grant.ttl_s)
            if self._heartbeat is None and math.isfinite(self._ttl_s):
                self._heartbeat = threading.Thread(target=self._heartbeats, daemon=True)
                self._heartbeat.start()
        return grant

    def _run_lease(self, grant: LeaseGrant, process: _SlotProcess | None) -> None:
        """Execute and complete one shard, in ``process`` if the slot has one."""
        try:
            fault_point(FLEET_WORKER_EXECUTE)
            if process is None:
                payload = _attempt(grant)
            else:
                payload = process.attempt(grant, self.profiler)
            fault_point(FLEET_WORKER_COMPLETE)
            self._complete(grant, payload)
        finally:
            with self._lock:
                del self._held[grant.lease_id]
                self._revoked.discard(grant.lease_id)
                if not self._held:
                    self._idle_since_s = time.monotonic()

    def _complete(self, grant: LeaseGrant, payload: dict) -> None:
        """Upload one result; count it executed, or discarded when fenced."""
        fenced = grant.lease_id in self._revoked
        if not fenced:
            try:
                self.client.lease_complete(
                    grant.lease_id, self.worker_id, grant.epoch, payload
                )
            except Exception as error:
                status = getattr(error, "status", None)
                if status is None:
                    raise
                if status not in _FENCED:
                    logger.error("worker %s upload failed: %s", self.worker_id, error)
                    self.stats.errors.append(str(error))
                    return
                fenced = True
        with self._lock:
            if fenced:
                self.stats.shards_discarded += 1
            else:
                self.stats.shards_executed += 1
                if not payload["ok"]:
                    self.stats.shards_failed += 1
        if fenced:
            logger.warning("worker %s lost lease %s", self.worker_id, grant.lease_id)
        name = "worker.shards_discarded" if fenced else "worker.shards_executed"
        self.metrics.counter(name).inc()

    def _heartbeats(self) -> None:
        """Renew every held lease at a third of the shortest TTL granted."""
        while not self._finished.wait(self._ttl_s / 3.0):
            with self._lock:
                grants = list(self._held.values())
            for grant in grants:
                if grant.lease_id in self._revoked:
                    continue
                try:
                    fault_point(FLEET_WORKER_HEARTBEAT)
                    self.client.lease_heartbeat(
                        grant.lease_id, self.worker_id, grant.epoch
                    )
                except Exception as error:  # a lost heartbeat only risks expiry
                    if getattr(error, "status", None) in _FENCED:
                        self._revoked.add(grant.lease_id)
                    logger.warning("heartbeat for %s failed: %s", grant.lease_id, error)
