"""The ``repro worker`` process: the shard driver bound to a service.

A :class:`FleetWorker` is the pull side of the lease protocol in
:mod:`repro.fleet.leases`: the one shard driver
(:class:`~repro.fleet.driver.ShardDriver`) leasing through a
:class:`~repro.service.client.ServiceClient` on ``concurrency`` slots,
under the driver's rules.  Fault handling is one-sided: the worker
trusts the server to fence, and discards a result whose lease was lost
(``409``/``404``), since whoever re-ran the shard produced identical
bytes from its deterministic seed.
"""

from __future__ import annotations

import os
import socket
import threading

from repro.fleet.driver import ShardDriver, WorkerStats
from repro.obs import MetricsRegistry
from repro.service.client import ServiceClient

__all__ = ["FleetWorker", "WorkerStats", "default_worker_id"]


def default_worker_id() -> str:
    """``worker-<host>-<pid>``: unique per process, stable within one."""
    return f"worker-{socket.gethostname()}-{os.getpid()}"


class FleetWorker(ShardDriver):
    """A pull-based shard worker speaking the ``/v1/leases`` protocol.

    ``client`` is anything with the three lease methods of
    :class:`~repro.service.client.ServiceClient` (tests inject an
    in-process shim around a real ``LeaseManager``).
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
        super().__init__(
            client,
            worker_id if worker_id is not None else default_worker_id(),
            slots=concurrency,
            poll_s=poll_s,
            max_idle_s=max_idle_s,
            max_shards=max_shards,
            metrics=metrics if metrics is not None else MetricsRegistry(),
        )

    def run(self) -> WorkerStats:
        """Drive on a daemon thread until a stop condition.

        Slot processes fork first, on this thread.  A crash ends only the
        driving thread, as a killed worker process would.
        """
        processes = self._fork_slots()
        driver = threading.Thread(target=self._drive, args=(processes,), daemon=True)
        driver.start()
        driver.join()
        return self.stats
