"""Blocking client for the campaign service (stdlib ``http.client``).

The client speaks the JSON API in :mod:`repro.service.server` over one
persistent HTTP/1.1 connection per calling thread, and folds the
service's explicit backpressure into a polite retry loop: ``429`` and
``503`` responses carry ``Retry-After`` and the client sleeps exactly
that long before retrying; connection errors (server not up yet)
back off exponentially with a deterministic schedule (no jitter — the
repo bans nondeterministic randomness outside seeded experiments).  A
kept connection that the server closed while it sat idle (a restart or
a drain) is reopened and the request sent again at once, once, before
any backoff applies; one answered with ``Connection: close`` is dropped
at once and the thread's next call opens a new one.

Typical use::

    client = ServiceClient("http://127.0.0.1:8023")
    status = client.submit(spec)
    for event in client.stream_events(status.job_id):
        ...
    spec, records = client.fetch_results(status.job_id)

``fetch_results_text`` returns the stored schema-v2 file verbatim, so a
submitted campaign's results are byte-identical to a local
``repro campaign`` run of the same spec.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Iterator
from urllib.parse import urlencode, urlsplit

from repro.characterization.campaign import CampaignSpec, loads_results
from repro.obs import TRACE_HEADER, NullTracer, Tracer, get_logger

__all__ = ["ServiceError", "JobStatus", "ServiceClient"]

logger = get_logger("service.client")


class ServiceError(Exception):
    """A request failed permanently (bad status after retries)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


@dataclass(frozen=True)
class JobStatus:
    """One job's status as reported by the service."""

    job_id: str
    state: str
    campaign: str
    cached: bool
    records: int | None
    shards_total: int
    error: str | None
    outcome: str | None = None

    @classmethod
    def from_payload(cls, payload: dict) -> "JobStatus":
        """Build from a ``GET /v1/campaigns/{id}`` (or submit) body."""
        return cls(
            job_id=payload["job_id"],
            state=payload["state"],
            campaign=payload.get("campaign", ""),
            cached=payload.get("cached", False),
            records=payload.get("records"),
            shards_total=payload.get("shards_total", 0),
            error=payload.get("error"),
            outcome=payload.get("outcome"),
        )


def _payload(raw: bytes) -> dict:
    """A JSON reply body as a dict; a non-JSON body as ``{"error": text}``."""
    try:
        return json.loads(raw.decode("utf-8")) if raw else {}
    except ValueError:
        return {"error": raw.decode("utf-8", "replace")}


class ServiceClient:
    """Typed blocking client: a kept connection per thread, retries, Retry-After."""

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        retries: int = 5,
        backoff_s: float = 0.2,
        client_id: str | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", ""):
            raise ValueError(f"only http:// service URLs are supported, got {base_url!r}")
        netloc = parts.netloc or parts.path  # tolerate "host:port" without scheme
        self.host, _, port_text = netloc.partition(":")
        self.port = int(port_text) if port_text else 80
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.client_id = client_id
        #: When set to an active tracer, every request carries the
        #: innermost open span's context in ``X-Repro-Trace`` so the
        #: server's spans (and any submitted job's engine trace) parent
        #: under the client-side call site.
        self.tracer: Tracer | NullTracer = tracer if tracer is not None else NullTracer()
        self._lock = threading.Lock()
        #: Each calling thread's kept connection (``_request``), so a
        #: driver's slot threads and its heartbeat thread never share one.
        self._kept: dict[threading.Thread, http.client.HTTPConnection] = {}
        #: Connections of the event and dashboard streams still open.
        self._streams: set[http.client.HTTPConnection] = set()

    def close(self) -> None:
        """Close every connection this client opened, streams included.

        The client stays usable: a thread's next call opens a new one.
        """
        with self._lock:
            connections = [*self._kept.values(), *self._streams]
            self._kept.clear()
        for connection in connections:
            connection.close()

    # -- transport -----------------------------------------------------

    def _headers(self) -> dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        context = self.tracer.current_context()
        if context is not None:
            headers[TRACE_HEADER] = context.to_header()
        return headers

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)

    def _kept_connection(self) -> http.client.HTTPConnection:
        """The calling thread's kept connection; ended threads' are closed."""
        thread = threading.current_thread()
        with self._lock:
            connection = self._kept.get(thread)
            if connection is None:
                for ended in [t for t in self._kept if not t.is_alive()]:
                    self._kept.pop(ended).close()
                connection = self._kept[thread] = self._connect()
        return connection

    @contextlib.contextmanager
    def _stream_connection(self) -> Iterator[http.client.HTTPConnection]:
        """A connection of its own for one stream, closed when it ends."""
        connection = self._connect()
        with self._lock:
            self._streams.add(connection)
        try:
            yield connection
        finally:
            connection.close()
            with self._lock:
                self._streams.discard(connection)

    def _exchange(
        self, method: str, path: str, body: str | None, wait_s: float
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """Send one request on this thread's connection; the reply and its body.

        ``http.client`` reconnects a closed connection by itself.  A
        kept one that fails before any reply (the server closed it while
        it sat idle) is reopened and the request re-sent once, at once;
        any other error propagates.  ``wait_s`` extends the socket
        timeout of this request only.
        """
        connection = self._kept_connection()
        connection.timeout = self.timeout_s + wait_s
        reused = connection.sock is not None
        if reused:
            connection.sock.settimeout(connection.timeout)
        try:
            try:
                connection.request(method, path, body=body, headers=self._headers())
                response = connection.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                connection.close()
                connection.request(method, path, body=body, headers=self._headers())
                response = connection.getresponse()
            return response, response.read()
        except BaseException:
            connection.close()  # never leave a half-done exchange on it
            raise

    def _request(
        self, method: str, path: str, body: str | None = None, wait_s: float = 0.0
    ) -> bytes:
        """One request with retries; returns the 2xx reply's body.

        Retries connection errors with deterministic exponential backoff
        (``backoff_s * 2**attempt``) and honors ``Retry-After`` on 429
        and 503.  Raises :class:`ServiceError` on any other non-2xx
        status, or after the retry budget is spent.  ``wait_s`` is how
        long the server may hold the reply (a long-poll); it extends the
        socket timeout.
        """
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                response, raw = self._exchange(method, path, body, wait_s)
            except (OSError, http.client.HTTPException) as error:
                last_error = error
                if attempt >= self.retries:
                    break
                delay = self.backoff_s * (2**attempt)
                logger.info(
                    "%s %s failed (%s); retrying in %.2fs", method, path, error, delay
                )
                time.sleep(delay)
                continue
            if response.status in (429, 503) and attempt < self.retries:
                retry_after = float(response.getheader("Retry-After", "1") or "1")
                logger.info(
                    "%s %s -> %d; retrying in %.2fs",
                    method,
                    path,
                    response.status,
                    retry_after,
                )
                time.sleep(retry_after)
                continue
            if response.status >= 400:
                payload = _payload(raw)
                raise ServiceError(
                    response.status, str(payload.get("error", payload))
                )
            return raw
        raise ServiceError(0, f"cannot reach service at {self.host}:{self.port}: {last_error}")

    # -- API -----------------------------------------------------------

    def submit(self, spec: CampaignSpec) -> JobStatus:
        """Submit a campaign spec; dedups and cache hits are transparent."""
        return JobStatus.from_payload(
            _payload(self._request("POST", "/v1/campaigns", body=spec.to_json()))
        )

    def list_jobs(self) -> list[JobStatus]:
        """Every job the service knows, oldest submission first."""
        payload = _payload(self._request("GET", "/v1/campaigns"))
        return [JobStatus.from_payload(job) for job in payload.get("jobs", [])]

    def status(self, job_id: str) -> JobStatus:
        """Current status of one job."""
        return JobStatus.from_payload(
            _payload(self._request("GET", f"/v1/campaigns/{job_id}"))
        )

    def wait(
        self,
        job_id: str,
        timeout_s: float | None = None,
        poll_s: float = 0.2,
    ) -> JobStatus:
        """Poll until the job is ``done`` or ``failed``.

        Polling (rather than holding an event stream open) survives
        service restarts mid-job: a poll whose kept connection the
        restart closed reopens it at once.  Raises
        :class:`TimeoutError` if ``timeout_s`` elapses first.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status.state in ("done", "failed"):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status.state} after {timeout_s}s"
                )
            time.sleep(poll_s)

    def stream_events(self, job_id: str) -> Iterator[dict]:
        """Yield the job's NDJSON events live until it reaches a terminal state.

        ``http.client`` decodes the chunked transfer encoding, so each
        ``readline`` is one JSON event.  The stream replays history
        first, then follows live progress.
        """
        with self._stream_connection() as connection:
            connection.request(
                "GET", f"/v1/campaigns/{job_id}/events", headers=self._headers()
            )
            response = connection.getresponse()
            if response.status != 200:
                raw = response.read().decode("utf-8", "replace")
                raise ServiceError(response.status, raw.strip())
            while True:
                line = response.readline()
                if not line:
                    break
                text = line.decode("utf-8").strip()
                if text:
                    yield json.loads(text)

    def fetch_results_text(self, job_id: str) -> str:
        """The stored schema-v2 results file, byte-for-byte."""
        return self._request("GET", f"/v1/campaigns/{job_id}/results").decode("utf-8")

    def fetch_results(self, job_id: str) -> tuple[CampaignSpec, list]:
        """Results parsed into ``(spec, records)``."""
        return loads_results(
            self.fetch_results_text(job_id), source=f"service job {job_id}"
        )

    # -- fleet lease protocol ------------------------------------------

    def lease_shards(
        self, worker_id: str, max_shards: int = 1, wait_s: float = 0.0
    ) -> dict:
        """Ask the server for up to ``max_shards`` shard leases.

        Returns the raw lease payload: ``{"leases": [...]}`` with each
        entry decodable by :meth:`repro.fleet.leases.LeaseGrant.
        from_payload`.  With ``wait_s`` > 0 the server holds an empty
        answer up to that long (at most its lease TTL) and grants a
        shard that becomes leasable meanwhile.  An empty reply carries
        ``retry_after_s`` only when the server did not wait: ``wait_s``
        was 0, or the server is draining.
        """
        request = {"worker_id": worker_id, "max_shards": max_shards}
        if wait_s:
            request["wait_s"] = wait_s
        return _payload(
            self._request("POST", "/v1/leases", body=json.dumps(request), wait_s=wait_s)
        )

    def lease_heartbeat(self, lease_id: str, worker_id: str, epoch: int) -> dict:
        """Renew one lease; raises :class:`ServiceError` 409 when fenced."""
        return _payload(
            self._request(
                "POST",
                f"/v1/leases/{lease_id}/heartbeat",
                body=json.dumps({"worker_id": worker_id, "epoch": epoch}),
            )
        )

    def lease_complete(
        self, lease_id: str, worker_id: str, epoch: int, result: dict
    ) -> dict:
        """Upload one shard outcome; idempotent, fenced by ``epoch``.

        ``result`` is the wire form from
        :func:`repro.fleet.leases.outcome_to_payload`.  The response's
        ``outcome`` is ``accepted``/``duplicate``/``retry``/``failed``;
        a fenced upload (lease expired, shard reassigned) raises
        :class:`ServiceError` with status 409 and the worker must
        discard its local result.
        """
        return _payload(
            self._request(
                "POST",
                f"/v1/leases/{lease_id}/complete",
                body=json.dumps(
                    {"worker_id": worker_id, "epoch": epoch, "result": result}
                ),
            )
        )

    def analytics(
        self,
        report: str,
        experiment: str | None = None,
        module_id: str | None = None,
        die_key: str | None = None,
    ) -> dict:
        """One warehouse analytics report (``acmin``, ``temperature``,
        ``ber``, or ``modules``), optionally narrowed by experiment,
        module id, or die revision key."""
        query = urlencode(
            {
                name: value
                for name, value in (
                    ("experiment", experiment),
                    ("module", module_id),
                    ("die", die_key),
                )
                if value is not None
            }
        )
        return _payload(self._request("GET", f"/v1/analytics/{report}?{query}"))

    def healthz(self) -> dict:
        """The service's ``/healthz`` payload."""
        return _payload(self._request("GET", "/healthz"))

    def metrics(self) -> dict:
        """The service's exported metrics registry (JSON form)."""
        return _payload(self._request("GET", "/metrics?format=json"))

    def metrics_text(self) -> str:
        """The service's ``/metrics`` Prometheus text exposition."""
        return self._request("GET", "/metrics").decode("utf-8")

    def dashboard(self, interval_s: float = 1.0, count: int = 0) -> Iterator[dict]:
        """Yield live ``/v1/dashboard`` snapshots (NDJSON stream)."""
        with self._stream_connection() as connection:
            connection.request(
                "GET",
                f"/v1/dashboard?interval={interval_s}&count={count}",
                headers=self._headers(),
            )
            response = connection.getresponse()
            if response.status != 200:
                raw = response.read().decode("utf-8", "replace")
                raise ServiceError(response.status, raw.strip())
            while True:
                line = response.readline()
                if not line:
                    break
                text = line.decode("utf-8").strip()
                if text:
                    yield json.loads(text)
