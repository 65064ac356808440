"""Blocking client for the campaign service (stdlib ``http.client``).

The client speaks the JSON API in :mod:`repro.service.server` and folds
the service's explicit backpressure into a polite retry loop: ``429``
and ``503`` responses carry ``Retry-After`` and the client sleeps
exactly that long before retrying; connection errors (server not up
yet, restart mid-conversation) back off exponentially with a
deterministic schedule (no jitter — the repo bans nondeterministic
randomness outside seeded experiments).

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

import http.client
import json
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


class ServiceClient:
    """Typed blocking client with retry, backoff, and Retry-After honor."""

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

    # -- transport -----------------------------------------------------

    def _headers(self) -> dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        context = self.tracer.current_context()
        if context is not None:
            headers[TRACE_HEADER] = context.to_header()
        return headers

    def _connect(self, wait_s: float = 0.0) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s + wait_s
        )

    def _request(
        self, method: str, path: str, body: str | None = None, wait_s: float = 0.0
    ) -> tuple[int, dict]:
        """One JSON request with retries; returns ``(status, payload)``.

        Retries connection errors with deterministic exponential backoff
        (``backoff_s * 2**attempt``) and honors ``Retry-After`` on 429
        and 503.  Raises :class:`ServiceError` on any other non-2xx
        status, or after the retry budget is spent.  ``wait_s`` is how
        long the server may hold the reply (a long-poll); it extends the
        socket timeout.
        """
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            connection = self._connect(wait_s)
            try:
                connection.request(
                    method, path, body=body, headers=self._headers()
                )
                response = connection.getresponse()
                raw = response.read()
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
                try:
                    payload = json.loads(raw.decode("utf-8")) if raw else {}
                except ValueError:
                    payload = {"error": raw.decode("utf-8", "replace")}
                if response.status >= 400:
                    raise ServiceError(
                        response.status, str(payload.get("error", payload))
                    )
                return response.status, payload
            except (ConnectionError, OSError, http.client.HTTPException) as error:
                last_error = error
                if attempt >= self.retries:
                    break
                delay = self.backoff_s * (2**attempt)
                logger.info(
                    "%s %s failed (%s); retrying in %.2fs", method, path, error, delay
                )
                time.sleep(delay)
            finally:
                connection.close()
        raise ServiceError(0, f"cannot reach service at {self.host}:{self.port}: {last_error}")

    # -- API -----------------------------------------------------------

    def submit(self, spec: CampaignSpec) -> JobStatus:
        """Submit a campaign spec; dedups and cache hits are transparent."""
        _status, payload = self._request(
            "POST", "/v1/campaigns", body=spec.to_json()
        )
        return JobStatus.from_payload(payload)

    def list_jobs(self) -> list[JobStatus]:
        """Every job the service knows, oldest submission first."""
        _status, payload = self._request("GET", "/v1/campaigns")
        return [JobStatus.from_payload(job) for job in payload.get("jobs", [])]

    def status(self, job_id: str) -> JobStatus:
        """Current status of one job."""
        _status, payload = self._request("GET", f"/v1/campaigns/{job_id}")
        return JobStatus.from_payload(payload)

    def wait(
        self,
        job_id: str,
        timeout_s: float | None = None,
        poll_s: float = 0.2,
    ) -> JobStatus:
        """Poll until the job is ``done`` or ``failed``.

        Polling (rather than holding an event stream open) survives
        service restarts mid-job — each poll reconnects.  Raises
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
        connection = self._connect()
        try:
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
        finally:
            connection.close()

    def fetch_results_text(self, job_id: str) -> str:
        """The stored schema-v2 results file, byte-for-byte."""
        connection = self._connect()
        try:
            connection.request(
                "GET", f"/v1/campaigns/{job_id}/results", headers=self._headers()
            )
            response = connection.getresponse()
            raw = response.read()
            if response.status != 200:
                try:
                    message = json.loads(raw.decode("utf-8")).get("error", "")
                except ValueError:
                    message = raw.decode("utf-8", "replace")
                raise ServiceError(response.status, str(message))
            return raw.decode("utf-8")
        finally:
            connection.close()

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
        _status, payload = self._request(
            "POST", "/v1/leases", body=json.dumps(request), wait_s=wait_s
        )
        return payload

    def lease_heartbeat(self, lease_id: str, worker_id: str, epoch: int) -> dict:
        """Renew one lease; raises :class:`ServiceError` 409 when fenced."""
        _status, payload = self._request(
            "POST",
            f"/v1/leases/{lease_id}/heartbeat",
            body=json.dumps({"worker_id": worker_id, "epoch": epoch}),
        )
        return payload

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
        _status, payload = self._request(
            "POST",
            f"/v1/leases/{lease_id}/complete",
            body=json.dumps(
                {"worker_id": worker_id, "epoch": epoch, "result": result}
            ),
        )
        return payload

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
        _status, payload = self._request(
            "GET", f"/v1/analytics/{report}?{query}"
        )
        return payload

    def healthz(self) -> dict:
        """The service's ``/healthz`` payload."""
        _status, payload = self._request("GET", "/healthz")
        return payload

    def metrics(self) -> dict:
        """The service's exported metrics registry (JSON form)."""
        _status, payload = self._request("GET", "/metrics?format=json")
        return payload

    def metrics_text(self) -> str:
        """The service's ``/metrics`` Prometheus text exposition."""
        connection = self._connect()
        try:
            connection.request("GET", "/metrics", headers=self._headers())
            response = connection.getresponse()
            raw = response.read()
            if response.status != 200:
                raise ServiceError(
                    response.status, raw.decode("utf-8", "replace").strip()
                )
            return raw.decode("utf-8")
        finally:
            connection.close()

    def dashboard(self, interval_s: float = 1.0, count: int = 0) -> Iterator[dict]:
        """Yield live ``/v1/dashboard`` snapshots (NDJSON stream)."""
        connection = self._connect()
        try:
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
        finally:
            connection.close()
