"""Campaign-as-a-service: a dependency-free asyncio HTTP/1.1 server.

The service turns the campaign engine into a multi-tenant job system,
the way litex-rowhammer-tester exposes its payload executor behind a
remote client.  Every submitted campaign opens its shards in the
service's :mod:`repro.fleet` lease table.  ``ServiceConfig.backend``
selects who leases them: ``local`` runs them on the server box (the
supervisor's shard driver leases them), while with ``fleet`` ``repro worker``
processes pull them over the ``/v1/leases`` API — same spec,
byte-identical results either way.  Both complete shards through one
supervisor method and settle through one path that stores the results
and feeds the job's checkpoint into the warehouse.

Routes (all JSON; see docs/SERVICE.md and docs/FLEET.md)::

    POST /v1/campaigns                submit a CampaignSpec (validated
                                      against the experiment registry)
    GET  /v1/campaigns                list known jobs
    GET  /v1/campaigns/{id}           job status
    GET  /v1/campaigns/{id}/events    NDJSON progress stream (chunked)
    GET  /v1/campaigns/{id}/results   schema-v2 results (byte-identical
                                      to a local `repro campaign` run)
    POST /v1/leases                   lease pending shards to a worker
                                      (a long-poll: ``wait_s`` holds an
                                      empty answer until work arrives)
    POST /v1/leases/{id}/heartbeat    renew a lease before its TTL
    POST /v1/leases/{id}/complete     upload one shard outcome
                                      (fenced by epoch; idempotent)
    GET  /v1/analytics/{report}       warehouse aggregates (ACmin
                                      percentiles per die, temperature
                                      deltas, BER curves, per-module
                                      summaries; see docs/WAREHOUSE.md)
    GET  /v1/dashboard                live NDJSON fleet snapshots
                                      (``?interval=<s>&count=<n>``)
    GET  /metrics                     Prometheus text exposition
                                      (``?format=json`` for the raw
                                      repro.obs registry)
    GET  /healthz                     readiness / drain state + version

Every request may carry an ``X-Repro-Trace`` header (a serialized
:class:`repro.obs.TraceContext`); the server opens an ``http.request``
span parented under it and re-propagates *its own* context into
submitted jobs, so client, server, engine, and worker spans merge into
one end-to-end trace.

Backpressure surfaces as ``429`` with ``Retry-After`` (token-bucket
rate limiting per client, bounded job queue); a draining server answers
submissions with ``503``.  SIGTERM triggers a graceful drain: stop
accepting work, answer waiting lease requests, stop leasing the running
job's shards (running local shards finish and checkpoint; the
checkpoint survives), persist state, exit — a restarted server
re-enqueues and resumes unfinished jobs.

``POST /v1/leases`` is a long-poll, so an idle ``repro worker`` gets a
new job's first shard when the job opens rather than at its next poll:
the lease table's ``on_pending`` hook sets one wake event that every
waiting request watches.

Everything is stdlib: ``asyncio`` transports and a small, strict
HTTP/1.1 request parser.  The matching blocking client lives in
:mod:`repro.service.client`.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable
from urllib.parse import parse_qs

from repro import __version__
from repro.characterization.campaign import CampaignSpec
from repro.fleet.leases import LeaseError, LeaseManager
from repro.obs import (
    TRACE_HEADER,
    MetricsRegistry,
    NullTracer,
    Observer,
    TraceContext,
    Tracer,
    atomic_write_text,
    declare_standard_metrics,
    get_logger,
    monotonic_s,
)
from repro.service.jobs import (
    DONE,
    JobManager,
    JobSupervisor,
    QueueFull,
    RateLimited,
    TERMINAL_STATES,
)
from repro.service.store import ResultStore
from repro.warehouse import REPORTS, Warehouse

__all__ = ["ServiceConfig", "HttpRequest", "CampaignService", "serve"]

logger = get_logger("service.server")

#: Advertised in the ``Server:`` header and ``/healthz``.
SERVER_ID = f"repro-service/{__version__}"

#: Largest accepted request body (campaign specs are tiny).
_MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class Route:
    """One declarative route: method, ``{param}`` pattern, metric label."""

    method: str
    pattern: str
    name: str

    def match(self, method: str, segments: list[str]) -> dict[str, str] | None:
        """Path params when ``method``/``segments`` hit this route."""
        pattern_segments = [part for part in self.pattern.split("/") if part]
        if method != self.method or len(pattern_segments) != len(segments):
            return None
        params: dict[str, str] = {}
        for expected, got in zip(pattern_segments, segments):
            if expected.startswith("{") and expected.endswith("}"):
                params[expected[1:-1]] = got
            elif expected != got:
                return None
        return params


#: The service's entire HTTP surface, as data.  ``repro lint --flow``
#: reads this literal and cross-checks it against every request path in
#: :mod:`repro.service.client` and :mod:`repro.cli` (flow-route-mismatch),
#: so the table cannot drift from the clients unnoticed.  Order matters
#: only for documentation; patterns are disjoint.
ROUTES: tuple[Route, ...] = (
    Route("GET", "/healthz", "healthz"),
    Route("GET", "/metrics", "metrics"),
    Route("GET", "/v1/dashboard", "dashboard"),
    Route("GET", "/v1/analytics/{report}", "analytics"),
    Route("POST", "/v1/campaigns", "submit"),
    Route("GET", "/v1/campaigns", "list"),
    Route("GET", "/v1/campaigns/{job_id}", "status"),
    Route("GET", "/v1/campaigns/{job_id}/events", "events"),
    Route("GET", "/v1/campaigns/{job_id}/results", "results"),
    Route("POST", "/v1/leases", "lease"),
    Route("POST", "/v1/leases/{lease_id}/heartbeat", "heartbeat"),
    Route("POST", "/v1/leases/{lease_id}/complete", "complete"),
)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to stand up one service instance."""

    data_dir: str | Path
    host: str = "127.0.0.1"
    port: int = 8023
    engine_workers: int = 1
    shard_size: int = 4
    queue_limit: int = 16
    rate_per_s: float = 50.0
    rate_burst: float = 100.0
    #: Who leases submitted jobs' shards: ``"local"`` runs them in this
    #: process; ``"fleet"`` leaves them to ``repro worker`` processes.
    backend: str = "local"
    #: Lease TTL: a worker (local or remote) must heartbeat within this
    #: window or its shard is reassigned to another worker.
    lease_ttl_s: float = 10.0
    #: When set, the actually-bound port is written here once listening
    #: (useful with ``port=0`` for tests and benchmarks).
    port_file: str | Path | None = None


@dataclass
class HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    query: str
    headers: dict[str, str]
    body: bytes
    client: str
    #: Serialized :class:`TraceContext` for this request.  Parsed from
    #: the ``X-Repro-Trace`` header, then *overwritten* by the dispatcher
    #: with the server's own request-span context before routing, so
    #: handlers propagate the request span (not the client span) onward.
    trace_parent: str | None = None
    #: True once the client has hung up (end of stream, or a reset);
    #: a long-poll checks it so a dead worker is granted nothing.
    hung_up: Callable[[], bool] = lambda: False

    @property
    def client_id(self) -> str:
        """Rate-limiting identity: ``X-Client-Id`` header, else peer host."""
        return self.headers.get("x-client-id", self.client)


async def _read_request(
    reader: asyncio.StreamReader, client: str
) -> HttpRequest | None:
    """Parse one request off the connection; None on EOF/garbage."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        return None
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        return None
    if length < 0 or length > _MAX_BODY_BYTES:
        length = -1  # signal oversized; the dispatcher answers 413
    body = b""
    if length > 0:
        try:
            body = await reader.readexactly(length)
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
    path, _, query = target.partition("?")
    request = HttpRequest(
        method=method,
        path=path,
        query=query,
        headers=headers,
        body=body,
        client=client,
        trace_parent=headers.get(TRACE_HEADER.lower()),
        hung_up=lambda: reader.at_eof() or reader.exception() is not None,
    )
    if length == -1:
        request.headers["x-internal-oversized"] = "1"
    return request


class CampaignService:
    """The HTTP front end wired to a job manager, supervisor, and store."""

    def __init__(
        self, config: ServiceConfig, observer: Observer | None = None
    ) -> None:
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        if observer is not None and observer.metrics.enabled:
            self.metrics: MetricsRegistry = observer.metrics
        else:
            self.metrics = MetricsRegistry()
        if observer is not None and observer.tracer.enabled:
            self.tracer: Tracer | NullTracer = observer.tracer
        else:
            self.tracer = NullTracer()
        declare_standard_metrics(self.metrics)
        self.store = ResultStore(self.data_dir / "results")
        #: Derived columnar index over completed results; analytics
        #: queries and each done job's settle go through here.  All
        #: warehouse calls hop to worker threads (sqlite is blocking).
        self.warehouse = Warehouse(
            self.data_dir / "warehouse.sqlite3", metrics=self.metrics
        )
        self.manager = JobManager(
            self.data_dir,
            self.store,
            queue_limit=config.queue_limit,
            rate_per_s=config.rate_per_s,
            rate_burst=config.rate_burst,
            metrics=self.metrics,
            shard_size=config.shard_size,
        )
        #: Set by the lease table whenever a shard becomes leasable, and
        #: by :meth:`begin_drain`; waiting ``POST /v1/leases`` requests
        #: wake on it and re-run ``acquire``.
        self._lease_wake = asyncio.Event()
        self.lease_manager = LeaseManager(
            ttl_s=config.lease_ttl_s,
            metrics=self.metrics,
            on_pending=self._lease_wake.set,
        )
        self.supervisor = JobSupervisor(
            self.manager,
            self.data_dir / "checkpoints",
            engine_workers=config.engine_workers,
            shard_size=config.shard_size,
            draining=lambda: self._draining,
            metrics=self.metrics,
            tracer=self.tracer,
            backend=config.backend,
            lease_manager=self.lease_manager,
            warehouse=self.warehouse,
        )
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._supervisor_task: asyncio.Task | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._started_s = monotonic_s()

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Recover persisted jobs, bind the socket, start the supervisor.

        Recovery reads every persisted job record and the port file is a
        real write, so both hop to a worker thread — the loop may already
        be serving another service instance in the same process (tests).
        """
        recovered = await asyncio.to_thread(self.manager.recover)
        if recovered:
            logger.info("resuming %d job(s) from a previous run", recovered)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._supervisor_task = asyncio.create_task(self.supervisor.run())
        if self.config.port_file is not None:
            await asyncio.to_thread(
                atomic_write_text, Path(self.config.port_file), f"{self.port}\n"
            )
        logger.info(
            "%s listening on %s:%d (data dir %s)",
            SERVER_ID,
            self.config.host,
            self.port,
            self.data_dir,
        )

    def begin_drain(self) -> None:
        """Stop accepting jobs and leasing the current job's shards.

        Waiting lease requests answer at once, empty, with a
        ``retry_after_s`` hint.
        """
        if self._draining:
            return
        self._draining = True
        logger.info("drain requested: no new jobs; checkpointing in-flight work")
        self.manager.wake()
        self._lease_wake.set()

    async def wait_drained(self) -> None:
        """Block until the supervisor has wound down (after a drain)."""
        if self._supervisor_task is not None:
            await self._supervisor_task

    async def stop(self) -> None:
        """Close the listening socket and every open connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        await asyncio.to_thread(self.warehouse.close)
        logger.info("server stopped")

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else "?"
        self._writers.add(writer)
        try:
            while True:
                request = await _read_request(reader, client)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        started = monotonic_s()
        route = "unknown"
        # Detached span: concurrent handlers on one event loop can't
        # share the tracer's nesting stack.  The request span parents
        # under the client's propagated context, and *its* context
        # replaces ``request.trace_parent`` so submitted jobs nest under
        # this request rather than dangling off the client span.
        span = self.tracer.start_span(
            "http.request",
            parent=TraceContext.from_header(request.trace_parent),
            method=request.method,
            path=request.path,
        )
        context = span.context()
        if context is not None:
            request.trace_parent = context.to_header()
        try:
            try:
                route, keep_alive = await self._route(request, writer)
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as error:  # never leak a traceback as a hang
                logger.exception(
                    "unhandled error serving %s %s", request.method, request.path
                )
                await self._send_json(
                    writer,
                    500,
                    {"error": f"internal error: {type(error).__name__}: {error}"},
                )
                keep_alive = False
        finally:
            span.set(route=route).__exit__()
        self.metrics.counter("service.requests").inc()
        self.metrics.counter("service.requests_by_route", route=route).inc()
        self.metrics.histogram("service.request_seconds", route=route).record(
            monotonic_s() - started
        )
        if request.headers.get("connection", "").lower() == "close":
            return False
        return keep_alive

    async def _route(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> tuple[str, bool]:
        """Dispatch against :data:`ROUTES`; returns (route label, keep-alive)."""
        if request.headers.pop("x-internal-oversized", None):
            await self._send_json(
                writer,
                413,
                {"error": f"request body exceeds {_MAX_BODY_BYTES} bytes"},
            )
            return "oversized", False
        segments = [part for part in request.path.split("/") if part]
        matched: Route | None = None
        params: dict[str, str] = {}
        for route in ROUTES:
            found = route.match(request.method, segments)
            if found is not None:
                matched, params = route, found
                break
        if matched is None:
            await self._send_json(
                writer,
                404 if request.method in ("GET", "POST") else 405,
                {"error": f"no route for {request.method} {request.path}"},
            )
            return "unknown", True
        if matched.name == "healthz":
            # Fleet stats come off the loop thread (the LeaseManager is
            # event-loop-only); the rest of the payload hops to a thread.
            fleet = self.lease_manager.stats()
            payload = await asyncio.to_thread(self._health_payload)
            payload["backend"] = self.config.backend
            payload["fleet"] = fleet
            await self._send_json(writer, 200, payload)
            return "healthz", True
        if matched.name == "lease":
            return "lease", await self._post_lease(request, writer)
        if matched.name in ("heartbeat", "complete"):
            return matched.name, await self._post_lease_op(
                matched.name, params["lease_id"], request, writer
            )
        if matched.name == "metrics":
            self.manager.update_state_gauges()
            fmt = parse_qs(request.query).get("format", ["prometheus"])[0]
            if fmt == "json":
                await self._send_json(writer, 200, self.metrics.to_dict())
            else:
                await self._send(
                    writer,
                    200,
                    self.metrics.to_prometheus().encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            return "metrics", True
        if matched.name == "dashboard":
            return "dashboard", await self._stream_dashboard(writer, request)
        if matched.name == "analytics":
            return "analytics", await self._get_analytics(
                params["report"], request, writer
            )
        if matched.name == "submit":
            return "submit", await self._post_campaign(request, writer)
        if matched.name == "list":
            await self._send_json(
                writer,
                200,
                {
                    "jobs": [
                        job.to_payload()
                        for job in sorted(
                            self.manager.jobs.values(),
                            key=lambda j: j.submitted_seq,
                        )
                    ]
                },
            )
            return "list", True
        # status/events/results all key on the job id.
        job = self.manager.jobs.get(params["job_id"])
        if job is None:
            await self._send_json(
                writer,
                404,
                {"error": f"unknown campaign job {params['job_id']!r}"},
            )
            return "status", True
        if matched.name == "status":
            await self._send_json(writer, 200, job.to_payload())
            return "status", True
        if matched.name == "events":
            await self._stream_events(writer, job)
            return "events", True
        return "results", await self._get_results(writer, job)

    # -- handlers ------------------------------------------------------

    def _health_payload(self) -> dict:
        """The ``/healthz`` body: readiness, drain state, and version.

        ``store.keys()`` lists the results directory, so handlers call
        this via ``asyncio.to_thread`` rather than on the event loop.
        """
        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "server": SERVER_ID,
            "uptime_s": round(monotonic_s() - self._started_s, 3),
            "jobs": job_states(self.manager.jobs.values()),
            "queue_depth": self.manager.queued_count(),
            "results_cached": len(self.store.keys()),
        }

    async def _post_campaign(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """``POST /v1/campaigns``: admit a spec, or push back."""
        if self._draining:
            await self._send_json(
                writer,
                503,
                {"error": "service is draining; resubmit after restart"},
                extra={"Retry-After": "1"},
            )
            return True
        try:
            self.manager.check_rate(request.client_id)
        except RateLimited as limited:
            await self._send_json(
                writer,
                429,
                {"error": str(limited)},
                extra={"Retry-After": f"{math.ceil(limited.retry_after_s)}"},
            )
            return True
        try:
            spec = CampaignSpec.from_json(request.body.decode("utf-8"))
        except (ValueError, TypeError, KeyError, UnicodeDecodeError) as error:
            await self._send_json(
                writer,
                400,
                {"error": f"invalid campaign spec: {error}"},
            )
            return True
        try:
            job, outcome = await self.manager.submit(
                spec,
                client=request.client_id,
                trace_parent=request.trace_parent,
            )
        except QueueFull as full:
            await self._send_json(
                writer,
                429,
                {"error": str(full)},
                extra={"Retry-After": f"{math.ceil(full.retry_after_s)}"},
            )
            return True
        payload = job.to_payload()
        payload["outcome"] = outcome
        await self._send_json(writer, 202 if outcome == "new" else 200, payload)
        return True

    def _json_body(self, request: HttpRequest) -> dict:
        """Parse a JSON object body; raises ``ValueError`` on garbage."""
        if not request.body:
            return {}
        payload = json.loads(request.body.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    async def _post_lease(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """``POST /v1/leases``: hand pending shards to a pull worker.

        A long-poll: when nothing is leasable, a request with ``wait_s``
        > 0 (capped at the lease TTL) is held until a shard becomes
        leasable (and is granted in this reply), the server starts
        draining, or the wait runs out.  Every waiting request wakes on
        each new shard and re-runs ``acquire``; the ones that get
        nothing wait out the rest of their own window.  Only a reply
        that did not wait carries a ``retry_after_s`` hint, so workers
        back off instead of spinning: 0.5 for an empty answer to
        ``wait_s`` 0, 1.0 while draining.
        """
        try:
            payload = self._json_body(request)
            worker_id = str(payload.get("worker_id") or request.client_id)
            max_shards = int(payload.get("max_shards", 1))
            wait_s = float(payload.get("wait_s", 0.0))
            if not wait_s >= 0.0:
                raise ValueError(f"wait_s must be >= 0, got {wait_s}")
        except (ValueError, TypeError, UnicodeDecodeError) as error:
            await self._send_json(
                writer, 400, {"error": f"invalid lease request: {error}"}
            )
            return True
        deadline_s = monotonic_s() + min(wait_s, self.lease_manager.ttl_s)
        grants: list = []
        while not self._draining:
            # Clear before acquiring: a shard that turns leasable after
            # this acquire sets the event again, so no wake-up is lost.
            self._lease_wake.clear()
            try:
                grants = self.lease_manager.acquire(worker_id, max_shards)
            except LeaseError as error:
                await self._send_json(writer, error.status, {"error": str(error)})
                return True
            remaining_s = deadline_s - monotonic_s()
            if grants or remaining_s <= 0.0:
                break
            try:
                await asyncio.wait_for(self._lease_wake.wait(), remaining_s)
            except asyncio.TimeoutError:
                pass
            if request.hung_up():
                break  # the worker died while waiting: grant it nothing
        body: dict = {"leases": [grant.to_payload() for grant in grants]}
        if self._draining:
            body["retry_after_s"] = 1.0
        elif not grants and wait_s == 0.0:
            body["retry_after_s"] = 0.5
        await self._send_json(writer, 200, body)
        return True

    async def _post_lease_op(
        self,
        op: str,
        lease_id: str,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """``POST /v1/leases/{id}/heartbeat|complete``: fenced lease ops.

        Both present the worker id and the fencing epoch the lease was
        granted under; a stale pair answers ``409`` and the worker must
        discard its result.  Completions go through
        :meth:`JobSupervisor.complete`, the path local shards take too.
        """
        try:
            payload = self._json_body(request)
            worker_id = str(payload["worker_id"])
            epoch = int(payload["epoch"])
        except (ValueError, KeyError, UnicodeDecodeError) as error:
            await self._send_json(
                writer,
                400,
                {"error": f"invalid {op} request: {error!r}"},
            )
            return True
        try:
            if op == "heartbeat":
                ttl_s = self.lease_manager.heartbeat(lease_id, worker_id, epoch)
                await self._send_json(writer, 200, {"ttl_s": ttl_s})
                return True
            result_payload = payload.get("result")
            if not isinstance(result_payload, dict):
                raise LeaseError("completion is missing its 'result' object")
            result = await self.supervisor.complete(
                lease_id, worker_id, epoch, result_payload
            )
        except LeaseError as error:
            await self._send_json(writer, error.status, {"error": str(error)})
            return True
        await self._send_json(writer, 200, {"outcome": result.outcome})
        return True

    async def _get_analytics(
        self, report: str, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """``GET /v1/analytics/{report}``: warehouse aggregate queries.

        Optional query params narrow the fold: ``experiment``,
        ``module`` (a module id), ``die`` (a die revision key).  The
        query runs on a worker thread — sqlite and the fold never touch
        the event loop.
        """
        params = parse_qs(request.query)

        def first(name: str) -> str | None:
            values = params.get(name)
            return values[0] if values else None

        if report not in REPORTS:
            await self._send_json(
                writer,
                404,
                {
                    "error": f"unknown analytics report {report!r}",
                    "reports": sorted(REPORTS),
                },
            )
            return True
        payload = await asyncio.to_thread(
            self.warehouse.analytics,
            report,
            first("experiment"),
            first("module"),
            first("die"),
        )
        await self._send_json(writer, 200, payload)
        return True

    async def _get_results(
        self, writer: asyncio.StreamWriter, job
    ) -> bool:
        """``GET .../results``: the stored schema-v2 file, verbatim."""
        if job.state != DONE:
            status = 409 if job.state not in TERMINAL_STATES else 404
            await self._send_json(
                writer,
                status,
                {
                    "error": f"campaign job {job.job_id} is {job.state}, "
                    f"results are available once it is {DONE}",
                    "state": job.state,
                },
            )
            return True
        try:
            text = await asyncio.to_thread(self.store.read_text, job.job_id)
        except KeyError:
            await self._send_json(
                writer,
                404,
                {"error": f"results for {job.job_id} are missing from the store"},
            )
            return True
        await self._send(
            writer, 200, text.encode("utf-8"), content_type="application/json"
        )
        return True

    async def _stream_events(self, writer: asyncio.StreamWriter, job) -> None:
        """``GET .../events``: replay + live NDJSON until terminal."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Server: {SERVER_ID}\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        index = 0
        while True:
            while index < len(job.events):
                data = (json.dumps(job.events[index]) + "\n").encode("utf-8")
                writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
                index += 1
            await writer.drain()
            if job.terminal and index >= len(job.events):
                break
            await job.wait_changed()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    def _dashboard_snapshot(self, fleet: dict) -> dict:
        """One NDJSON line of the live dashboard stream (worker thread).

        ``fleet`` is the lease manager's stats, sampled on the loop
        thread by the caller (the manager is event-loop-only).
        """
        self.manager.update_state_gauges()
        return {
            "uptime_s": round(monotonic_s() - self._started_s, 3),
            "draining": self._draining,
            "backend": self.config.backend,
            "jobs": job_states(self.manager.jobs.values()),
            "queue_depth": self.manager.queued_count(),
            "results_cached": len(self.store.keys()),
            "fleet": fleet,
        }

    async def _stream_dashboard(
        self, writer: asyncio.StreamWriter, request: HttpRequest
    ) -> bool:
        """``GET /v1/dashboard``: chunked NDJSON fleet snapshots.

        ``?interval=<seconds>`` sets the cadence (default 1.0, clamped
        to [0.05, 60]); ``?count=<n>`` stops after n snapshots (default
        unbounded — the client hangs up when done watching).
        """
        params = parse_qs(request.query)
        try:
            interval_s = float(params.get("interval", ["1.0"])[0])
            count = int(params.get("count", ["0"])[0])
        except ValueError:
            await self._send_json(
                writer, 400, {"error": "interval and count must be numeric"}
            )
            return True
        interval_s = min(max(interval_s, 0.05), 60.0)
        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Server: {SERVER_ID}\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        sent = 0
        while True:
            fleet = self.lease_manager.stats()
            snapshot = await asyncio.to_thread(self._dashboard_snapshot, fleet)
            data = (json.dumps(snapshot) + "\n").encode("utf-8")
            writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
            await writer.drain()
            self.metrics.counter("service.dashboard_snapshots").inc()
            sent += 1
            if (count and sent >= count) or self._draining:
                break
            await asyncio.sleep(interval_s)
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return True

    # -- response plumbing ---------------------------------------------

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra: dict[str, str] | None = None,
    ) -> None:
        """Serialize ``payload`` and send it with ``status``."""
        await self._send(
            writer,
            status,
            (json.dumps(payload, indent=1) + "\n").encode("utf-8"),
            content_type="application/json",
            extra=extra,
        )

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra: dict[str, str] | None = None,
    ) -> None:
        """Write one complete HTTP/1.1 response."""
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Server: {SERVER_ID}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


async def _serve_async(config: ServiceConfig, observer: Observer | None) -> int:
    """Start the service and block until a drain completes."""
    service = CampaignService(config, observer=observer)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, service.begin_drain)
        except (NotImplementedError, RuntimeError):  # non-POSIX loops
            pass
    await service.wait_drained()
    await service.stop()
    return 0


def serve(config: ServiceConfig, observer: Observer | None = None) -> int:
    """Blocking entry point for ``repro serve``.

    Runs until SIGTERM/SIGINT, then drains gracefully: no further shard
    is leased, running local shards finish and checkpoint, job state is
    persisted, and a later ``repro serve`` on the same data
    directory resumes whatever was unfinished.
    """
    try:
        return asyncio.run(_serve_async(config, observer))
    except KeyboardInterrupt:  # SIGINT raced the handler installation
        return 0


def job_states(jobs: Iterable) -> dict[str, int]:
    """Histogram of job states (shared by /healthz and the CLI)."""
    states: dict[str, int] = {}
    for job in jobs:
        states[job.state] = states.get(job.state, 0) + 1
    return states
