"""End-to-end trace propagation: client -> server -> engine -> workers.

The acceptance property for the fleet-telemetry work: one submitted
campaign yields ONE coherent Chrome trace in which the server's
``http.request`` span is an ancestor of every ``campaign.shard`` span,
by way of the job's ``fleet.job`` span — including shards executed in
local pool *processes*, whose spans cross two process boundaries
(worker -> supervisor -> service tracer) before export.
"""

from __future__ import annotations

import http.client
import json
import signal
import time
from pathlib import Path

import pytest

from repro.characterization.campaign import CampaignSpec
from repro.obs import TRACE_HEADER, TraceContext, Tracer
from repro.service.client import ServiceClient
from tests.test_service_http import spawn_repro, stderr_tail


def small_spec(**kwargs):
    defaults = dict(
        name="trace-prop",
        module_ids=("S3",),
        experiment="acmin",
        t_aggon_values=(36.0, 7800.0),
        activation_counts=(1, 100),
        sites_per_module=2,
        seed=11,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TracingServer:
    """A `repro --trace-out ... serve` subprocess on an ephemeral port.

    The global ``--trace-out`` flag turns on the service's tracer; the
    Chrome trace is written when the drained server exits.
    """

    def __init__(self, data_dir: Path, trace_out: Path, extra_args=()):
        port_file = data_dir / "port.txt"
        self.trace_out = trace_out
        self.process, self.stderr_path = spawn_repro(
            [
                "--trace-out",
                str(trace_out),
                "serve",
                "--data-dir",
                str(data_dir / "state"),
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--shard-size",
                "1",
                *extra_args,
            ],
            data_dir,
            "server",
        )
        deadline = time.monotonic() + 30.0
        while not port_file.exists():
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server died at startup: {stderr_tail(self.stderr_path)}"
                )
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(
                    "server did not write its port file: "
                    f"{stderr_tail(self.stderr_path)}"
                )
            time.sleep(0.02)
        self.port = int(port_file.read_text())

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(f"http://127.0.0.1:{self.port}", **kwargs)

    def drain_and_read_trace(self, timeout_s: float = 60.0) -> dict:
        self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(timeout=timeout_s)
        assert code == 0, stderr_tail(self.stderr_path)
        return json.loads(self.trace_out.read_text())

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)


def _ancestors(event: dict, by_id: dict[str, dict]) -> list[dict]:
    """Walk the exported parent chain as far as the file resolves it."""
    chain = []
    seen = set()
    parent_id = event.get("parent")
    while parent_id is not None and parent_id in by_id and parent_id not in seen:
        seen.add(parent_id)
        parent = by_id[parent_id]
        chain.append(parent)
        parent_id = parent.get("parent")
    return chain


@pytest.mark.parametrize("workers", [1, 2])
def test_request_span_is_ancestor_of_every_worker_shard_span(tmp_path, workers):
    trace_out = tmp_path / "service_trace.json"
    server = TracingServer(
        tmp_path, trace_out, extra_args=["--workers", str(workers)]
    )
    try:
        tracer = Tracer()
        client = server.client(client_id="trace-test", tracer=tracer)
        with tracer.span("test.submit") as submit_span:
            submitted = client.submit(small_spec(seed=20 + workers))
            final = client.wait(submitted.job_id, timeout_s=120)
        assert final.state == "done"
        trace = server.drain_and_read_trace()
    finally:
        server.kill()

    events = trace["traceEvents"]
    by_id = {event["id"]: event for event in events}
    shard_events = [e for e in events if e["name"] == "campaign.shard"]
    request_events = [e for e in events if e["name"] == "http.request"]
    assert shard_events, "expected engine shard spans in the service trace"
    assert request_events

    submit_requests = []
    for shard in shard_events:
        chain = _ancestors(shard, by_id)
        names = [ancestor["name"] for ancestor in chain]
        assert "fleet.job" in names
        assert "http.request" in names, (
            f"shard span {shard['id']} does not nest under a request span "
            f"(ancestry: {names})"
        )
        request = next(a for a in chain if a["name"] == "http.request")
        submit_requests.append(request["id"])
        # One trace end to end: the shard inherited the submitting
        # request's trace id, which is the *client* tracer's trace id.
        assert shard["trace"] == request["trace"] == tracer.trace_id

    # Every shard nests under the same submitting request.
    assert len(set(submit_requests)) == 1

    # The submitting request span parents under the client-side span
    # (whose id the server only knows from the X-Repro-Trace header).
    submit_request = by_id[submit_requests[0]]
    assert submit_request["parent"] == submit_span.context().span_id


def test_server_metrics_expose_prometheus_text(tmp_path):
    trace_out = tmp_path / "trace.json"
    server = TracingServer(tmp_path, trace_out)
    try:
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        body = response.read().decode("utf-8")
        connection.close()
        assert response.status == 200
        assert response.getheader("Content-Type", "").startswith("text/plain")
        assert "# TYPE service_requests_total counter" in body
        for line in body.splitlines():
            assert line.startswith("#") or " " in line
        # JSON fallback for the typed client.
        payload = server.client().metrics()
        assert any(c["name"] == "service.requests" for c in payload["counters"])
        text = server.client().metrics_text()
        assert "# TYPE" in text
    finally:
        server.kill()


def test_dashboard_streams_ndjson_snapshots(tmp_path):
    server = TracingServer(tmp_path, tmp_path / "trace.json")
    try:
        snapshots = list(server.client().dashboard(interval_s=0.05, count=3))
        assert len(snapshots) == 3
        for snapshot in snapshots:
            assert "jobs" in snapshot
            assert "queue_depth" in snapshot
            assert snapshot["draining"] is False
        payload = server.client().metrics()
        dashboard_counter = next(
            c
            for c in payload["counters"]
            if c["name"] == "service.dashboard_snapshots"
        )
        assert dashboard_counter["value"] == 3
        by_state = [
            g for g in payload["gauges"] if g["name"] == "service.jobs_by_state"
        ]
        assert {g["labels"]["state"] for g in by_state} >= {
            "queued",
            "running",
            "done",
            "failed",
            "interrupted",
        }
    finally:
        server.kill()


def test_trace_header_roundtrip_matches_client_context():
    context = TraceContext(trace_id="aabb", span_id="ccdd")
    assert TraceContext.from_header(context.to_header()) == context
    assert TRACE_HEADER == "X-Repro-Trace"
