"""End-to-end service tests over real HTTP against a subprocess server."""

import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import __version__
from repro.characterization.campaign import CampaignSpec
from repro.service.client import ServiceClient, ServiceError

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def small_spec(**kwargs):
    defaults = dict(
        name="http-unit",
        module_ids=("S3",),
        experiment="acmin",
        t_aggon_values=(36.0, 7800.0),
        activation_counts=(1, 100),
        sites_per_module=2,
        seed=3,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


_log_serials = itertools.count()


def spawn_repro(args, log_dir: Path, name: str) -> tuple[subprocess.Popen, Path]:
    """Start ``python -m repro ARGS`` with its output in files under ``log_dir``.

    Files, not pipes: nothing reads a pipe while the child runs, so a
    child that wrote more than a pipe buffer would block, and an unread
    pipe is a leaked handle.  The parent's file handles close as soon as
    the child has started (it keeps its own).  Returns the process and
    the path of its stderr file.
    """
    stem = f"{name}-{next(_log_serials)}"
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_SRC)
    stderr_path = log_dir / f"{stem}.stderr"
    with open(log_dir / f"{stem}.stdout", "wb") as stdout, open(stderr_path, "wb") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=environment,
            stdout=stdout,
            stderr=stderr,
        )
    return process, stderr_path


def stderr_tail(path: Path, limit: int = 4000) -> str:
    """The last ``limit`` characters a child wrote to stderr."""
    return path.read_text(errors="replace")[-limit:]


class ServerProcess:
    """A `repro serve` subprocess bound to an ephemeral port."""

    def __init__(self, data_dir: Path, extra_args=()):
        self.data_dir = data_dir
        self.clients: list[ServiceClient] = []
        port_file = data_dir / "port.txt"
        port_file.unlink(missing_ok=True)
        self.process, self.stderr_path = spawn_repro(
            [
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
        """A client of this server; :meth:`kill` closes it."""
        client = ServiceClient(f"http://127.0.0.1:{self.port}", **kwargs)
        self.clients.append(client)
        return client

    def sigterm_and_wait(self, timeout_s: float = 60.0) -> int:
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=timeout_s)

    def kill(self):
        for client in self.clients:
            client.close()
        self.clients.clear()
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)


@pytest.fixture
def server(tmp_path):
    proc = ServerProcess(tmp_path)
    yield proc
    proc.kill()


def test_submit_run_fetch_is_byte_identical_to_local_run(server, tmp_path):
    from repro.characterization.campaign import dumps_results, run_campaign

    client = server.client(client_id="t1")
    spec = small_spec()
    submitted = client.submit(spec)
    assert submitted.outcome == "new"
    final = client.wait(submitted.job_id, timeout_s=120)
    assert final.state == "done"
    text = client.fetch_results_text(final.job_id)
    assert text == dumps_results(spec, run_campaign(spec))


def test_resubmit_is_served_from_cache_without_rerunning(server):
    client = server.client(client_id="t2")
    spec = small_spec(seed=4)
    first = client.submit(spec)
    client.wait(first.job_id, timeout_s=120)
    jobs_before = client.metrics()
    again = client.submit(spec)
    assert again.outcome == "cached"
    assert again.state == "done"
    jobs_after = client.metrics()

    def counter(payload, name):
        return sum(
            entry["value"]
            for entry in payload["counters"]
            if entry["name"] == name
        )

    assert counter(jobs_after, "service.cache_hits") > counter(
        jobs_before, "service.cache_hits"
    )
    assert counter(jobs_after, "service.jobs_submitted") == counter(
        jobs_before, "service.jobs_submitted"
    )


def test_event_stream_replays_and_follows_to_done(server):
    client = server.client(client_id="t3")
    submitted = client.submit(small_spec(seed=5))
    events = list(client.stream_events(submitted.job_id))
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert events[0] == {"seq": 0, "event": "state", "state": "queued"}
    assert events[-1]["event"] == "done"
    assert any(e["event"] == "progress" for e in events)


def test_status_counts_shards_at_the_server_shard_size(server):
    client = server.client(client_id="t-shards")
    # 8 sites x 2 t_AggON points: 16 shards at this server's --shard-size 1.
    submitted = client.submit(small_spec(seed=8, sites_per_module=8))
    assert submitted.state == "queued"
    assert submitted.shards_total == 16
    final = client.wait(submitted.job_id, timeout_s=120)
    assert final.state == "done"
    assert final.shards_total == 16


def test_healthz_and_server_header_advertise_version(server):
    client = server.client()
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["version"] == __version__
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        assert response.getheader("Server") == f"repro-service/{__version__}"
    finally:
        connection.close()


def test_invalid_spec_is_rejected_with_400(server):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request(
            "POST", "/v1/campaigns", body='{"name": "x", "experiment": "bogus"}'
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "invalid campaign spec" in payload["error"]
    finally:
        connection.close()


def test_unknown_job_and_route_return_404(server):
    client = server.client(retries=0)
    with pytest.raises(ServiceError) as excinfo:
        client.status("no-such-job")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/v1/nope")
    assert excinfo.value.status == 404


def test_results_before_done_returns_conflict(server):
    client = server.client(retries=0)
    submitted = client.submit(small_spec(seed=6, sites_per_module=4))
    with pytest.raises(ServiceError) as excinfo:
        client.fetch_results_text(submitted.job_id)
    assert excinfo.value.status == 409
    client.wait(submitted.job_id, timeout_s=120)


def test_rate_limit_returns_429_with_retry_after(tmp_path):
    server = ServerProcess(tmp_path, extra_args=["--rate-per-s", "1", "--rate-burst", "1"])
    try:
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        body = small_spec(seed=7).to_json()
        statuses = []
        for _ in range(3):
            connection.request(
                "POST",
                "/v1/campaigns",
                body=body,
                headers={"X-Client-Id": "hammer"},
            )
            response = connection.getresponse()
            response.read()
            statuses.append((response.status, response.getheader("Retry-After")))
        connection.close()
        assert statuses[0][0] in (200, 202)
        limited = [s for s in statuses if s[0] == 429]
        assert limited, f"no 429 in {statuses}"
        assert all(float(retry) > 0 for _, retry in limited)
    finally:
        server.kill()


def test_sigterm_mid_job_then_restart_completes_job(tmp_path):
    """The headline drain story: SIGTERM checkpoints, restart finishes."""
    server = ServerProcess(tmp_path)
    spec = small_spec(seed=8, sites_per_module=6)  # 12 one-site shards
    try:
        client = server.client(client_id="drain")
        submitted = client.submit(spec)
        # Wait until the job is running AND at least one shard checkpoint
        # has landed — otherwise the restart has nothing to resume and the
        # shards_resumed assertion below races the first shard.
        checkpoint = (
            tmp_path
            / "state"
            / "checkpoints"
            / f"{submitted.job_id}.checkpoint.jsonl"
        )
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status = client.status(submitted.job_id)
            if (
                status.state == "running"
                and checkpoint.exists()
                and '"kind": "shard"' in checkpoint.read_text()
            ):
                break
            if status.state in ("done", "failed"):
                break  # too late to drain; the asserts below explain
            time.sleep(0.05)
        assert status.state == "running"
        assert checkpoint.exists() and checkpoint.read_text().strip()
        assert server.sigterm_and_wait() == 0
        # The persisted record shows an unfinished job, not done/failed.
        record_path = (
            tmp_path / "state" / "jobs" / f"{submitted.job_id}.json"
        )
        persisted = json.loads(record_path.read_text())
        assert persisted["state"] in ("queued", "running", "interrupted")
    finally:
        server.kill()

    restarted = ServerProcess(tmp_path)
    try:
        client = restarted.client(client_id="drain")
        final = client.wait(submitted.job_id, timeout_s=120)
        assert final.state == "done"
        from repro.characterization.campaign import dumps_results, run_campaign

        assert client.fetch_results_text(final.job_id) == dumps_results(
            spec, run_campaign(spec)
        )
        # The resumed run skipped checkpointed shards instead of redoing them.
        events = list(client.stream_events(final.job_id))
        done_event = [e for e in events if e.get("event") == "done"][-1]
        assert done_event["shards_resumed"] > 0
    finally:
        restarted.kill()


def test_draining_server_rejects_new_submissions(tmp_path):
    server = ServerProcess(tmp_path)
    try:
        client = server.client(client_id="d2", retries=0)
        # One t_AggON point: every shard samples a new site's rows (about
        # 80 ms), and the drain lasts as long as the shard in flight.  A
        # SIGTERM sent as one shard completes lands early in the next.
        submitted = client.submit(
            small_spec(seed=9, sites_per_module=6, t_aggon_values=(36.0,))
        )
        for event in client.stream_events(submitted.job_id):
            if event["event"] == "progress" and event["done"] >= 1:
                break
        server.process.send_signal(signal.SIGTERM)
        # The submit below may reach the server before its SIGTERM
        # handler has run: wait until the server says it is draining.
        deadline = time.monotonic() + 30.0
        while client.healthz()["status"] != "draining":
            assert time.monotonic() < deadline, "server never started draining"
        # While the in-flight shard winds down, submissions get 503.
        with pytest.raises(ServiceError) as excinfo:
            client.submit(small_spec(seed=10))
        assert excinfo.value.status == 503
        assert server.process.wait(timeout=60) == 0
    finally:
        server.kill()
