"""Fleet backend end-to-end over real HTTP: workers, crashes, fencing.

These tests run the full wire stack — a ``repro serve --backend fleet``
subprocess plus ``repro worker`` subprocesses — and hold the fleet to
the same oracle as everything else in the repo: the merged results must
be byte-identical to a sequential in-process ``run_campaign``, even when
a worker is SIGKILLed mid-job or a zombie races a reassigned lease.  The
long-poll tests at the end run the server in-process on its own event
loop thread, so they can start a drain at a chosen instant.
"""

import asyncio
import http.client
import json
import math
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.characterization.campaign import dumps_results, run_campaign
from repro.characterization.engine import execute_shard
from repro.fleet.leases import outcome_to_payload, shard_from_payload
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import CampaignService, ServiceConfig
from tests.test_service_http import ServerProcess, small_spec, spawn_repro


class WorkerProcess:
    """A ``repro worker`` subprocess attached to a fleet server.

    Its output goes to files next to the server's (see ``spawn_repro``).
    """

    def __init__(self, server: ServerProcess, worker_id, concurrency=1, max_idle_s=None):
        args = [
            "worker",
            "--server",
            f"http://127.0.0.1:{server.port}",
            "--worker-id",
            worker_id,
            "--concurrency",
            str(concurrency),
            "--poll-s",
            "0.05",
        ]
        if max_idle_s is not None:
            args += ["--max-idle-s", str(max_idle_s)]
        self.process, self.stderr_path = spawn_repro(
            args, server.data_dir, f"worker-{worker_id}"
        )

    def wait(self, timeout_s=90.0):
        return self.process.wait(timeout=timeout_s)

    def kill9(self):
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)


def run_shard_payload(grant: dict) -> dict:
    """What an honest worker would upload for a lease grant."""
    outcome = execute_shard(
        grant["spec"],
        shard_from_payload(grant["shard"]),
        attempt=grant["attempt"],
    )
    return outcome_to_payload(outcome)


def test_fleet_job_with_two_workers_matches_local_run(tmp_path):
    server = ServerProcess(
        tmp_path, extra_args=("--backend", "fleet", "--lease-ttl-s", "5.0")
    )
    workers = []
    try:
        client = server.client(client_id="fleet-e2e")
        health = client.healthz()
        assert health["backend"] == "fleet"
        assert "fleet" in health
        spec = small_spec(name="fleet-http", seed=31)
        submitted = client.submit(spec)
        workers = [
            WorkerProcess(server, f"w{i}", max_idle_s=5.0)
            for i in (1, 2)
        ]
        final = client.wait(submitted.job_id, timeout_s=120)
        assert final.state == "done"
        text = client.fetch_results_text(final.job_id)
        assert text == dumps_results(spec, run_campaign(spec))
        for worker in workers:
            assert worker.wait() == 0  # idled out cleanly, no errors
    finally:
        for worker in workers:
            worker.kill9()
        server.kill()


def test_worker_sigkilled_mid_job_is_replaced_without_corruption(tmp_path):
    server = ServerProcess(
        tmp_path, extra_args=("--backend", "fleet", "--lease-ttl-s", "2.0")
    )
    doomed = survivor = None
    try:
        client = server.client(client_id="fleet-crash")
        spec = small_spec(name="fleet-crash", seed=33, sites_per_module=3)
        submitted = client.submit(spec)
        doomed = WorkerProcess(server, "doomed")
        # Wait until the worker actually holds a lease, then SIGKILL it
        # mid-shard — the worst case: no goodbye, heartbeats just stop.
        deadline = time.monotonic() + 60.0
        while client.healthz()["fleet"]["leases_outstanding"] == 0:
            assert time.monotonic() < deadline, "worker never leased a shard"
            time.sleep(0.05)
        doomed.kill9()
        survivor = WorkerProcess(server, "survivor", max_idle_s=8.0)
        final = client.wait(submitted.job_id, timeout_s=180)
        assert final.state == "done"
        text = client.fetch_results_text(final.job_id)
        assert text == dumps_results(spec, run_campaign(spec))
        assert survivor.wait() == 0
    finally:
        for worker in (doomed, survivor):
            if worker is not None:
                worker.kill9()
        server.kill()


def test_lease_protocol_reassigns_expired_lease_and_fences_zombie(tmp_path):
    """Drive the wire protocol by hand: expiry, epoch bump, late upload."""
    server = ServerProcess(
        tmp_path, extra_args=("--backend", "fleet", "--lease-ttl-s", "1.0")
    )
    try:
        client = server.client(client_id="fleet-proto")
        spec = small_spec(name="fleet-proto", seed=32)
        submitted = client.submit(spec)
        # submit returns before the supervisor opens the job for leasing.
        deadline = time.monotonic() + 30.0
        while True:
            payload = client.lease_shards("zombie", max_shards=1)
            if payload["leases"]:
                break
            assert time.monotonic() < deadline, "job never became leasable"
            time.sleep(0.05)
        grant = payload["leases"][0]
        assert (
            client.lease_heartbeat(grant["lease_id"], "zombie", grant["epoch"])[
                "ttl_s"
            ]
            > 0
        )
        zombie_upload = run_shard_payload(grant)
        time.sleep(1.3)  # heartbeats stop; the lease expires

        with pytest.raises(ServiceError) as expired:
            client.lease_heartbeat(grant["lease_id"], "zombie", grant["epoch"])
        assert expired.value.status == 409
        with pytest.raises(ServiceError) as unknown:
            client.lease_heartbeat("L9999", "zombie", 0)
        assert unknown.value.status == 404

        # The survivor re-leases the same shard under a bumped epoch.
        regrant = client.lease_shards("survivor", max_shards=1)["leases"][0]
        assert regrant["shard"]["shard_id"] == grant["shard"]["shard_id"]
        assert regrant["epoch"] == grant["epoch"] + 1

        # The zombie's late upload is fenced off; the survivor's lands.
        with pytest.raises(ServiceError) as fenced:
            client.lease_complete(
                grant["lease_id"], "zombie", grant["epoch"], zombie_upload
            )
        assert fenced.value.status == 409
        response = client.lease_complete(
            regrant["lease_id"], "survivor", regrant["epoch"],
            run_shard_payload(regrant),
        )
        assert response["outcome"] == "accepted"

        # Drain the rest of the job by hand and check the merged output.
        while True:
            leases = client.lease_shards("survivor", max_shards=4)["leases"]
            if not leases:
                break
            for entry in leases:
                client.lease_complete(
                    entry["lease_id"], "survivor", entry["epoch"],
                    run_shard_payload(entry),
                )
        final = client.wait(submitted.job_id, timeout_s=60)
        assert final.state == "done"
        text = client.fetch_results_text(final.job_id)
        assert text == dumps_results(spec, run_campaign(spec))

        counters = {
            entry["name"]: entry["value"]
            for entry in client.metrics()["counters"]
        }
        assert counters.get("fleet.leases_reassigned", 0) >= 1
        assert counters.get("fleet.completions_rejected", 0) >= 1
    finally:
        server.kill()


# ----------------------------------------------------------------------
# long-poll lease grants, against an in-process fleet server
# ----------------------------------------------------------------------


class InProcessService:
    """A ``CampaignService`` on its own event-loop thread.

    It serves the fleet backend on an ephemeral port unless ``config``
    says otherwise.
    """

    def __init__(self, data_dir, **config):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        defaults = {"port": 0, "backend": "fleet", "shard_size": 1}
        self.service = self.call(
            self._start(ServiceConfig(data_dir=data_dir, **{**defaults, **config}))
        )
        self.port = self.service.port
        self.client = ServiceClient(f"http://127.0.0.1:{self.port}", retries=0)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    async def _start(self, config):
        service = CampaignService(config)
        await service.start()
        return service

    def call(self, coroutine, timeout_s=60.0):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(
            timeout_s
        )

    def begin_drain(self):
        self.loop.call_soon_threadsafe(self.service.begin_drain)

    def wait_for_workers(self, count, timeout_s=10.0):
        """Block until ``count`` workers have a lease request at the server."""
        deadline = time.monotonic() + timeout_s
        while self.client.healthz()["fleet"]["workers_active"] < count:
            assert time.monotonic() < deadline, "lease request never arrived"
            time.sleep(0.01)

    async def _shutdown(self):
        self.service.begin_drain()
        await self.service.wait_drained()
        await self.service.stop()
        pending = [
            task for task in asyncio.all_tasks() if task is not asyncio.current_task()
        ]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    def close(self):
        self.client.close()
        try:
            self.call(self._shutdown())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30.0)


@pytest.fixture
def fleet_service(tmp_path):
    service = InProcessService(tmp_path / "state")
    yield service
    service.close()


def post_lease(port, body):
    """One raw ``POST /v1/leases``: ``(status, payload, seconds taken)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    started = time.monotonic()
    try:
        connection.request("POST", "/v1/leases", body=json.dumps(body))
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    return response.status, payload, time.monotonic() - started


def one_shard_spec(**kwargs):
    return small_spec(t_aggon_values=(36.0,), sites_per_module=1, **kwargs)


def test_waiting_lease_request_is_granted_the_first_shard_of_a_new_job(
    fleet_service,
):
    with ThreadPoolExecutor(max_workers=1) as pool:
        waiting = pool.submit(
            post_lease, fleet_service.port, {"worker_id": "w1", "wait_s": 5.0}
        )
        fleet_service.wait_for_workers(1)
        submitted = fleet_service.client.submit(small_spec(name="long-poll", seed=41))
        status, payload, elapsed_s = waiting.result(timeout=30.0)
    assert status == 200
    (lease,) = payload["leases"]
    assert lease["job_id"] == submitted.job_id
    assert lease["shard"]["index"] == 0
    assert "retry_after_s" not in payload
    assert elapsed_s < 5.0


def test_idle_lease_request_waits_out_its_window_without_a_hint(fleet_service):
    status, payload, elapsed_s = post_lease(
        fleet_service.port, {"worker_id": "w1", "wait_s": 0.3}
    )
    assert status == 200
    assert payload == {"leases": []}
    assert elapsed_s >= 0.3


def test_lease_request_without_wait_s_is_answered_at_once(fleet_service):
    status, payload, elapsed_s = post_lease(fleet_service.port, {"worker_id": "w1"})
    assert status == 200
    assert payload == {"leases": [], "retry_after_s": 0.5}
    assert elapsed_s < 1.0


def test_drain_answers_a_waiting_lease_request_with_a_hint(fleet_service):
    with ThreadPoolExecutor(max_workers=1) as pool:
        waiting = pool.submit(
            post_lease, fleet_service.port, {"worker_id": "w1", "wait_s": 5.0}
        )
        fleet_service.wait_for_workers(1)
        drained_s = time.monotonic()
        fleet_service.begin_drain()
        status, payload, _elapsed_s = waiting.result(timeout=30.0)
    assert time.monotonic() - drained_s < 1.0
    assert status == 200
    assert payload == {"leases": [], "retry_after_s": 1.0}


@pytest.mark.parametrize("wait_s", [-1.0, math.nan, "x"])
def test_invalid_wait_s_is_rejected_with_400(fleet_service, wait_s):
    status, payload, _elapsed_s = post_lease(
        fleet_service.port, {"worker_id": "w1", "wait_s": wait_s}
    )
    assert status == 400
    assert "invalid lease request" in payload["error"]


def test_lease_wait_is_capped_at_the_lease_ttl(tmp_path):
    service = InProcessService(tmp_path / "state", lease_ttl_s=0.5)
    try:
        status, payload, elapsed_s = post_lease(
            service.port, {"worker_id": "w1", "wait_s": 5.0}
        )
    finally:
        service.close()
    assert status == 200
    assert payload == {"leases": []}
    assert 0.5 <= elapsed_s < 2.0


def test_two_waiting_requests_share_a_one_shard_job_without_a_double_grant(
    fleet_service,
):
    with ThreadPoolExecutor(max_workers=2) as pool:
        waiting = [
            pool.submit(
                post_lease, fleet_service.port, {"worker_id": worker, "wait_s": 2.0}
            )
            for worker in ("w1", "w2")
        ]
        fleet_service.wait_for_workers(2)
        submitted = fleet_service.client.submit(one_shard_spec(seed=42))
        assert submitted.shards_total == 1
        replies = [future.result(timeout=30.0) for future in waiting]
    granted = [reply for reply in replies if reply[1]["leases"]]
    empty = [reply for reply in replies if not reply[1]["leases"]]
    assert len(granted) == 1 and len(empty) == 1
    assert granted[0][1]["leases"][0]["job_id"] == submitted.job_id
    assert granted[0][2] < 2.0
    # The loser waits out its own window, then answers empty, no hint.
    assert empty[0][1] == {"leases": []}
    assert empty[0][2] >= 2.0


def test_waiting_lease_request_whose_worker_hung_up_is_granted_nothing(
    fleet_service,
):
    body = json.dumps({"worker_id": "gone", "wait_s": 5.0}).encode("utf-8")
    with socket.create_connection(("127.0.0.1", fleet_service.port)) as dying:
        dying.sendall(
            b"POST /v1/leases HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body)
        )
        fleet_service.wait_for_workers(1)
    # The worker is gone mid-wait; the job that opens next is not its.
    submitted = fleet_service.client.submit(small_spec(name="hung-up", seed=43))
    status, payload, _elapsed_s = post_lease(
        fleet_service.port, {"worker_id": "alive", "wait_s": 5.0}
    )
    assert status == 200
    (lease,) = payload["leases"]
    assert lease["job_id"] == submitted.job_id
    assert lease["shard"]["index"] == 0
