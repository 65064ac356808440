"""The service's HTTP transport: kept connections, drain and reconnects.

A :class:`~repro.service.client.ServiceClient` keeps one HTTP/1.1
connection per calling thread.  These tests run the server in-process on
its own event-loop thread (``InProcessService``) so they can read its
``service.connections`` counter, stop it and restart it on the same port
at chosen instants.
"""

import http.client
import json
import threading
import time

import pytest

from repro.characterization.campaign import dumps_results, run_campaign
from repro.fleet import driver
from repro.fleet.worker import FleetWorker
from repro.service.client import ServiceClient, ServiceError
from tests.test_fleet_http import InProcessService, one_shard_spec
from tests.test_service_http import small_spec


@pytest.fixture
def service(tmp_path):
    service = InProcessService(tmp_path / "state")
    yield service
    service.close()


def url(service: InProcessService) -> str:
    return f"http://127.0.0.1:{service.port}"


def connections(service: InProcessService) -> int:
    return service.service.metrics.value("service.connections")


def test_calls_from_one_thread_share_one_connection(service):
    before = connections(service)
    client = ServiceClient(url(service))
    for _ in range(20):
        client.healthz()
    assert connections(service) - before == 1

    def ten_calls():
        for _ in range(10):
            client.healthz()

    threads = [threading.Thread(target=ten_calls) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert connections(service) - before == 3  # one more per new thread
    # A new thread's first call closes the ended threads' connections.
    last = threading.Thread(target=client.healthz)
    last.start()
    last.join()
    assert set(client._kept) == {threading.current_thread(), last}
    client.close()
    client.healthz()  # a closed client reopens on its next call
    assert connections(service) - before == 5
    client.close()


def test_stop_closes_idle_kept_connections_and_the_next_call_reconnects(tmp_path):
    first = InProcessService(tmp_path / "state")
    # A backoff sleep would take 30 s: the reconnect must not wait.
    client = ServiceClient(url(first), retries=1, backoff_s=30.0)
    client.healthz()  # leaves this thread's connection open and idle
    server = first.service._server
    wait_closed = server.wait_closed
    closing_at_wait: list[list[bool]] = []

    async def recording_wait_closed():
        # From Python 3.12.1 wait_closed() waits for every open
        # connection: each must already be closing when it is awaited.
        closing_at_wait.append([w.is_closing() for w in first.service._writers])
        await wait_closed()

    server.wait_closed = recording_wait_closed
    started = time.monotonic()
    first.close()
    assert time.monotonic() - started < 5.0
    assert closing_at_wait and closing_at_wait[0] and all(closing_at_wait[0])

    restarted = InProcessService(tmp_path / "state", port=first.port)
    try:
        started = time.monotonic()
        assert client.healthz()["status"] == "ok"
        assert time.monotonic() - started < 5.0
        metrics = restarted.service.metrics
        assert metrics.value("service.connections") == 1
        assert metrics.value("service.requests") == 1
    finally:
        client.close()
        restarted.close()


def test_a_long_poll_on_a_kept_connection_extends_only_its_own_timeout(service):
    client = ServiceClient(url(service), timeout_s=0.3, retries=0)
    client.healthz()
    started = time.monotonic()
    assert client.lease_shards("w1", wait_s=1.0) == {"leases": []}
    assert time.monotonic() - started >= 1.0
    # The next plain call has timeout_s again: a reply the server holds
    # for a second times out after 0.3 s.
    started = time.monotonic()
    with pytest.raises(ServiceError) as excinfo:
        client._request(
            "POST", "/v1/leases", body=json.dumps({"worker_id": "w2", "wait_s": 1.0})
        )
    assert excinfo.value.status == 0
    assert time.monotonic() - started < 0.9
    client.close()


def test_a_413_reply_closes_the_connection_and_the_client_drops_it(
    service, monkeypatch
):
    oversized = {"Content-Length": str(2 << 20)}  # declared, never sent
    connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
    try:
        connection.request("GET", "/healthz", headers=oversized)
        response = connection.getresponse()
        response.read()
        assert response.status == 413
        assert response.getheader("Connection") == "close"
    finally:
        connection.close()

    client = ServiceClient(url(service), retries=0)
    client.healthz()
    before = connections(service)
    headers = client._headers
    monkeypatch.setattr(client, "_headers", lambda: {**headers(), **oversized})
    with pytest.raises(ServiceError) as excinfo:
        client.healthz()
    assert excinfo.value.status == 413
    monkeypatch.undo()
    assert client._kept[threading.current_thread()].sock is None  # dropped
    client.healthz()
    assert connections(service) - before == 1
    client.close()


def test_a_body_too_large_for_the_socket_buffers_still_gets_its_413(service):
    """The server reads and drops an oversized body after its reply, so
    the client, still sending it, reads the 413 and not a reset."""
    client = ServiceClient(url(service), retries=0)
    try:
        for size in ((1 << 20) + 1, 8 << 20):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/campaigns", body="x" * size)
            assert excinfo.value.status == 413
        client.healthz()  # a new connection for the next call
    finally:
        client.close()


def test_a_slot_thread_and_its_heartbeat_thread_never_share_a_connection(
    tmp_path, monkeypatch
):
    service = InProcessService(tmp_path / "state", lease_ttl_s=1.0)
    used: list[tuple[str, str, int]] = []
    request = http.client.HTTPConnection.request

    def recording_request(connection, method, path, *args, **kwargs):
        if path.startswith("/v1/leases"):
            used.append((threading.current_thread().name, path, id(connection)))
        return request(connection, method, path, *args, **kwargs)

    execute_shard = driver.execute_shard

    def slow_execute_shard(*args):
        time.sleep(1.0)  # three heartbeats at a third of the 1 s TTL
        return execute_shard(*args)

    monkeypatch.setattr(http.client.HTTPConnection, "request", recording_request)
    monkeypatch.setattr(driver, "execute_shard", slow_execute_shard)
    try:
        service.client.submit(one_shard_spec(seed=44))
        worker = FleetWorker(url(service), worker_id="w1", poll_s=0.05, max_shards=1)
        stats = worker.run()
        worker.client.close()
    finally:
        service.close()
    assert stats.shards_executed + stats.shards_discarded == 1
    beats = {(name, conn) for name, path, conn in used if path.endswith("/heartbeat")}
    slot = {(name, conn) for name, path, conn in used if not path.endswith("/heartbeat")}
    assert beats and slot
    assert len({name for name, _ in beats}) == len({conn for _, conn in beats}) == 1
    assert len({name for name, _ in slot}) == len({conn for _, conn in slot}) == 1
    assert not {conn for _, conn in beats} & {conn for _, conn in slot}
    assert not {name for name, _ in beats} & {name for name, _ in slot}


def test_results_over_a_kept_connection_stay_byte_identical(tmp_path):
    service = InProcessService(tmp_path / "state", backend="local")
    try:
        client = ServiceClient(url(service), retries=0)
        spec = small_spec(seed=12)
        submitted = client.submit(spec)
        final = client.wait(submitted.job_id, timeout_s=120, poll_s=0.05)
        assert final.state == "done"
        texts = [client.fetch_results_text(final.job_id) for _ in range(2)]
        assert connections(service) == 1  # submit, polls and fetches
        client.close()
    finally:
        service.close()
    expected = dumps_results(spec, run_campaign(spec))
    assert texts == [expected, expected]
