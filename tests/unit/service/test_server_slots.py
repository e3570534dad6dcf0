"""Unit: execution slots, admission and drain on the live socket path.

Each connection thread runs its own handler once it holds one of the
server's ``workers`` execution slots.  A blocking handler probe stands
in for :meth:`ImageServer.handle_message` so the tests can hold
requests mid-execution and observe how many run at once.
"""

import socket
import threading
import time

import pytest

from repro.core.system import Expelliarmus
from repro.service.protocol import (
    make_request,
    ok_payload,
    recv_message,
    send_message,
)
from repro.service.server import ImageServer, ServerConfig

WORKERS = 2
QUEUE_LIMIT = 2


class _BlockingHandler:
    """Counts concurrent executions; each call blocks until released."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self._lock = threading.Lock()
        self.running = 0
        self.peak = 0
        self.entered = 0

    def __call__(self, message: dict) -> dict:
        with self._lock:
            self.running += 1
            self.entered += 1
            self.peak = max(self.peak, self.running)
        try:
            self.release.wait(10.0)
            return ok_payload({"pong": True})
        finally:
            with self._lock:
                self.running -= 1


def _wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


@pytest.fixture
def probed():
    server = ImageServer(
        Expelliarmus(),
        ServerConfig(
            workers=WORKERS,
            queue_limit=QUEUE_LIMIT,
            checkpoint_idle_s=None,
        ),
    )
    probe = _BlockingHandler()
    server.handle_message = probe
    server.start()
    conns: list[socket.socket] = []

    def send_ping() -> socket.socket:
        conn = socket.create_connection(server.endpoint, timeout=10.0)
        conns.append(conn)
        send_message(conn, make_request("ping", None))
        return conn

    try:
        yield server, probe, send_ping
    finally:
        probe.release.set()
        server.stop()
        for conn in conns:
            conn.close()


def _fill(server, probe, send_ping) -> list[socket.socket]:
    """Occupy every execution slot and every queue place."""
    conns = [send_ping() for _ in range(WORKERS + QUEUE_LIMIT)]
    _wait_for(lambda: server.admission.active == WORKERS + QUEUE_LIMIT)
    _wait_for(lambda: probe.entered == WORKERS)
    return conns


def test_at_most_workers_handlers_run_at_once(probed):
    server, probe, send_ping = probed
    conns = _fill(server, probe, send_ping)
    time.sleep(0.1)  # room for a queued request to oversubscribe
    assert probe.running == WORKERS
    probe.release.set()
    for conn in conns:
        assert recv_message(conn)["ok"] is True
    assert probe.entered == WORKERS + QUEUE_LIMIT
    assert probe.peak == WORKERS


def test_requests_past_capacity_are_rejected_overloaded(probed):
    server, probe, send_ping = probed
    conns = _fill(server, probe, send_ping)
    late = send_ping()
    response = recv_message(late)
    assert response["ok"] is False
    assert response["error"]["code"] == "overloaded"
    assert server.admission.rejected == 1
    probe.release.set()
    for conn in conns:
        assert recv_message(conn)["ok"] is True
    assert probe.entered == WORKERS + QUEUE_LIMIT


def test_stop_drains_in_flight_and_queued_requests(probed):
    server, probe, send_ping = probed
    conns = _fill(server, probe, send_ping)
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    time.sleep(0.1)
    assert stopper.is_alive(), "stop() returned with requests in flight"
    probe.release.set()
    for conn in conns:
        assert recv_message(conn)["ok"] is True
    stopper.join(10.0)
    assert not stopper.is_alive()
    assert probe.entered == WORKERS + QUEUE_LIMIT
    assert server.requests_served == WORKERS + QUEUE_LIMIT
