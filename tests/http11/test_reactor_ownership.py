"""The reactor's ownership model: the thread epoll wakes for a connection
owns it from read through handler to write, handler slots are bounded
without ever blocking readiness, and the reactor refuses to build where
``select.epoll`` is missing."""

import collections
import random
import select
import threading
import time

import pytest

from repro.http11 import (CONCURRENCY_ENV, Headers, HttpConnection,
                          HttpServer, PipelinedHttpConnection,
                          ReactorHttpServer, Request, Response,
                          ThreadedHttpServer, default_concurrency)
from repro.http11.reactor import _ARMED


@pytest.mark.parametrize("workers", [1, 8])
def test_one_owner_per_connection(workers):
    connections, bursts, depth = 16, 4, 8
    lock = threading.Lock()
    rng = random.Random(26)
    in_flight = collections.Counter()
    worst = collections.Counter()
    handler_threads = set()
    busy = [0, 0]  # handlers running now, most ever at once

    def handler(request):
        conn_id = request.headers.get("X-Conn")
        with lock:
            in_flight[conn_id] += 1
            worst[conn_id] = max(worst[conn_id], in_flight[conn_id])
            handler_threads.add(threading.get_ident())
            busy[0] += 1
            busy[1] = max(busy)
            delay = rng.uniform(0.0, 0.002)
        time.sleep(delay)
        with lock:
            in_flight[conn_id] -= 1
            busy[0] -= 1
        return Response(body=request.body)

    failures = []

    def client(conn_id: int) -> None:
        try:
            with PipelinedHttpConnection(server.address, depth=depth,
                                         timeout=10.0) as conn:
                for burst in range(bursts):
                    requests = []
                    for seq in range(depth):
                        headers = Headers()
                        headers.set("X-Conn", str(conn_id))
                        requests.append(Request(
                            method="POST", target="/", headers=headers,
                            body=b"%d:%d:%d" % (conn_id, burst, seq)))
                    bodies = [r.body for r in conn.request_many(requests)]
                    if bodies != [r.body for r in requests]:
                        failures.append((conn_id, bodies))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append((conn_id, exc))

    with ReactorHttpServer(handler, workers=workers) as server:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert server.requests_served == connections * bursts * depth
    assert failures == []
    assert len(worst) == connections
    assert max(worst.values()) == 1, "a connection ran two requests at once"
    assert busy[1] <= workers, "more handlers than slots"
    if workers > 1:
        # With one slot the thread leaving the handler drains the FIFO
        # itself, so a single thread may run every handler.
        assert len(handler_threads) > 1


def test_saturated_pool_does_not_mask_health():
    entered = threading.Semaphore(0)
    releases = {"a": threading.Event(), "b": threading.Event()}

    def handler(request):
        if request.target.startswith("/park/"):
            entered.release()
            releases[request.target[len("/park/"):]].wait(10.0)
        return Response(body=request.target.encode() + request.body)

    parked_replies = {}

    def park(name: str) -> None:
        with HttpConnection(server.address, timeout=10.0) as conn:
            parked_replies[name] = conn.get(f"/park/{name}").body

    later = {}

    def fourth() -> None:
        with PipelinedHttpConnection(server.address, timeout=10.0) as conn:
            later["bodies"] = [r.body for r in conn.request_many(
                [Request(method="POST", target="/x", body=b"%d" % i)
                 for i in range(3)])]

    with ReactorHttpServer(handler, workers=2) as server:
        parkers = [threading.Thread(target=park, args=(name,))
                   for name in releases]
        for thread in parkers:
            thread.start()
        for _ in releases:
            assert entered.acquire(timeout=5.0), "handler never entered"
        # every handler slot is now taken
        with HttpConnection(server.address, timeout=5.0) as probe:
            start = time.monotonic()
            health = probe.get("/healthz")
            metrics = probe.get("/metrics")
            elapsed = time.monotonic() - start
        assert health.status == 200
        assert metrics.status == 200 and b"repro_" in metrics.body
        assert elapsed < 1.0
        waiter = threading.Thread(target=fourth)
        waiter.start()
        time.sleep(0.1)
        cpu = time.process_time()
        time.sleep(0.3)
        # the waiting connection is parked, not polled by a spinning thread
        assert time.process_time() - cpu < 0.15
        assert "bodies" not in later, "served without a free handler slot"
        releases["a"].set()
        waiter.join(5.0)
        assert later.get("bodies") == [b"/x0", b"/x1", b"/x2"]
        releases["b"].set()
        for thread in parkers:
            thread.join(5.0)
    assert parked_replies == {"a": b"/park/a", "b": b"/park/b"}


class _CountingLock:
    """The server's lock, counting the sections entered through it."""

    def __init__(self, lock):
        self.lock = lock
        self.entries = 0

    def __enter__(self):
        self.lock.acquire()
        self.entries += 1

    def __exit__(self, *exc):
        self.lock.release()


def test_a_serial_request_takes_at_most_three_lock_sections():
    """Claim (with a handler slot), the count taken before the reply
    leaves, and the re-arm that hands the slot back: three sections per
    keep-alive request."""
    requests = 50
    with ReactorHttpServer(lambda request: Response(body=b"ok")) as server:
        with HttpConnection(server.address, timeout=10.0) as conn:
            assert conn.get("/").body == b"ok"
            # the first turn re-arms after its reply left: wait for it
            deadline = time.monotonic() + 5.0
            while not all(c.state is _ARMED for c in server._conns):
                assert time.monotonic() < deadline
                time.sleep(0.001)
            counting = server._lock = _CountingLock(server._lock)
            for _ in range(requests):
                assert conn.get("/").body == b"ok"
            server._lock = counting.lock
    assert 0 < counting.entries <= 3 * requests


def test_reactor_requires_epoll(monkeypatch):
    monkeypatch.delattr(select, "epoll")
    monkeypatch.delenv(CONCURRENCY_ENV, raising=False)
    with pytest.raises(RuntimeError, match="epoll"):
        ReactorHttpServer(lambda request: Response())
    assert default_concurrency() == "threaded"
    with HttpServer(lambda request: Response()) as server:
        assert isinstance(server, ThreadedHttpServer)
