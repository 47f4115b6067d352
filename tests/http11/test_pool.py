"""Tests for the keep-alive connection pool."""

import socket
import time

import pytest

from repro.http11 import (Headers, HttpConnectionPool, HttpError, HttpServer,
                          Request, Response)


def echo_handler(request: Request) -> Response:
    return Response.text(200, f"{request.method} {request.target}")


@pytest.fixture()
def server():
    srv = HttpServer(echo_handler)
    yield srv
    srv.close()


class TestReuse:
    def test_sequential_requests_share_one_socket(self, server):
        with HttpConnectionPool() as pool:
            for _ in range(5):
                response = pool.get(server.address, "/x")
                assert response.status == 200
            assert pool.created == 1
            assert pool.reused == 4
        # give the accept loop a beat, then confirm: one TCP connection
        time.sleep(0.05)
        assert server.connections_accepted == 1

    def test_acquire_release_cycle(self, server):
        pool = HttpConnectionPool()
        conn = pool.acquire(server.address)
        assert pool.idle_count() == 0
        pool.release(conn)
        assert pool.idle_count(server.address) == 1
        assert pool.acquire(server.address) is conn
        pool.discard(conn)
        pool.close()

    def test_string_addresses_are_parsed(self, server):
        host, port = server.address
        with HttpConnectionPool() as pool:
            response = pool.get(f"http://{host}:{port}/y", "/y")
            assert response.status == 200
            assert pool.idle_count(f"http://{host}:{port}") == 1


class TestEviction:
    def test_idle_timeout_evicts_on_acquire(self, server):
        pool = HttpConnectionPool(idle_timeout=0.01)
        first = pool.acquire(server.address)
        pool.release(first)
        time.sleep(0.05)
        second = pool.acquire(server.address)
        assert second is not first
        assert pool.evicted == 1
        assert pool.created == 2
        pool.discard(second)
        pool.close()

    def test_max_idle_per_host_caps_bucket(self, server):
        pool = HttpConnectionPool(max_idle_per_host=2)
        conns = [pool.acquire(server.address) for _ in range(4)]
        for conn in conns:
            pool.release(conn)
        assert pool.idle_count(server.address) == 2
        assert pool.evicted == 2
        # the oldest were evicted; the newest two are still pooled
        assert pool.acquire(server.address) is conns[-1]
        pool.close()


class TestRetry:
    def test_stale_socket_recovers_inside_connection(self, server):
        # HttpConnection itself reconnects once on a stale keep-alive, so a
        # single dead socket never even reaches the pool's retry path.
        with HttpConnectionPool() as pool:
            first = pool.get(server.address, "/a")
            assert first.status == 200
            conn = pool._idle[server.address][0][0]
            conn._sock.shutdown(socket.SHUT_RDWR)
            second = pool.get(server.address, "/b")
            assert second.status == 200
            assert second.body == b"GET /b"
            assert pool.retries == 0

    def test_dead_pooled_connection_retries_once(self, server):
        # When the pooled connection object gives up entirely before any
        # request bytes were written, the pool discards it and retries the
        # request exactly once on a brand-new connection.
        with HttpConnectionPool() as pool:
            first = pool.get(server.address, "/a")
            assert first.status == 200
            conn = pool._idle[server.address][0][0]

            def exhausted(request):
                error = HttpError("connection failed before sending")
                error.bytes_written = False
                raise error

            conn.request = exhausted
            second = pool.get(server.address, "/b")
            assert second.status == 200
            assert second.body == b"GET /b"
            assert pool.retries == 1
            assert pool.created == 2

    def test_no_silent_retry_after_bytes_written(self, server):
        # A failure *after* request bytes hit the wire must not be resent
        # silently — the server may have executed the request; only a
        # RetryPolicy that knows the call's idempotency may resend it.
        with HttpConnectionPool() as pool:
            first = pool.get(server.address, "/a")
            assert first.status == 200
            conn = pool._idle[server.address][0][0]

            def mid_stream(request):
                error = HttpError("reset after partial write")
                error.bytes_written = True
                raise error

            conn.request = mid_stream
            with pytest.raises(HttpError):
                pool.get(server.address, "/b")
            assert pool.retries == 0
            # the broken connection was discarded, not repooled
            assert pool.idle_count(server.address) == 0

    def test_unannotated_failure_is_not_resent(self, server):
        # Without a bytes_written annotation the pool must assume the worst.
        with HttpConnectionPool() as pool:
            first = pool.get(server.address, "/a")
            assert first.status == 200
            conn = pool._idle[server.address][0][0]

            def unknown(request):
                raise HttpError("failed who-knows-where")

            conn.request = unknown
            with pytest.raises(HttpError):
                pool.get(server.address, "/b")
            assert pool.retries == 0

    def test_unreachable_host_raises_after_retry(self):
        # a bound-but-not-listening port: connect is refused both times
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        pool = HttpConnectionPool(timeout=0.5)
        with pytest.raises(OSError):
            pool.get(address, "/")
        pool.close()


class TestLifecycle:
    def test_close_refuses_further_acquires(self, server):
        pool = HttpConnectionPool()
        conn = pool.acquire(server.address)
        pool.release(conn)
        pool.close()
        assert pool.idle_count() == 0
        with pytest.raises(HttpError):
            pool.acquire(server.address)

    def test_release_after_close_closes_connection(self, server):
        pool = HttpConnectionPool()
        conn = pool.acquire(server.address)
        pool.close()
        pool.release(conn)
        assert pool.idle_count() == 0
        assert conn._sock is None  # closed, not pooled


class TestPerHostCap:
    def test_fail_policy_raises_at_the_cap(self, server):
        pool = HttpConnectionPool(max_per_host=2, overflow="fail")
        first = pool.acquire(server.address)
        second = pool.acquire(server.address)
        with pytest.raises(HttpError, match="max_per_host"):
            pool.acquire(server.address)
        pool.discard(first)
        pool.discard(second)
        pool.close()

    def test_idle_connections_count_toward_the_cap(self, server):
        pool = HttpConnectionPool(max_per_host=1, overflow="fail")
        conn = pool.acquire(server.address)
        pool.release(conn)
        # live = 1 (idle): the cap is satisfied by reuse, not a new socket
        again = pool.acquire(server.address)
        assert again is conn
        pool.discard(again)
        pool.close()

    def test_block_policy_waits_for_a_release(self, server):
        import threading

        pool = HttpConnectionPool(max_per_host=1, overflow="block",
                                  acquire_timeout=5.0)
        conn = pool.acquire(server.address)

        def release_soon():
            time.sleep(0.1)
            pool.release(conn)

        threading.Thread(target=release_soon, daemon=True).start()
        started = time.monotonic()
        waited = pool.acquire(server.address)
        assert time.monotonic() - started >= 0.05
        assert waited is conn               # the released one was handed over
        pool.discard(waited)
        pool.close()

    def test_block_policy_times_out(self, server):
        pool = HttpConnectionPool(max_per_host=1, overflow="block",
                                  acquire_timeout=0.1)
        conn = pool.acquire(server.address)
        with pytest.raises(HttpError, match="timed out"):
            pool.acquire(server.address)
        pool.discard(conn)
        pool.close()

    def test_stats_snapshot(self, server):
        pool = HttpConnectionPool(max_per_host=4)
        a = pool.acquire(server.address)
        b = pool.acquire(server.address)
        stats = pool.stats()
        assert stats["created"] == 2
        assert stats["in_use"] == 2
        assert stats["idle"] == 0
        pool.release(a)
        pool.release(b)
        reacquired = pool.acquire(server.address)
        stats = pool.stats()
        assert stats["reused"] == 1
        assert stats["in_use"] == 1
        assert stats["idle"] == 1
        pool.discard(reacquired)
        assert pool.stats()["in_use"] == 0
        pool.close()


class TestPooledRequests:
    def test_post_sets_content_type(self, server):
        seen = {}

        def handler(request: Request) -> Response:
            seen["content_type"] = request.content_type
            return Response.text(200, "ok")

        srv = HttpServer(handler)
        try:
            with HttpConnectionPool() as pool:
                response = pool.post(srv.address, "/svc", b"<x/>",
                                     "text/xml", headers=Headers())
                assert response.status == 200
                assert seen["content_type"] == "text/xml"
        finally:
            srv.close()
