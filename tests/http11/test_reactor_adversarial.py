"""Adversarial clients vs the reactor: slowloris, poisoned pipelines, and
peers that never read.  These attacks target exactly the resources the
event-driven core is supposed to bound."""

import socket
import time

import pytest

from repro.http11 import HttpServer, ReactorHttpServer, Response


def ok_handler(request):
    return Response(body=b"pong")


def drip(server, head, trickle):
    """Send ``head`` at once, then ``trickle`` one byte per 10 ms, and
    return the first bytes the server answers with."""
    with socket.create_connection(server.address) as raw:
        raw.settimeout(5.0)
        deadline = time.monotonic() + 5.0
        try:
            raw.sendall(head)
            for byte in trickle:
                if time.monotonic() > deadline:
                    break
                raw.sendall(bytes([byte]))
                time.sleep(0.01)
        except OSError:
            pass  # the server hung up; its reply is still readable
        try:
            return raw.recv(65536)
        except OSError:
            return b"HTTP/1.1 408"  # reset after the 408 was sent


class TestSlowloris:
    def test_byte_at_a_time_headers_earn_408(self):
        # Trickling one header byte per tick keeps the socket "active" by
        # last-byte accounting; the reactor times out from the last
        # *message boundary*, so the trickler is evicted mid-request.
        with HttpServer(ok_handler, idle_timeout_s=0.3) as server:
            data = drip(server, b"",
                        b"GET / HTTP/1.1\r\nX-Slow: " + b"a" * 400)
            assert data.startswith(b"HTTP/1.1 408")
            # the 408 is a protocol error, not a served request
            assert server.requests_served == 0

    @pytest.mark.parametrize("head, body", [
        (b"POST / HTTP/1.1\r\nContent-Length: 400\r\n\r\n", b"a" * 400),
        (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
         b"1\r\na\r\n" * 70 + b"0\r\n\r\n"),
    ], ids=["content-length", "chunked"])
    def test_byte_at_a_time_body_earns_408(self, head, body):
        # A complete head is no message boundary: a body dripped after
        # it is still one request in progress, evicted the same way.
        with HttpServer(ok_handler, idle_timeout_s=0.3) as server:
            data = drip(server, head, body)
            assert data.startswith(b"HTTP/1.1 408")
            assert server.requests_served == 0

    def test_fast_clients_survive_the_same_timeout(self):
        with HttpServer(ok_handler, idle_timeout_s=0.3) as server:
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                for _ in range(3):
                    raw.sendall(b"GET / HTTP/1.1\r\n\r\n")
                    assert raw.recv(65536).startswith(b"HTTP/1.1 200")
                    time.sleep(0.1)   # idle between requests, under limit


class TestPoisonedPipeline:
    def test_malformed_mid_pipeline_flushes_prefix_then_closes(self):
        def echo(request):
            return Response(body=b"echo:" + request.body)

        with HttpServer(echo) as server:
            burst = (b"POST / HTTP/1.1\r\nContent-Length: 1\r\n\r\nA"
                     b"POST / HTTP/1.1\r\nContent-Length: 1\r\n\r\nB"
                     b"GARBAGE NOT HTTP\r\n\r\n"
                     b"POST / HTTP/1.1\r\nContent-Length: 1\r\n\r\nC")
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                raw.sendall(burst)
                data = b""
                while True:
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            # both good requests answered, in order, then the 400, then EOF
            assert data.index(b"echo:A") < data.index(b"echo:B")
            assert data.index(b"echo:B") < data.index(b"HTTP/1.1 400")
            assert b"echo:C" not in data
            assert server.requests_served == 2

    def test_oversized_mid_pipeline_answers_413_and_closes(self):
        with HttpServer(ok_handler, max_body_bytes=16) as server:
            burst = (b"POST / HTTP/1.1\r\nContent-Length: 1\r\n\r\nA"
                     b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n")
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                raw.sendall(burst)
                data = b""
                while True:
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert data.index(b"HTTP/1.1 200") < data.index(b"HTTP/1.1 413")
            assert b"16" in data    # the limit is named


class TestNeverReadingClient:
    def test_write_queue_backpressure_bounds_buffered_bytes(self):
        # A client that uploads requests for 1 MiB responses but never
        # reads: the kernel buffer fills, the server's write queue grows
        # to the cap, then its reads pause — per-connection memory stays
        # O(max_buffered_bytes + max_pipeline), not O(client behaviour).
        body = b"z" * (256 * 1024)

        def big_handler(request):
            return Response(body=body)

        server = ReactorHttpServer(big_handler, max_buffered_bytes=1 << 20,
                                   max_pipeline=4)
        try:
            with socket.create_connection(server.address) as raw:
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                raw.settimeout(1.0)
                request = b"GET / HTTP/1.1\r\n\r\n"
                sent_requests = 0
                try:
                    for _ in range(64):
                        raw.sendall(request)
                        sent_requests += 1
                        time.sleep(0.005)
                except OSError:
                    pass
                time.sleep(0.3)   # let the reactor respond into the cap
                stats = server.connection_stats()
                assert stats, "connection disappeared"
                conn = stats[0]
                # buffered bytes bounded by the cap plus one pipeline of
                # in-flight responses, never the full 64-response backlog
                bound = (1 << 20) + 4 * (len(body) + 256)
                assert conn["buffered_bytes"] <= bound
                assert conn["paused"]
                # ...and the connection recovers once the client drains
                raw.settimeout(5.0)
                drained = 0
                while drained < len(body):  # pull at least one response
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    drained += len(chunk)
                assert drained >= len(body)
        finally:
            server.close()

    def test_pipeline_cap_limits_queued_requests(self):
        release = []

        def slow_handler(request):
            while not release:
                time.sleep(0.01)
            return Response(body=b"ok")

        server = ReactorHttpServer(slow_handler, max_pipeline=3, workers=1)
        try:
            with socket.create_connection(server.address) as raw:
                raw.sendall(b"GET / HTTP/1.1\r\n\r\n" * 20)
                time.sleep(0.3)
                stats = server.connection_stats()
                assert stats and stats[0]["pending"] <= 3
                release.append(True)
        finally:
            server.close()


class TestRejectOverCap:
    def test_over_cap_connects_get_503_not_a_hang(self):
        with HttpServer(ok_handler,
                        max_connections=1, retry_after_s=2.0) as server:
            with socket.create_connection(server.address) as first:
                first.sendall(b"GET / HTTP/1.1\r\n\r\n")
                assert first.recv(65536).startswith(b"HTTP/1.1 200")
                with socket.create_connection(server.address) as second:
                    second.settimeout(5.0)
                    data = second.recv(65536)
                assert data.startswith(b"HTTP/1.1 503")
                assert b"Retry-After: 2" in data
            assert server.connections_rejected == 1
