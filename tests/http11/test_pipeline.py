"""HTTP/1.1 pipelining: server-side ordering and the pipelined client."""

import socket
import threading
import time

import pytest

from repro.http11 import (HttpConnection, HttpConnectionClosed, HttpServer,
                          PipelineError, Request, Response)


def echo_handler(request):
    return Response(body=b"echo:" + request.body)


class TestServerSidePipelining:
    def test_raw_pipelined_burst_answers_in_order(self):
        with HttpServer(echo_handler) as server:
            burst = b"".join(
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n%02d" % i
                for i in range(10))
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                raw.sendall(burst)
                data = b""
                while data.count(b"echo:") < 10:
                    chunk = raw.recv(65536)
                    assert chunk, f"connection closed early: {data!r}"
                    data += chunk
            bodies = [data[i + 5:i + 7] for i in range(len(data))
                      if data[i:i + 5] == b"echo:"]
            assert bodies == [b"%02d" % i for i in range(10)]
            assert server.requests_served == 10

    def test_slow_first_request_does_not_reorder(self):
        # request 0 is slow, request 1 fast: responses must still arrive
        # 0 then 1 (pipelined responses are strictly ordered)
        def handler(request):
            if request.body == b"slow":
                time.sleep(0.2)
            return Response(body=b"done:" + request.body)

        with HttpServer(handler) as server:
            burst = (b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nslow"
                     b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nfast")
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                raw.sendall(burst)
                data = b""
                while data.count(b"done:") < 2:
                    data += raw.recv(65536)
            assert data.index(b"done:slow") < data.index(b"done:fast")

    def test_connection_close_aborts_the_pipeline(self):
        # requests queued after a Connection: close request are not
        # processed (RFC 9112); the connection closes after its response
        served_bodies = []

        def handler(request):
            served_bodies.append(request.body)
            return Response(body=b"ok")

        with HttpServer(handler) as server:
            burst = (b"POST /a HTTP/1.1\r\nContent-Length: 1\r\n"
                     b"Connection: close\r\n\r\nA"
                     b"POST /b HTTP/1.1\r\nContent-Length: 1\r\n\r\nB")
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                raw.sendall(burst)
                data = b""
                while True:
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert data.count(b"HTTP/1.1 200") == 1
            time.sleep(0.05)
            assert served_bodies == [b"A"]


class TestPipelinedClient:
    def test_depth_one_is_plain_serial(self):
        with HttpServer(echo_handler) as server:
            with HttpConnection(server.address) as conn:
                for i in range(5):
                    requests = [Request(method="POST", target="/",
                                        body=b"%d" % i)]
                    response, = conn.request_many(requests, 1)
                    assert response.body == b"echo:%d" % i
                assert conn.requests_sent == 5

    def test_batch_results_in_request_order(self):
        with HttpServer(echo_handler) as server:
            with HttpConnection(server.address) as conn:
                requests = [Request(method="POST", target="/",
                                    body=b"%03d" % i) for i in range(64)]
                responses = conn.request_many(requests, 8)
                assert [r.body for r in responses] == \
                    [b"echo:%03d" % i for i in range(64)]

    def test_connection_persists_across_batches(self):
        with HttpServer(echo_handler) as server:
            with HttpConnection(server.address) as conn:
                for _ in range(3):
                    conn.request_many([
                        Request(method="POST", target="/", body=b"x")
                        for _ in range(4)], 4)
                    assert conn.post("/", b"y", "text/plain").body == \
                        b"echo:y"
            time.sleep(0.05)
            assert server.connections_accepted == 1

    def test_pipeline_error_carries_completed_prefix(self):
        # handler closes the server after two responses: the client gets
        # the prefix plus a typed error naming the first unanswered index
        lock = threading.Lock()
        state = {"served": 0}

        def handler(request):
            with lock:
                state["served"] += 1
            if state["served"] == 2:
                response = Response(body=b"last")
                response.headers.set("Connection", "close")
                return response
            return Response(body=b"ok")

        with HttpServer(handler) as server:
            with HttpConnection(server.address) as conn:
                requests = [Request(method="POST", target="/", body=b"x")
                            for _ in range(6)]
                with pytest.raises(PipelineError) as excinfo:
                    conn.request_many(requests, 8)
                error = excinfo.value
                assert len(error.responses) == 2
                assert error.failed_index == 2
                assert error.bytes_written
                assert isinstance(error.__cause__, HttpConnectionClosed)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            HttpConnection(("127.0.0.1", 1)).request_many([Request()], 0)

    def test_deep_batch_of_large_bodies_does_not_deadlock(self):
        # 8 x 4 MiB in flight is far more than both kernel buffers hold:
        # a client that blocks in send while the server blocks writing
        # its replies stalls until the timeout instead of finishing
        bodies = [bytes([i]) * (4 << 20) for i in range(8)]
        with HttpServer(lambda request: Response(body=request.body)) \
                as server:
            with HttpConnection(server.address, timeout=5.0) as conn:
                started = time.monotonic()
                responses = conn.request_many(
                    [Request(method="POST", target="/", body=body)
                     for body in bodies], 8)
                elapsed = time.monotonic() - started
        assert [r.body == body for r, body in zip(responses, bodies)] == \
            [True] * 8
        assert elapsed < 4.0


class TestHealth:
    def test_healthz_json_shape(self):
        import json

        with HttpServer(echo_handler) as server:
            with HttpConnection(server.address) as conn:
                payload = json.loads(conn.get("/healthz").body)
        assert payload["state"] == "ready"
        assert set(payload) >= {"connections_active", "requests_served",
                                "requests_shed", "active", "queued",
                                "utilization", "p95_service_s"}
