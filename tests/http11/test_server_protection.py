"""HttpServer overload protection: admission, health, limits, timeouts,
graceful drain."""

import json
import socket
import threading
import time

from repro.http11 import Headers, HttpConnection, HttpServer, Response
from repro.http11.deadline import HEADER_DEADLINE_MS
from repro.serving import (SHED_DEADLINE_EXPIRED, SHED_QUEUE_FULL,
                           AdmissionController)


def ok_handler(request):
    return Response(status=200, body=b"pong")


class TestHealth:
    def test_healthz_reports_ready_with_load_snapshot(self):
        import os
        with HttpServer(ok_handler) as server:
            with HttpConnection(server.address) as conn:
                response = conn.get("/healthz")
        assert response.status == 200
        assert response.headers.get("Content-Type") == "application/json"
        payload = json.loads(response.body)
        assert payload["state"] == "ready"
        assert payload["connections_active"] == 1
        assert payload["requests_shed"] == 0
        # fleet vs single-process mode is distinguishable from the probe
        assert payload["pid"] == os.getpid()
        assert payload["workers"] == 1

    def test_healthz_reports_admission_load(self):
        admission = AdmissionController(max_concurrency=2)
        with HttpServer(ok_handler, admission=admission) as server:
            with HttpConnection(server.address) as conn:
                conn.post("/", b"x", "text/plain")
                payload = json.loads(conn.get("/healthz").body)
        assert payload["active"] == 0          # nothing mid-handler now
        assert payload["queued"] == 0
        assert payload["utilization"] is not None
        assert payload["p95_service_s"] is not None

    def test_health_path_is_configurable(self):
        with HttpServer(ok_handler, health_path="/ready") as server:
            with HttpConnection(server.address) as conn:
                assert conn.get("/ready").status == 200
                # the default path now reaches the application handler
                assert conn.get("/healthz").body == b"pong"

    def test_ready_property_flips_on_close(self):
        server = HttpServer(ok_handler)
        assert server.ready
        server.close()
        assert not server.ready


class TestAdmissionGate:
    def test_saturated_pool_sheds_503_with_headers(self):
        admission = AdmissionController(max_concurrency=1, queue_limit=0,
                                        retry_after_s=2.0)
        release = threading.Event()
        entered = threading.Event()

        def slow_handler(request):
            entered.set()
            release.wait(10.0)
            return Response(status=200, body=b"done")

        with HttpServer(slow_handler, admission=admission) as server:
            first_result = []

            def occupy():
                with HttpConnection(server.address) as conn:
                    first_result.append(
                        conn.post("/", b"x", "text/plain").status)

            occupant = threading.Thread(target=occupy, daemon=True)
            occupant.start()
            assert entered.wait(5.0)
            try:
                with HttpConnection(server.address) as conn:
                    shed = conn.post("/", b"x", "text/plain")
                    assert shed.status == 503
                    assert shed.headers.get("X-Shed-Reason") == \
                        SHED_QUEUE_FULL
                    assert int(shed.headers.get("Retry-After")) >= 2
                    # a shed does not kill the keep-alive connection
                    release.set()
                    occupant.join(timeout=5)
                    again = conn.post("/", b"x", "text/plain")
                    assert again.status == 200
            finally:
                release.set()
            assert first_result == [200]
            assert server.requests_shed == 1
            assert admission.metrics.shed == {SHED_QUEUE_FULL: 1}

    def test_expired_deadline_is_shed_before_the_handler(self):
        calls = []
        admission = AdmissionController(max_concurrency=4)

        def handler(request):
            calls.append(1)
            return Response(status=200)

        with HttpServer(handler, admission=admission) as server:
            with HttpConnection(server.address) as conn:
                headers = Headers()
                headers.set(HEADER_DEADLINE_MS, "0")
                response = conn.post("/", b"x", "text/plain",
                                     headers=headers)
        assert response.status == 503
        assert response.headers.get("X-Shed-Reason") == SHED_DEADLINE_EXPIRED
        assert calls == []

    def test_healthz_bypasses_admission(self):
        admission = AdmissionController(max_concurrency=1, queue_limit=0)
        blocker = admission.acquire()          # pool artificially full
        try:
            with HttpServer(ok_handler, admission=admission) as server:
                with HttpConnection(server.address) as conn:
                    assert conn.get("/healthz").status == 200
        finally:
            admission.release(blocker.ticket)


class TestSizeLimits:
    def test_per_server_body_limit_names_the_limit(self):
        with HttpServer(ok_handler, max_body_bytes=64) as server:
            with HttpConnection(server.address) as conn:
                response = conn.post("/", b"y" * 100, "text/plain")
        assert response.status == 413
        assert b"64" in response.body

    def test_per_server_header_limit(self):
        with HttpServer(ok_handler, max_header_bytes=256) as server:
            with socket.create_connection(server.address) as raw:
                raw.sendall(b"POST / HTTP/1.1\r\nX-Big: " + b"a" * 1000 +
                            b"\r\n\r\n")
                data = raw.recv(65536)
        assert data.startswith(b"HTTP/1.1 413")

    def test_within_limits_is_served(self):
        with HttpServer(ok_handler, max_body_bytes=64) as server:
            with HttpConnection(server.address) as conn:
                assert conn.post("/", b"y" * 64, "text/plain").status == 200


class TestIdleTimeout:
    def test_silent_client_is_hung_up_quietly(self):
        with HttpServer(ok_handler, idle_timeout_s=0.15) as server:
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                data = raw.recv(65536)   # server closes without a response
        assert data == b""

    def test_midrequest_stall_earns_408(self):
        with HttpServer(ok_handler, idle_timeout_s=0.15) as server:
            with socket.create_connection(server.address) as raw:
                raw.settimeout(5.0)
                raw.sendall(b"POST / HT")     # ...and then silence
                data = raw.recv(65536)
        assert data.startswith(b"HTTP/1.1 408")

    def test_fast_clients_are_unaffected(self):
        with HttpServer(ok_handler, idle_timeout_s=0.5) as server:
            with HttpConnection(server.address) as conn:
                for _ in range(3):
                    assert conn.post("/", b"x", "text/plain").status == 200


class TestGracefulDrain:
    def test_inflight_request_completes_with_connection_close(self):
        entered = threading.Event()

        def slow_handler(request):
            entered.set()
            time.sleep(0.3)
            return Response(status=200, body=b"finished")

        server = HttpServer(slow_handler)
        results = []

        def client():
            with HttpConnection(server.address) as conn:
                results.append(conn.post("/", b"x", "text/plain"))

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        assert entered.wait(5.0)
        server.close(drain_s=5.0)        # returns once the request is done
        thread.join(timeout=5)
        assert len(results) == 1         # completed: no reset, no retry
        assert results[0].status == 200
        assert results[0].body == b"finished"
        assert (results[0].headers.get("Connection") or "").lower() == \
            "close"

    def test_drain_stops_accepting_new_connections(self):
        server = HttpServer(ok_handler)
        server.close(drain_s=1.0)
        try:
            with socket.create_connection(server.address, timeout=0.5) as sock:
                # A "successful" connect with source == destination is the
                # kernel's loopback simultaneous-open quirk (the ephemeral
                # source port happened to equal the dead listener's port):
                # the socket is connected to itself, proving no listener.
                if sock.getsockname() != sock.getpeername():
                    raise AssertionError("listener should be closed")
        except OSError:
            pass

    def test_drain_hangs_up_idle_keepalive_connections(self):
        server = HttpServer(ok_handler)
        conn = HttpConnection(server.address)
        assert conn.post("/", b"x", "text/plain").status == 200  # keep-alive
        started = time.monotonic()
        server.close(drain_s=5.0)
        # the drain must not wait the full bound for an *idle* connection
        assert time.monotonic() - started < 2.0
        conn.close()

    def test_immediate_close_still_works(self):
        server = HttpServer(ok_handler)
        server.close()
        assert not server.ready
