"""Reactor soak: thousands of held connections + a pipelined stampede.

Gated behind ``REPRO_SOAK=1`` (the CI ``reactor-soak`` job): holding
10k sockets needs a raised file-descriptor limit and several seconds,
which does not belong in the tier-1 inner loop.
"""

import os
import resource
import socket
import threading

import pytest

from repro.http11 import HttpConnection, HttpServer, Request, Response

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SOAK") != "1",
    reason="soak tests run only with REPRO_SOAK=1")


def echo_handler(request):
    return Response(body=b"echo:" + request.body)


def _connection_budget(requested: int) -> int:
    """Scale the hold size to the process fd limit (2 fds per connection:
    client end + server end, plus slack for the suite's own files)."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    return max(256, min(requested, (soft - 256) // 2))


class TestConnectionHold:
    def test_10k_idle_connections_with_o1_threads(self):
        target = _connection_budget(10_000)
        with HttpServer(echo_handler, backlog=1024) as server:
            threads_before = threading.active_count()
            held = []
            try:
                for _ in range(target):
                    sock = socket.create_connection(server.address,
                                                    timeout=10.0)
                    held.append(sock)
                # every connection is accepted and tracked...
                deadline = 200
                while server._active_connections < target and deadline:
                    deadline -= 1
                    threading.Event().wait(0.05)
                assert server._active_connections == target
                # ...with no thread growth: the reactor owns them all
                assert threading.active_count() <= threads_before + 2
                # the server still answers new work promptly
                with HttpConnection(server.address) as probe:
                    assert probe.post("/", b"hi", "text/plain").body \
                        == b"echo:hi"
            finally:
                for sock in held:
                    sock.close()

    def test_pipelined_stampede(self):
        # many pipelined clients bursting concurrently: every request is
        # answered, in order, and the counters add up exactly
        clients, per_client = 16, 200
        with HttpServer(echo_handler, backlog=256) as server:
            failures = []

            def stampede(worker: int) -> None:
                try:
                    with HttpConnection(server.address) as pipe:
                        requests = [Request(method="POST", target="/",
                                            body=b"%d:%d" % (worker, i))
                                    for i in range(per_client)]
                        responses = pipe.request_many(requests, 32)
                        for i, response in enumerate(responses):
                            expected = b"echo:%d:%d" % (worker, i)
                            if response.body != expected:
                                failures.append((worker, i, response.body))
                                return
                except Exception as exc:  # noqa: BLE001 - recorded
                    failures.append((worker, "exc", repr(exc)))

            threads = [threading.Thread(target=stampede, args=(w,))
                       for w in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not failures, failures[:5]
            assert server.requests_served == clients * per_client
