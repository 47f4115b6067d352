"""Server counters are exact, on both servers.

``perf/`` divides by these counts (``serving.admitted``,
``http11.requests_per_call``), so a request counted twice, late or not at
all is a wrong benchmark figure.  Serial requests, a pipelined burst, a
400, a conditional 304, a chunked request and a ``/metrics`` scrape each
land in exactly the counters they should — and the scrape, sent after
every earlier reply arrived, already counts all of them.
"""

import socket

import pytest

from repro.http11 import (Headers, HttpConnection, HttpServer,
                          PipelinedHttpConnection, Request, Response)
from repro.serving import AdmissionController, parse_exposition

SERIAL = 5
BURST = 6


def handler(request):
    if request.target == "/cached":
        return Response(body=b"cached", headers=Headers([("ETag", '"v7"')]))
    return Response(body=b"echo:" + request.body)


def _raw_exchange(address, wire):
    """Send ``wire`` on a fresh connection; read until the server hangs
    up or answers in full."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(wire)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


@pytest.mark.parametrize("concurrency", ["reactor", "threaded"])
def test_every_counter_counts_each_request_once(concurrency):
    admission = AdmissionController()
    with HttpServer(handler, admission=admission,
                    concurrency=concurrency) as server:
        with HttpConnection(server.address, timeout=10.0) as conn:
            for i in range(SERIAL):
                reply = conn.post("/", b"%d" % i, "text/plain")
                assert reply.body == b"echo:%d" % i
            conditional = conn.request(Request(
                method="GET", target="/cached",
                headers=Headers([("If-None-Match", '"v7"')])))
            assert conditional.status == 304
        with PipelinedHttpConnection(server.address, depth=BURST,
                                     timeout=10.0) as pipe:
            replies = pipe.request_many([
                Request(method="POST", target="/", body=b"p%d" % i)
                for i in range(BURST)])
            assert [r.body for r in replies] == [
                b"echo:p%d" % i for i in range(BURST)]
        chunked = _raw_exchange(server.address, (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n3\r\nabc\r\n0\r\n\r\n"))
        assert chunked.startswith(b"HTTP/1.1 200 ") and \
            chunked.endswith(b"echo:abc")
        bad = _raw_exchange(server.address, b"NOT HTTP\r\n\r\n")
        assert bad.startswith(b"HTTP/1.1 400 ")
        answered = SERIAL + 1 + BURST + 1     # the 400 is not served
        with HttpConnection(server.address, timeout=10.0) as conn:
            scrape = parse_exposition(conn.get("/metrics").body.decode())
        assert scrape["repro_requests_served_total"] == answered
        assert scrape["repro_responses_304_total"] == 1
        assert scrape["repro_admission_admitted_total"] == answered
        assert server.requests_served == answered + 1   # and the scrape
        assert server.responses_304 == 1
        assert server.chunked_requests == 1
        assert server.requests_shed == 0
        snapshot = admission.snapshot()
        assert snapshot["admitted"] == snapshot["completed"] == answered
        assert snapshot["busy"] == 0
