"""Limit-enforcement tests for the HTTP layer (DoS hardening)."""

import pytest

from repro.http11 import HttpServer, HttpTooLarge, RequestParser, Response
from repro.http11.messages import MAX_HEADER_BYTES
from tests.http11.scripted import Pieces


def parse_request(data: bytes):
    return RequestParser().read_message(Pieces([data]))


class TestLimits:
    def test_header_line_too_long(self):
        raw = b"GET / HTTP/1.1\r\nX-Big: " + b"a" * (MAX_HEADER_BYTES + 10)
        with pytest.raises(HttpTooLarge):
            parse_request(raw)

    def test_header_block_too_large(self):
        lines = b"".join(
            b"X-H%d: %s\r\n" % (i, b"v" * 1000) for i in range(80))
        raw = b"GET / HTTP/1.1\r\n" + lines + b"\r\n"
        with pytest.raises(HttpTooLarge):
            parse_request(raw)

    def test_server_responds_413_to_oversized(self):
        import socket
        with HttpServer(lambda r: Response()) as server:
            with socket.create_connection(server.address) as raw:
                raw.sendall(b"POST / HTTP/1.1\r\n"
                            b"Content-Length: 999999999999\r\n\r\n")
                data = raw.recv(65536)
        assert data.startswith(b"HTTP/1.1 413")

    def test_normal_requests_unaffected(self):
        raw = (b"GET / HTTP/1.1\r\nX-Ok: " + b"a" * 1000 + b"\r\n\r\n")
        request = parse_request(raw)
        assert len(request.headers.get("X-Ok")) == 1000
