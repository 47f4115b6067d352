"""Tests for the HTTP/1.1 message model, server and client."""

import socket
import threading

import pytest

from repro.http11 import (Headers, HttpConnection, HttpParseError,
                          HttpServer, HttpTooLarge, Request, RequestParser,
                          Response, ResponseParser, etag_matches,
                          parse_address)
from repro.http11.deadline import header_value
from repro.http11.errors import HttpConnectionClosed
from tests.http11.scripted import Pieces


def parse_request(data: bytes, **limits) -> Request:
    # 7-byte reads exercise every refill path
    return RequestParser(**limits).read_message(Pieces.split(data, 7))


def parse_response(data: bytes) -> Response:
    return ResponseParser().read_message(Pieces.split(data, 7))


class TestHeaders:
    def test_case_insensitive_get(self):
        h = Headers()
        h.add("Content-Type", "text/xml")
        assert h.get("content-type") == "text/xml"
        assert "CONTENT-TYPE" in h

    def test_set_replaces_all(self):
        h = Headers([("X-A", "1"), ("x-a", "2")])
        h.set("X-A", "3")
        assert h.get_all("x-a") == ["3"]

    def test_get_all_and_remove(self):
        h = Headers([("Via", "a"), ("via", "b")])
        assert h.get_all("VIA") == ["a", "b"]
        h.remove("via")
        assert len(h) == 0

    def test_default(self):
        assert Headers().get("missing", "d") == "d"

    def test_iteration_preserves_order(self):
        h = Headers([("A", "1"), ("B", "2")])
        assert list(h) == [("A", "1"), ("B", "2")]


class TestEtagMatches:
    def test_single_strong_match(self):
        assert etag_matches('"abc"', '"abc"')
        assert not etag_matches('"abc"', '"def"')

    def test_list_and_whitespace(self):
        assert etag_matches('"x", "y" , "z"', '"y"')
        assert not etag_matches('"x", "y"', '"w"')

    def test_wildcard(self):
        assert etag_matches("*", '"anything"')
        assert etag_matches("  *  ", '"anything"')

    def test_weak_tags_never_match_strongly(self):
        assert not etag_matches('W/"abc"', '"abc"')
        assert etag_matches('W/"abc", "abc"', '"abc"')

    def test_empty_inputs(self):
        assert not etag_matches(None, '"x"')
        assert not etag_matches('"x"', None)
        assert not etag_matches("", '"x"')

    def test_comma_inside_entity_tag(self):
        # a comma is a legal etagc: a foreign tag containing one is a
        # single candidate, not a split pair
        assert etag_matches('"a,b"', '"a,b"')
        assert etag_matches('"x", "a,b"', '"a,b"')
        assert not etag_matches('"a,b"', '"a"')
        assert not etag_matches('"a,b"', '"b"')
        # and it never shadows a later well-formed candidate
        assert etag_matches('"a,b", "c"', '"c"')

    def test_unterminated_quote_is_lenient(self):
        assert not etag_matches('"dangling', '"dangling"')


class TestSerialization:
    def test_request_bytes(self):
        req = Request(method="POST", target="/svc", body=b"hello")
        req.headers.set("Content-Type", "text/xml")
        raw = req.to_bytes()
        assert raw.startswith(b"POST /svc HTTP/1.1\r\n")
        assert b"Content-Length: 5\r\n" in raw
        assert raw.endswith(b"\r\nhello")

    def test_response_bytes(self):
        resp = Response(status=404, body=b"nope")
        raw = resp.to_bytes()
        assert raw.startswith(b"HTTP/1.1 404 Not Found\r\n")

    def test_explicit_content_length_not_duplicated(self):
        req = Request(body=b"xy")
        req.headers.set("Content-Length", "2")
        assert req.to_bytes().count(b"Content-Length") == 1

    def test_response_text_helper(self):
        resp = Response.text(400, "oops")
        assert resp.status == 400
        assert resp.body == b"oops"
        assert "text/plain" in resp.content_type

    def test_ok_flag(self):
        assert Response(status=204).ok
        assert not Response(status=500).ok


class TestParsing:
    def test_roundtrip_request(self):
        req = Request(method="POST", target="/x", body=b"abc")
        req.headers.set("X-Custom", "v")
        parsed = parse_request(req.to_bytes())
        assert parsed.method == "POST"
        assert parsed.target == "/x"
        assert parsed.body == b"abc"
        assert parsed.headers.get("X-Custom") == "v"

    def test_roundtrip_response(self):
        resp = Response(status=200, body=b"out")
        parsed = parse_response(resp.to_bytes())
        assert parsed.status == 200
        assert parsed.body == b"out"

    def test_no_body_without_content_length(self):
        parsed = parse_request(b"GET / HTTP/1.1\r\n\r\n")
        assert parsed.body == b""

    @pytest.mark.parametrize("raw", [
        b"BROKEN\r\n\r\n",
        b"GET /\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    ])
    def test_malformed_requests_rejected(self, raw):
        with pytest.raises(HttpParseError):
            parse_request(raw)

    def test_chunked_body_decoded(self):
        raw = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
               b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n")
        request = parse_request(raw)
        assert request.body == b"hello world"

    def test_chunked_trailers_land_in_headers(self):
        raw = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
               b"2\r\nhi\r\n0\r\nX-Trailer: 7\r\n\r\n")
        request = parse_request(raw)
        assert request.body == b"hi"
        assert request.headers.get("X-Trailer") == "7"

    def test_non_chunked_transfer_encoding_rejected(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n"
        with pytest.raises(HttpParseError):
            parse_request(raw)

    def test_chunked_with_content_length_rejected(self):
        raw = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
               b"Content-Length: 5\r\n\r\n")
        with pytest.raises(HttpParseError):
            parse_request(raw)

    def test_chunked_body_over_limit_rejected(self):
        raw = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
               b"b\r\nhello world\r\n0\r\n\r\n")
        with pytest.raises(HttpTooLarge):
            parse_request(raw, max_body_bytes=10)

    def test_huge_body_rejected(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"
        with pytest.raises(HttpTooLarge):
            parse_request(raw)

    def test_closed_before_message(self):
        with pytest.raises(HttpConnectionClosed):
            parse_request(b"")

    def test_closed_mid_body(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
        with pytest.raises(HttpParseError):
            parse_request(raw)

    def test_bad_status_line(self):
        with pytest.raises(HttpParseError):
            parse_response(b"HTTP/1.1 xx Bad\r\n\r\n")

    def test_keep_alive_defaults(self):
        req = parse_request(b"GET / HTTP/1.1\r\n\r\n")
        assert req.wants_keep_alive()
        req2 = parse_request(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req2.wants_keep_alive()
        req3 = parse_request(b"GET / HTTP/1.0\r\n\r\n")
        assert not req3.wants_keep_alive()


class TestConnectionOptions:
    """``Connection`` is a comma-separated option list and may repeat
    (RFC 9110 §7.6.1): ``close`` anywhere in any of its fields closes."""

    def test_close_among_other_options(self):
        req = parse_request(b"GET / HTTP/1.1\r\n"
                            b"Connection: keep-alive, close\r\n\r\n")
        assert not req.wants_keep_alive()

    def test_close_in_a_second_field(self):
        req = parse_request(b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n"
                            b"connection: Close\r\n\r\n")
        assert not req.wants_keep_alive()

    def test_other_options_keep_the_connection(self):
        req = parse_request(b"GET / HTTP/1.1\r\n"
                            b"Connection: Upgrade, x-close\r\n\r\n")
        assert req.wants_keep_alive()

    def test_http10_keep_alive_in_a_list(self):
        req = parse_request(b"GET / HTTP/1.0\r\n"
                            b"Connection: Upgrade , Keep-Alive\r\n\r\n")
        assert req.wants_keep_alive()
        req = parse_request(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n"
                            b"Connection: close\r\n\r\n")
        assert not req.wants_keep_alive()

    def test_server_closes_on_close_in_a_list(self):
        with HttpServer(lambda r: Response(body=b"x")) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\nHost: t\r\n"
                             b"Connection: keep-alive\r\n"
                             b"Connection: close\r\n\r\n")
                reply = b""
                while chunk := sock.recv(4096):     # until the server closes
                    reply += chunk
        response = parse_response(reply)
        assert response.body == b"x"
        assert response.headers.get("Connection") == "close"

    def test_client_closes_on_close_in_a_second_field(self):
        def handler(request):
            return Response(body=b"x", headers=Headers(
                [("Connection", "keep-alive"), ("Connection", "close")]))

        with HttpServer(handler) as server:
            with HttpConnection(server.address) as conn:
                assert conn.get("/").body == b"x"
                assert conn._sock is None
                assert conn.get("/").body == b"x"    # reconnects
            assert server.connections_accepted == 2


class TestRepeatedFields:
    """A header name repeated in any letter case has one value: the
    first, whichever way it is read."""

    def test_fields_agree_with_headers(self):
        req = parse_request(b"POST / HTTP/1.1\r\nX-BinQ-RTT: 0.25\r\n"
                            b"X-BinQ-RTT: 0.75\r\nx-binq-rtt: 0.5\r\n"
                            b"Content-Length: 0\r\n\r\n")
        fields = req.headers.fields()
        assert req.headers.get("X-BinQ-RTT") == "0.25"
        assert fields.get("X-BinQ-RTT") == "0.25"
        assert fields.get("x-binq-rtt") == "0.25"
        assert header_value(fields, "X-BINQ-RTT") == "0.25"
        assert list(fields) == ["X-BinQ-RTT", "x-binq-rtt", "Content-Length"]

    def test_fields_without_repeats(self):
        req = parse_request(b"POST / HTTP/1.1\r\nA: 1\r\nB: 2\r\n"
                            b"Content-Length: 0\r\n\r\n")
        assert dict(req.headers.fields()) == {"A": "1", "B": "2",
                                              "Content-Length": "0"}


class TestParseAddress:
    def test_full_url(self):
        assert parse_address("http://127.0.0.1:8080/svc") == ("127.0.0.1", 8080)

    def test_default_port(self):
        assert parse_address("http://example.org/x") == ("example.org", 80)

    def test_bare_authority(self):
        assert parse_address("10.0.0.1:99") == ("10.0.0.1", 99)


class TestServerClient:
    def test_basic_roundtrip(self):
        def handler(request):
            return Response(body=b"echo:" + request.body)

        with HttpServer(handler) as server:
            with HttpConnection(server.address) as conn:
                resp = conn.post("/svc", b"ping", "application/octet-stream")
                assert resp.ok
                assert resp.body == b"echo:ping"

    def test_keep_alive_reuses_connection(self):
        with HttpServer(lambda r: Response(body=b"x")) as server:
            with HttpConnection(server.address) as conn:
                for _ in range(5):
                    assert conn.get("/").body == b"x"
            assert server.connections_accepted == 1
            assert server.requests_served == 5

    def test_connection_close_honoured(self):
        with HttpServer(lambda r: Response(body=b"x")) as server:
            with HttpConnection(server.address) as conn:
                req = Request(method="GET", target="/")
                req.headers.set("Connection", "close")
                resp = conn.request(req)
                assert resp.ok
                # client noticed the close; a new request reconnects
                assert conn._sock is None
                assert conn.get("/").body == b"x"
            assert server.connections_accepted == 2

    def test_handler_exception_returns_500(self):
        def handler(request):
            raise RuntimeError("boom")

        with HttpServer(handler) as server:
            with HttpConnection(server.address) as conn:
                resp = conn.get("/")
                assert resp.status == 500
                assert b"boom" in resp.body

    def test_host_header_set(self):
        seen = {}

        def handler(request):
            seen["host"] = request.headers.get("Host")
            return Response()

        with HttpServer(handler) as server:
            with HttpConnection(server.address) as conn:
                conn.get("/")
        host, port = server.address
        assert seen["host"] == f"{host}:{port}"

    def test_concurrent_clients(self):
        def handler(request):
            return Response(body=request.body * 2)

        with HttpServer(handler) as server:
            results = []
            errors = []

            def work(i):
                try:
                    with HttpConnection(server.address) as conn:
                        for j in range(10):
                            body = f"{i}:{j}".encode()
                            resp = conn.post("/", body, "text/plain")
                            assert resp.body == body * 2
                    results.append(i)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 8

    def test_large_body(self):
        payload = bytes(range(256)) * 4096  # 1 MB
        with HttpServer(lambda r: Response(body=r.body)) as server:
            with HttpConnection(server.address) as conn:
                resp = conn.post("/", payload, "application/octet-stream")
                assert resp.body == payload

    def test_malformed_request_gets_400(self):
        import socket as socket_mod
        with HttpServer(lambda r: Response()) as server:
            with socket_mod.create_connection(server.address) as raw:
                raw.sendall(b"NOT AN HTTP REQUEST\r\n\r\n")
                data = raw.recv(65536)
        assert data.startswith(b"HTTP/1.1 400")

    def test_url_property(self):
        with HttpServer(lambda r: Response()) as server:
            host, port = server.address
            assert server.url == f"http://{host}:{port}"


class TestMaxConnections:
    """The thread-per-connection growth guard (503 beyond the cap)."""

    @staticmethod
    def _wait_for(predicate, timeout=2.0):
        import time
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return predicate()

    def test_connections_beyond_cap_get_503(self):
        with HttpServer(lambda r: Response(body=b"x"),
                        max_connections=2) as server:
            held = [HttpConnection(server.address) for _ in range(2)]
            try:
                for conn in held:  # ensure both are accepted and active
                    assert conn.get("/").status == 200
                with HttpConnection(server.address) as extra:
                    resp = extra.get("/")
                    assert resp.status == 503
                    assert resp.headers.get("Connection") == "close"
                assert server.connections_rejected == 1
            finally:
                for conn in held:
                    conn.close()

    def test_slot_freed_after_close(self):
        with HttpServer(lambda r: Response(body=b"x"),
                        max_connections=1) as server:
            first = HttpConnection(server.address)
            assert first.get("/").status == 200
            first.close()
            # the handler thread releases its slot asynchronously
            assert self._wait_for(
                lambda: server._active_connections == 0)
            with HttpConnection(server.address) as conn:
                assert conn.get("/").status == 200
            assert server.connections_rejected == 0

    def test_default_is_unbounded(self):
        with HttpServer(lambda r: Response(body=b"x")) as server:
            assert server.max_connections is None
            held = [HttpConnection(server.address) for _ in range(8)]
            try:
                for conn in held:
                    assert conn.get("/").status == 200
            finally:
                for conn in held:
                    conn.close()
            assert server.connections_rejected == 0

    def test_rejection_carries_retry_after(self):
        with HttpServer(lambda r: Response(body=b"x"),
                        max_connections=1, retry_after_s=2.5) as server:
            first = HttpConnection(server.address)
            try:
                assert first.get("/").status == 200
                with HttpConnection(server.address) as extra:
                    resp = extra.get("/")
                    assert resp.status == 503
                    # RFC 9110 delay-seconds: integer, rounded up
                    assert resp.headers.get("Retry-After") == "3"
            finally:
                first.close()

    def test_retry_after_default_one_second(self):
        with HttpServer(lambda r: Response(body=b"x"),
                        max_connections=1) as server:
            first = HttpConnection(server.address)
            try:
                assert first.get("/").status == 200
                with HttpConnection(server.address) as extra:
                    assert extra.get("/").headers.get("Retry-After") == "1"
            finally:
                first.close()

    def test_rejected_connection_does_not_count_requests(self):
        with HttpServer(lambda r: Response(body=b"x"),
                        max_connections=1) as server:
            first = HttpConnection(server.address)
            try:
                assert first.get("/").status == 200
                with HttpConnection(server.address) as extra:
                    assert extra.get("/").status == 503
                assert server.requests_served == 1
            finally:
                first.close()
