"""End-to-end chunked streaming: reactor stream routes + the full-duplex
client."""

import socket
import threading

import pytest

from repro.http11 import HttpConnection, HttpParseError, HttpServer, Response
from repro.pbio import (Format, FormatRegistry, PbioSession,
                        RecordStreamReader, iter_frames, pbio_stream_route)


def ok_handler(request):
    return Response(body=b"plain:" + request.body)


class UpperEcho:
    """Minimal stream handler: uppercases each chunk, appends a tail."""

    content_type = "text/plain"

    def __init__(self):
        self.chunks = 0

    def on_chunk(self, data):
        self.chunks += 1
        return data.upper()

    def finish(self):
        return b"[done]"


def upper_route(_request):
    return UpperEcho()


class TestReactorStreamRoutes:
    def test_stream_roundtrip(self):
        with HttpServer(ok_handler,
                        stream_routes={"/up": upper_route}) as server:
            with HttpConnection(server.address) as conn:
                resp = conn.stream("/up", [b"hello ", b"world"])
                assert resp.status == 200
                assert resp.headers.get("Transfer-Encoding") == "chunked"
                assert resp.read() == b"HELLO WORLD[done]"
            assert server.chunked_requests == 1
            assert server.streamed_bytes_in == len(b"hello world")

    def test_connection_reusable_after_stream(self):
        with HttpServer(ok_handler,
                        stream_routes={"/up": upper_route}) as server:
            with HttpConnection(server.address) as conn:
                assert conn.stream("/up", [b"a"]).read() == b"A[done]"
                # the same keep-alive socket serves a buffered request next
                resp = conn.post("/other", b"x", "text/plain")
                assert resp.body == b"plain:x"
                assert conn.stream("/up", [b"b"]).read() == b"B[done]"

    def test_non_stream_target_buffers_chunked_body(self):
        # a chunked request to a non-stream route is decoded, buffered
        # and dispatched to the ordinary handler
        with HttpServer(ok_handler,
                        stream_routes={"/up": upper_route}) as server:
            with HttpConnection(server.address) as conn:
                resp = conn.stream("/buffered", [b"ab", b"cd"])
                assert resp.status == 200
                assert resp.read() == b"plain:abcd"

    def test_factory_failure_yields_500(self):
        def broken_route(_request):
            raise RuntimeError("no stream for you")

        with HttpServer(ok_handler,
                        stream_routes={"/bad": broken_route}) as server:
            with HttpConnection(server.address) as conn:
                resp = conn.stream("/bad", [b"x"])
                assert resp.status == 500
                resp.read()

    def test_handler_failure_closes_connection(self):
        class Exploding:
            content_type = "text/plain"

            def on_chunk(self, data):
                raise ValueError("boom")

            def finish(self):
                return None

        with HttpServer(ok_handler,
                        stream_routes={"/boom": lambda r: Exploding()}
                        ) as server:
            conn = HttpConnection(server.address)
            try:
                with pytest.raises(Exception):
                    conn.stream("/boom", [b"x"]).read()
            finally:
                conn.close()

    def test_multi_megabyte_payload(self):
        chunk = b"z" * 65536
        total = 64                              # 4 MiB
        with HttpServer(ok_handler,
                        stream_routes={"/up": upper_route}) as server:
            with HttpConnection(server.address) as conn:
                resp = conn.stream("/up", (chunk for _ in range(total)))
                received = 0
                for piece in resp.iter_chunks():
                    received += len(piece)
            assert received == total * len(chunk) + len(b"[done]")
            assert server.streamed_bytes_in == total * len(chunk)
            assert server.streamed_bytes_out >= total * len(chunk)

    def test_client_counts_streamed_bytes(self):
        with HttpServer(ok_handler,
                        stream_routes={"/up": upper_route}) as server:
            with HttpConnection(server.address) as conn:
                conn.stream("/up", [b"12345"]).read()
                assert conn.bytes_streamed == 5


class TestStreamResponseFraming:
    """``stream()`` reads its reply with the same framing checks as every
    other reader: a bad head fails the exchange and the socket is
    dropped, never reused mis-framed."""

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",
        b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n"
        b"2\r\nok\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
    ], ids=["negative-length", "non-numeric-length", "non-numeric-status",
            "gzip-then-chunked", "length-and-chunked"])
    def test_bad_reply_head_fails_and_drops_the_connection(self, reply):
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn:
                request = b""
                while not request.endswith(b"0\r\n\r\n"):
                    request += conn.recv(4096)
                conn.sendall(reply + b"HTTP/1.1 204 No Content\r\n\r\n")
                while conn.recv(4096):      # until the client hangs up
                    pass

        server = threading.Thread(target=serve)
        server.start()
        with listener, HttpConnection(listener.getsockname(),
                                      timeout=10.0) as conn:
            with pytest.raises(HttpParseError):
                conn.stream("/up", [b"abc"]).read()
            assert conn._sock is None
        server.join()


def test_stream_reply_with_close_in_a_connection_list_drops_the_socket():
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            request = b""
            while not request.endswith(b"0\r\n\r\n"):
                request += conn.recv(4096)
            conn.sendall(b"HTTP/1.1 200 OK\r\nConnection: keep-alive, close"
                         b"\r\nContent-Length: 2\r\n\r\nok")
            while conn.recv(4096):      # until the client hangs up
                pass

    server = threading.Thread(target=serve)
    server.start()
    with listener, HttpConnection(listener.getsockname(),
                                  timeout=10.0) as conn:
        assert conn.stream("/up", [b"abc"]).read() == b"ok"
        assert conn._sock is None
    server.join()


class TestPbioStreamOverHttp:
    def test_record_stream_echo(self):
        registry = FormatRegistry()
        fmt = Format.from_dict("HttpStreamRecord",
                               {"seq": "int32", "data": "float64[]"})
        registry.register(fmt)
        data = [float(i) for i in range(512)]
        n = 32

        def produce():
            for seq in range(n):
                yield fmt, {"seq": seq, "data": data}

        with HttpServer(ok_handler, stream_routes={"/pbio":
                                       pbio_stream_route(registry)}
                        ) as server:
            with HttpConnection(server.address) as conn:
                session = PbioSession(registry)
                sink = RecordStreamReader(PbioSession(registry))
                resp = conn.stream("/pbio",
                                   iter_frames(session, produce()),
                                   content_type="application/x-pbio-stream")
                assert resp.status == 200
                seqs = []
                for chunk in resp.iter_chunks():
                    for _f, value in sink.feed(chunk):
                        assert list(value["data"]) == data
                        seqs.append(value["seq"])
                sink.finish()
        assert seqs == list(range(n))
        # default wire="auto" on both ends: the reply stream went compact
        assert sink.session.stats.compact_received >= 1

    def test_quality_transform_on_stream(self):
        """The streaming quality hook: records are reduced in flight
        without the payload ever being materialized server-side."""
        registry = FormatRegistry()
        full = Format.from_dict("VizFull",
                                {"seq": "int32", "data": "float64[]"})
        half = Format.from_dict("VizHalf",
                                {"seq": "int32", "data": "float64[]"})
        registry.register(full)
        registry.register(half)

        def halve(fmt, value):
            if fmt.name != "VizFull":
                return fmt, value
            return half, {"seq": value["seq"],
                          "data": value["data"][::2]}

        with HttpServer(ok_handler, stream_routes={"/q": pbio_stream_route(
                            registry, transform=halve)}) as server:
            with HttpConnection(server.address) as conn:
                session = PbioSession(registry)
                sink = RecordStreamReader(PbioSession(registry))
                frames = iter_frames(
                    session,
                    ((full, {"seq": i, "data": [float(j) for j in range(8)]})
                     for i in range(4)))
                resp = conn.stream("/q", frames,
                                   content_type="application/x-pbio-stream")
                got = []
                for chunk in resp.iter_chunks():
                    got.extend(sink.feed(chunk))
                sink.finish()
        assert len(got) == 4
        assert all(f.name == "VizHalf" for f, _v in got)
        assert all(len(v["data"]) == 4 for _f, v in got)
