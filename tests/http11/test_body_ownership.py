"""Bulk bodies: gather writes, direct body reads, the ownership rule and
the bound on a declared ``Content-Length`` — for the one parser every
reader goes through (the server, the blocking and pipelined clients).

See the ``repro.http11.messages`` module docstring for the rule these
tests hold the parser to.
"""

import socket
import threading
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from repro.http11 import (Headers, HttpConnection, HttpParseError,
                          HttpServer, Request, RequestParser, Response,
                          ResponseParser)
from repro.http11.messages import send_gather
from repro.pbio import Format, FormatRegistry, PbioSession
from tests.http11.scripted import Pieces

FULL_BODY = 640 * 480 * 3          # one ImageFull frame of pixels


def _stream():
    first = Response(body=bytes(range(256)) * 9)
    first.headers.set("ETag", '"first"')
    second = Response(status=404, body=b"")
    third = Response(body=b"x" * 700 + b"\r\n\r\n" + b"y" * 300)
    return first.to_bytes() + second.to_bytes() + third.to_bytes()


def _summary(responses):
    return [(r.status, list(r.headers), bytes(r.body)) for r in responses]


def _read(parser, source, count=3):
    """``count`` responses through ``read_from`` over ``source``."""
    return _summary(parser.read_message(source) for _ in range(count))


def _fed(parser, pieces):
    """Every response the pieces hold, fed in as received elsewhere."""
    out = []
    for piece in pieces:
        parser.feed(piece)
        while (response := parser.next_response()) is not None:
            out.append(response)
    return _summary(out)


class TestSplitAtEveryOffset:
    @pytest.mark.parametrize("source", ["recv_into", "recv"])
    def test_identical_messages_for_every_split(self, source):
        stream = _stream()
        expected = _read(ResponseParser(), Pieces([stream]))
        assert [status for status, _, _ in expected] == [200, 404, 200]
        for k in range(len(stream) + 1):
            pieces = [stream[:k], stream[k:]]
            parser = ResponseParser()
            if source == "recv_into":
                assert _read(parser, Pieces(pieces)) == expected, k
            else:
                assert _fed(parser, pieces) == expected, k
            assert not parser.mid_message

    def test_byte_at_a_time(self):
        stream = _stream()
        assert _read(ResponseParser(), Pieces.split(stream, 1)) == _read(
            ResponseParser(), Pieces([stream]))

    @pytest.mark.parametrize("source", ["recv_into", "recv"])
    def test_body_larger_than_the_first_buffer(self, source):
        body = np.arange(1_500_000, dtype=np.uint32).astype(np.uint8)
        raw = (Response(body=body.tobytes()).to_bytes()
               + Response(status=204).to_bytes())
        pieces = [raw[i:i + 100_003] for i in range(0, len(raw), 100_003)]
        parser = ResponseParser()
        if source == "recv_into":
            source = Pieces(pieces)
            response = parser.read_message(source)
            successor = parser.read_message(source)
        else:
            for piece in pieces:
                parser.feed(piece)
            response = parser.next_response()
            successor = parser.next_response()
        assert type(response.body) is bytes
        assert response.body == body.tobytes()
        assert successor.status == 204              # successor intact


class TestDeclaredLength:
    """A ``Content-Length`` is what the peer claims, not what it sends."""

    def _peak_while(self, parse):
        tracemalloc.start()
        try:
            with pytest.raises(HttpParseError):
                parse()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_response_declaring_200_mb_then_closing(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 200000000\r\n\r\n"
                      + b"0123456789")
            a.shutdown(socket.SHUT_WR)
            peak = self._peak_while(
                lambda: ResponseParser().read_message(b))
        assert peak < 1 << 20

    def test_request_declaring_200_mb_then_closing(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(b"POST / HTTP/1.1\r\nContent-Length: 200000000\r\n\r\n"
                      + b"0123456789")
            a.shutdown(socket.SHUT_WR)
            peak = self._peak_while(lambda: RequestParser().read_message(b))
        assert peak < 1 << 20

    def test_truncated_body_is_not_at_a_message_boundary(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError):
            parser.read_message(Pieces([b"POST / HTTP/1.1\r\n"
                                        b"Content-Length: 10\r\n\r\n",
                                        b"abc"]))
        assert parser.mid_message

    def test_server_peak_for_a_request_declaring_200_mb(self):
        with HttpServer(lambda request: Response()) as server:
            with socket.create_connection(server.address) as raw:
                tracemalloc.start()
                try:
                    raw.sendall(b"POST / HTTP/1.1\r\n"
                                b"Content-Length: 200000000\r\n\r\n"
                                b"0123456789")
                    raw.shutdown(socket.SHUT_WR)
                    raw.settimeout(10.0)
                    while raw.recv(4096):   # until the server hangs up
                        pass
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peak < 1 << 20


class TestGatherWrites:
    def test_head_and_body_are_the_whole_message(self):
        for message in (Request(body=b"abc"), Response(status=500, body=b""),
                        Response(body=bytearray(b"\x00" * 70_000))):
            assert message.head_bytes() + message.body == message.to_bytes()

    def test_send_gather_yields_every_write(self):
        a, b = socket.socketpair()
        with a, b:
            a.settimeout(10.0)          # timeout mode: writes may be partial
            head, body = b"H" * 10, bytes(range(256)) * 16_384
            received = bytearray()

            def drain():
                while len(received) < len(head) + len(body):
                    received.extend(b.recv(1 << 16))

            reader = threading.Thread(target=drain)
            reader.start()
            writes = list(send_gather(a, head, body))
            reader.join()
            assert sum(writes) == len(head) + len(body)
            assert len(writes) > 1      # 4 MiB does not fit one write
            assert bytes(received) == head + body


# ----------------------------------------------------------------------
# 0.92 MB replies over real connections
# ----------------------------------------------------------------------
def _image_registry():
    registry = FormatRegistry()
    image = Format.from_dict("OwnedImage", {"seq": "int32",
                                            "pixels": "uint8[]"})
    registry.register(image)
    return registry, image


@pytest.fixture
def frame_server():
    """Every request answers with the next 0.92 MB PBIO frame, whose
    pixels are all equal to its sequence number."""
    registry, image = _image_registry()
    session = PbioSession(registry)
    lock = threading.Lock()
    served = [0]

    def handler(_request):
        with lock:
            served[0] += 1
            seq = served[0]
            body = session.pack_bytes(image, {
                "seq": seq, "pixels": np.full(FULL_BODY, seq, np.uint8)})
        return Response(body=body)

    with HttpServer(handler) as server:
        yield server


class TestOwnership:
    def test_first_reply_survives_the_second_on_one_connection(
            self, frame_server):
        registry, _ = _image_registry()
        decoder = PbioSession(registry)
        with HttpConnection(frame_server.address) as conn:
            first = conn.get("/")
            _, value = decoder.unpack_stream(first.body)
            pixels = value["pixels"]
            # zero-copy: the decoded array is a view over the body
            assert np.shares_memory(pixels, np.frombuffer(first.body,
                                                          np.uint8))
            second = conn.get("/")
            third = conn.get("/")
        assert type(first.body) is bytes
        assert pixels.min() == pixels.max() == 1
        assert decoder.unpack_stream(second.body)[1]["seq"] == 2
        assert decoder.unpack_stream(third.body)[1]["pixels"][-1] == 3

    def test_non_chunked_error_reply_through_iter_chunks(self):
        body = b"e" * 300_000

        def handler(request):
            return Response(status=500, body=body)

        with HttpServer(handler) as server:
            with HttpConnection(server.address) as conn:
                response = conn.stream("/x", [b"a", b"b"])
                assert response.status == 500
                assert b"".join(response.iter_chunks()) == body
                assert conn.get("/again").body == body   # still framed


    def test_pipelined_batch_of_full_size_replies(self, frame_server):
        registry, _ = _image_registry()
        decoder = PbioSession(registry)
        get = [Request(method="GET", target="/") for _ in range(4)]
        with HttpConnection(frame_server.address) as conn:
            first, *rest = conn.request_many(get, 4)
            pixels = decoder.unpack_stream(first.body)[1]["pixels"]
            assert np.shares_memory(pixels, np.frombuffer(first.body,
                                                          np.uint8))
            later = conn.request_many(get, 4)
        assert all(type(r.body) is bytes for r in [first, *rest, *later])
        assert pixels.min() == pixels.max() == 1
        assert [decoder.unpack_stream(r.body)[1]["pixels"][-1]
                for r in rest + later] == [2, 3, 4, 5, 6, 7, 8]

    def test_large_post_reaches_the_handler_as_bytes(self):
        payload = np.arange(1_500_000, dtype=np.uint32).astype(
            np.uint8).tobytes()
        seen = []

        def handler(request):
            seen.append(request.body)
            return Response(body=b"ok")

        with HttpServer(handler) as server:
            with HttpConnection(server.address) as conn:
                assert conn.post("/", payload, "application/x").body == b"ok"
        assert type(seen[0]) is bytes
        assert seen[0] == payload


def _full_size_reply():
    registry, image = _image_registry()
    return Response(body=PbioSession(registry).pack_bytes(
        image, {"seq": 1, "pixels": np.zeros(FULL_BODY, np.uint8)}))


class TestClientAllocation:
    def test_reading_a_full_size_reply_allocates_about_the_body(self):
        reply = _full_size_reply()
        head = reply.head_bytes()
        a, b = socket.socketpair()
        with a, b:
            writer = threading.Thread(
                target=lambda: sum(send_gather(a, head, reply.body)))
            parser = ResponseParser()
            tracemalloc.start()
            try:
                writer.start()
                response = parser.read_message(b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                writer.join()
        assert response.body == reply.body
        assert peak <= 1.1 * len(reply.body)

    def test_pipelined_client_allocates_about_the_body(self):
        reply = _full_size_reply()
        head = reply.head_bytes()
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.recv(4096)                 # the GET
                sum(send_gather(conn, head, reply.body))
                conn.recv(1)                    # until the client closes

        server = threading.Thread(target=serve)
        server.start()
        with listener, HttpConnection(listener.getsockname()) as client:
            client._ensure_connected()
            tracemalloc.start()
            try:
                response = client.get("/")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        server.join()
        assert response.body == reply.body
        assert peak <= 1.1 * len(reply.body)


def test_request_headers_and_body_go_out_separately_and_arrive_whole():
    seen = []

    def handler(request):
        seen.append(request.body)
        return Response(body=request.body[::-1])

    payload = bytes(range(256)) * 2000
    with HttpServer(handler) as server:
        with HttpConnection(server.address) as conn:
            response = conn.post("/", payload, "application/octet-stream",
                                 headers=Headers([("X-Tag", "t")]))
    assert seen == [payload]
    assert response.body == payload[::-1]
