"""The reactor's write path under a peer that takes bytes slowly.

A scripted socket accepts at most *k* bytes per ``send``/``sendmsg`` and
refuses every other call with ``BlockingIOError``; the owned turn
(``_serve``) is driven by hand, woken again with the mask it re-armed for,
until the connection closes.  One pipelined burst carries a small joined
reply, a gathered reply over 32 KiB, a 304, another small reply and a
final 400.  For every *k* the bytes written must be the one-shot output,
in order, and the write queue must stay inside ``max_buffered_bytes`` and
``max_pipeline`` the whole time.
"""

import pytest

from repro.http11 import Headers, ReactorHttpServer, Response, ResponseParser
from repro.http11 import reactor
from repro.http11.messages import RequestParser

BIG = bytes(range(256)) * 132            # 33,792 B: gathered, not joined
MAX_BUFFERED = 8 * 1024
MAX_PIPELINE = 2

BURST = (b"POST /small HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
         b"GET /big HTTP/1.1\r\n\r\n"
         b'GET /cached HTTP/1.1\r\nIf-None-Match: "v1"\r\n\r\n'
         b"POST /small HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy"
         b"NOT HTTP\r\n\r\n")


def handler(request):
    if request.target == "/big":
        return Response(body=BIG)
    if request.target == "/cached":
        return Response(body=b"cached", headers=Headers([("ETag", '"v1"')]))
    return Response(body=b"small:" + request.body)


class _Epoll:
    """Stands in for the server's epoll set: remembers the last re-arm;
    the server's own threads find nothing to poll."""

    def __init__(self, real):
        self.real = real
        self.mask = None

    def poll(self, timeout=-1, maxevents=-1):
        self.real.poll(0.01, 1)     # an empty set: just a short wait
        return []

    def modify(self, sock, mask):
        self.mask = mask

    def register(self, *args):
        pass

    def unregister(self, *args):
        pass

    def close(self):
        self.real.close()


class Trickle:
    """The burst arrives in one read; each write takes at most ``k``
    bytes, and with ``stall`` every other write takes none."""

    def __init__(self, k, stall):
        self.k, self.stall = k, stall
        self.inbox = [BURST]
        self.calls = 0
        self.written = bytearray()
        self.conn = None
        self.peak = (0, 0)          # most replies, most bytes ever queued

    def recv(self, n):
        if not self.inbox:
            raise BlockingIOError
        return self.inbox.pop()

    def sendmsg(self, buffers):
        head = bytearray()
        for buffer in buffers:
            head += memoryview(buffer)[:self.k + 1 - len(head)]
            if len(head) > self.k:
                break
        return self.send(head)

    def send(self, data):
        conn = self.conn
        self.peak = (max(self.peak[0], conn.queued),
                     max(self.peak[1], conn.out_bytes))
        self.calls += 1
        if self.stall and self.calls % 2 == 0:
            raise BlockingIOError
        taken = bytes(data[:self.k])
        self.written += taken
        return len(taken)

    def fileno(self):
        return -1                   # in no epoll set

    def close(self):
        pass


@pytest.fixture(scope="module")
def server():
    server = ReactorHttpServer(handler, max_buffered_bytes=MAX_BUFFERED,
                               max_pipeline=MAX_PIPELINE)
    epoll = server._epoll = _Epoll(server._epoll)
    yield server, epoll
    server.close()


def _drive(server, epoll, k, stall):
    sock = Trickle(k, stall)
    conn = reactor._Conn(sock, RequestParser(), 0.0)
    sock.conn = conn
    with server._lock:
        server._active_connections += 1   # _close_conn takes it back
    conn.state = reactor._OWNED
    mask = reactor._IN
    for _ in range(10 * len(BURST) + 20 * len(BIG)):
        server._serve(conn, mask, False)
        if conn.state is reactor._CLOSED:
            return bytes(sock.written), sock.peak
        assert conn.state is reactor._ARMED
        conn.state = reactor._OWNED
        mask = epoll.mask & ~reactor._ONESHOT
    raise AssertionError("the turn never finished")


def _statuses(wire):
    parser, out = ResponseParser(), []
    parser.feed(wire)
    while (response := parser.next_response()) is not None:
        out.append((response.status, response.body))
    return out


def test_one_shot_output_is_every_reply_in_order(server):
    wire, _peak = _drive(*server, k=1 << 30, stall=False)
    assert _statuses(wire) == [
        (200, b"small:abc"), (200, BIG), (304, b""), (200, b"small:xy"),
        (400, b"bad request: bad request line 'NOT HTTP'")]


@pytest.mark.parametrize("k", list(range(1, 33)) + [
    100, 1000, 4096, 8191, 8192, 8193, 32 * 1024, len(BIG), 1 << 16])
def test_every_split_of_the_writes_sends_the_same_bytes(server, k):
    expected, _peak = _drive(*server, k=1 << 30, stall=False)
    wire, (replies, queued) = _drive(*server, k=k, stall=True)
    assert wire == expected
    largest = len(BIG) + 64
    assert replies <= MAX_PIPELINE
    assert queued <= MAX_BUFFERED + largest
