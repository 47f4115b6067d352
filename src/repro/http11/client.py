"""A persistent-connection HTTP/1.1 client and a keep-alive pool.

:class:`HttpConnection` is one keep-alive connection; the paper's
persistent-session format cache assumes exactly this — repeated SOAP-bin
calls to the same host must not pay TCP setup (or a fresh PBIO format
announcement) per request.  One request is a pipeline with a window of
one: :meth:`HttpConnection.request` and the pipelined
:meth:`HttpConnection.request_many` run through the same exchange loop,
which owns the stale-socket rule, the socket timeout and the error a
failed exchange raises.  :class:`HttpConnectionPool` extends that to many
hosts and many concurrent callers: per-host idle lists with max-idle
eviction and a retry-once policy for sockets that went stale while pooled.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from collections import deque
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import HttpConnectionClosed, HttpError, HttpParseError
from .messages import (Headers, LAST_CHUNK, Request, Response, ResponseParser,
                       connection_tokens, consume_views, encode_chunk,
                       wire_buffers)

#: buffers per ``sendmsg``, well under the kernel's ``IOV_MAX``
_SENDMSG_BATCH = 64
_POLLIN, _POLLOUT = select.POLLIN, select.POLLOUT


class PipelineError(HttpError):
    """A pipelined batch failed part-way through.

    ``responses`` holds the completed prefix (strictly in request order),
    ``failed_index`` is the index of the first request that received no
    response, and ``bytes_written`` tells retry machinery whether any of
    this batch reached the wire (False means a resend is provably safe).
    The exception that broke the batch is ``__cause__``.
    """

    def __init__(self, message: str, responses: List[Response],
                 failed_index: int, bytes_written: bool = True) -> None:
        super().__init__(message)
        self.responses = responses
        self.failed_index = failed_index
        self.bytes_written = bytes_written


class HttpConnection:
    """One keep-alive connection to an HTTP server, serial or pipelined.

    Reconnects transparently if the server closed the connection between
    requests (idle keep-alive timeout), but never retries a request that
    failed mid-flight — retry policy belongs to callers who know their
    idempotency.  ``timeout`` bounds the connect and every wait for the
    socket: a stalled exchange raises ``TimeoutError``.
    """

    def __init__(self, address: Union[Tuple[str, int], str],
                 timeout: float = 30.0) -> None:
        if isinstance(address, str):
            address = parse_address(address)
        self.address = address
        self.timeout = timeout
        self._host = f"{address[0]}:{address[1]}"
        self._sock: Optional[socket.socket] = None
        self._parser: Optional[ResponseParser] = None
        self.requests_sent = 0
        #: request-body bytes written through :meth:`stream` (pre-framing)
        self.bytes_streamed = 0

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(self.address,
                                              timeout=self.timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._parser = ResponseParser()

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self._connect()

    def settimeout(self, timeout: float) -> None:
        """Make ``timeout`` the connection's from the next wait on."""
        if timeout != self.timeout:
            self.timeout = timeout
            if self._sock is not None:
                self._sock.settimeout(timeout)

    def request(self, request: Request) -> Response:
        """Send ``request`` and read the response: a pipeline of depth 1.

        Sets ``Host`` and ``Content-Length`` automatically.  Failures
        propagate as the exception that broke the exchange, annotated with
        ``bytes_written`` (see :meth:`_exchange`).
        """
        responses: List[Response] = []
        self._exchange((request,), 1, responses)
        return responses[0]

    def request_many(self, requests: Sequence[Request],
                     depth: int) -> List[Response]:
        """Pipeline ``requests``, at most ``depth`` unanswered at a time;
        the responses come back in request order (RFC 9112 §9.3.2).

        A batch is all-or-prefix: a failure raises :class:`PipelineError`
        with the answered prefix, the first unanswered index and the
        cause, so a caller can re-drive just the unanswered suffix.
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        responses: List[Response] = []
        if requests:
            try:
                self._exchange(requests, depth, responses)
            except (HttpError, OSError) as exc:
                raise PipelineError(
                    f"pipelined batch failed after {len(responses)}/"
                    f"{len(requests)} responses: {exc}", responses,
                    len(responses), exc.bytes_written) from exc
        return responses

    def post(self, target: str, body: bytes, content_type: str,
             headers: Optional[Headers] = None) -> Response:
        """Convenience POST (what SOAP always does)."""
        request = Request(method="POST", target=target,
                          headers=headers or Headers(), body=body)
        request.headers.set("Content-Type", content_type)
        return self.request(request)

    def get(self, target: str) -> Response:
        return self.request(Request(method="GET", target=target))

    # ------------------------------------------------------------------
    def _exchange(self, batch: Sequence[Request], depth: int,
                  responses: List[Response]) -> None:
        """Drive ``batch`` through :meth:`_pump`, appending to
        ``responses``.

        A stale keep-alive socket is reconnected and the batch resent
        *only* when nothing was sent and nothing received — resending
        after a partial write could double-execute a non-idempotent
        operation.  Every propagated exception carries ``bytes_written``
        so pool- and policy-level retries can make the same distinction.
        """
        for attempt in (0, 1):
            if self._sock is None:
                try:
                    self._connect()
                except OSError as exc:
                    exc.bytes_written = False
                    raise
            try:
                self._pump(batch, depth, responses)
            except (HttpError, OSError) as exc:
                self.close()            # framing is lost: never reuse it
                if (attempt or exc.bytes_written or responses
                        or not isinstance(exc, (HttpConnectionClosed,
                                                OSError))):
                    raise
                continue
            self.requests_sent += len(batch)
            return

    def _pump(self, batch: Sequence[Request], depth: int,
              responses: List[Response]) -> None:
        """The exchange loop: write requests while fewer than ``depth``
        are unanswered, read responses through the parser.

        A write blocks (up to the timeout) unless a request already on the
        wire is still unanswered: before that, the server reads the bytes
        before it answers, so waiting for buffer space cannot deadlock.
        Behind an unanswered request the server may be blocked writing to
        us, so the loop polls both directions and moves whichever is
        ready.  A depth-1 exchange is therefore one gather ``sendmsg`` and
        blocking reads.  Exceptions leave annotated with
        ``bytes_written``.
        """
        sock, parser, host = self._sock, self._parser, self._host
        total = len(batch)
        queued: deque = deque()     # serialized bytes not yet written
        ends: List[int] = []        # per serialized request: its last byte
        serialized = on_wire = end = written = 0
        closing = False
        poller = None
        try:
            while len(responses) < total:
                answered = len(responses)
                while serialized < total and serialized < answered + depth:
                    request = batch[serialized]
                    if request.headers.get("Host") != host:
                        request.headers.set("Host", host)
                    buffers = wire_buffers(request)
                    queued += buffers
                    end += sum(map(len, buffers))
                    ends.append(end)
                    serialized += 1
                if queued:
                    events = _POLLOUT
                    if on_wire > answered:
                        if poller is None:
                            poller = select.poll()
                            poller.register(sock, _POLLIN | _POLLOUT)
                        ready = poller.poll(self.timeout * 1000.0)
                        if not ready:
                            raise socket.timeout(
                                f"pipeline stalled for {self.timeout:.1f}s "
                                f"({answered}/{total} responses received)")
                        events = ready[0][1]
                    if events & _POLLOUT:
                        sent = sock.sendmsg(
                            queued if len(queued) <= _SENDMSG_BATCH
                            else list(islice(queued, _SENDMSG_BATCH)))
                        written += sent
                        if written == end:  # the usual case: all of it
                            queued.clear()
                            on_wire = serialized
                        else:
                            consume_views(queued, sent)
                            while ends[on_wire] <= written:
                                on_wire += 1
                    if not events & ~_POLLOUT:
                        continue        # nothing to read yet
                if not parser.read_from(sock):
                    raise HttpConnectionClosed(
                        "connection closed mid-reply" if parser.mid_message
                        else f"connection closed after {answered}/{total} "
                             "responses")
                while True:
                    response = parser.next_response()
                    if response is None:
                        break
                    responses.append(response)
                    if "close" in connection_tokens(response.headers):
                        closing = True
                        if len(responses) < total:
                            raise HttpConnectionClosed(
                                "server closed the connection after "
                                f"{len(responses)}/{total} responses")
        except (HttpError, OSError) as exc:
            exc.bytes_written = written > 0
            raise
        if closing:
            self.close()

    def stream(self, target: str, chunks,
               content_type: str = "application/octet-stream",
               headers: Optional[Headers] = None) -> "StreamResponse":
        """Full-duplex chunked POST: send the body from the ``chunks``
        iterable while the response streams back.

        The request body is written by a sender thread so a server that
        responds incrementally (the reactor's streaming routes) can apply
        backpressure without deadlocking the exchange: when the server
        pauses reads because *our* receive window is full, the sender
        blocks in ``send`` while this thread keeps draining the response.
        Neither side ever holds the full payload.

        Returns a :class:`StreamResponse`; iterate
        :meth:`StreamResponse.iter_chunks` to completion (or call
        :meth:`StreamResponse.read`) before reusing this connection.
        """
        self._ensure_connected()
        sock, parser = self._sock, self._parser
        request = Request(method="POST", target=target,
                          headers=headers or Headers(), body=b"")
        request.headers.set("Host",
                            f"{self.address[0]}:{self.address[1]}")
        request.headers.set("Content-Type", content_type)
        request.headers.set("Transfer-Encoding", "chunked")
        head = request.to_bytes()
        try:
            view = memoryview(head)
            sent = 0
            while sent < len(view):
                sent += sock.send(view[sent:])
        except OSError:
            self.close()
            raise
        sender_error: List[BaseException] = []

        def _send_body() -> None:
            try:
                for chunk in chunks:
                    framed = encode_chunk(chunk)
                    if not framed:
                        continue
                    fview = memoryview(framed)
                    done = 0
                    while done < len(fview):
                        done += sock.send(fview[done:])
                    self.bytes_streamed += len(chunk)
                tail = memoryview(LAST_CHUNK)
                done = 0
                while done < len(tail):
                    done += sock.send(tail[done:])
            except BaseException as exc:  # noqa: BLE001 - joined by reader
                sender_error.append(exc)

        sender = threading.Thread(target=_send_body, daemon=True,
                                  name="http-stream-sender")
        sender.start()
        parser.stream_chunked = True    # a chunked reply: head now, body later
        try:
            response = parser.read_message(sock)
        except (HttpError, OSError):
            self.close()
            sender.join(timeout=5.0)
            raise
        finally:
            parser.stream_chunked = False
        self.requests_sent += 1
        return StreamResponse(response, self, sender, sender_error)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._parser = None

    def __enter__(self) -> "HttpConnection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class StreamResponse:
    """The incrementally-read half of :meth:`HttpConnection.stream`.

    ``status``/``headers`` are available immediately; the body arrives
    through :meth:`iter_chunks` (or all at once via :meth:`read`).  A
    non-chunked response — an error reply from a non-streaming endpoint —
    is read whole and yielded as a single chunk, so error handling needs
    no second code path.
    """

    def __init__(self, response: Response, conn: HttpConnection,
                 sender: threading.Thread,
                 sender_error: List[BaseException]) -> None:
        self.status = response.status
        self.headers = response.headers
        self._response = response
        self._conn = conn
        self._sock, self._parser = conn._sock, conn._parser
        self._sender = sender
        self._sender_error = sender_error
        self._finished = False

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def iter_chunks(self):
        """Yield decoded response-body chunks as they arrive; finishes the
        exchange (joins the sender thread, re-raising its error)."""
        if not self._response.streaming:
            if self._response.body:
                yield self._response.body
            self._finish()
            return
        parser, sock = self._parser, self._sock
        try:
            while True:
                data, done = parser.drain_body()
                if data:
                    yield data
                if done:
                    break
                if not parser.read_from(sock):
                    raise HttpParseError("connection closed mid-body")
        except (HttpError, OSError):
            self._conn.close()
            raise
        self._finish()

    def read(self) -> bytes:
        """The whole body, buffered (small responses / tests)."""
        return b"".join(self.iter_chunks())

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self._sender.join()
        if "close" in connection_tokens(self.headers):
            self._conn.close()
        if self._sender_error and self.ok:
            # On an error response the server may legitimately have hung
            # up mid-body (stream setup failed); the status already tells
            # the story and the broken-pipe noise would only mask it.
            raise self._sender_error[0]


class HttpConnectionPool:
    """A thread-safe pool of keep-alive connections, keyed by host.

    Checkout/checkin protocol: :meth:`acquire` hands out an idle connection
    for ``address`` (or a fresh one), :meth:`release` returns it for reuse.
    The one-shot helpers (:meth:`request`, :meth:`post`, :meth:`get`) wrap
    the pair and add the pool's retry policy: if a pooled connection turns
    out to be broken mid-request — the server dropped an idle keep-alive
    socket — the request is retried exactly once on a brand-new connection.

    Idle connections are evicted once they sit unused for ``idle_timeout``
    seconds, and at most ``max_idle_per_host`` are kept per host; both
    bounds are enforced lazily on acquire/release, so the pool needs no
    background thread.

    ``max_per_host`` additionally caps *live* connections per host —
    checked-out plus idle — so a burst of concurrent callers cannot open
    an unbounded number of sockets to one server.  At the cap,
    ``overflow="block"`` makes :meth:`acquire` wait up to
    ``acquire_timeout`` seconds for a connection to come back (then fail),
    while ``overflow="fail"`` raises immediately.
    """

    def __init__(self, max_idle_per_host: int = 8,
                 idle_timeout: float = 60.0,
                 timeout: float = 30.0,
                 max_per_host: Optional[int] = None,
                 overflow: str = "block",
                 acquire_timeout: float = 10.0) -> None:
        if overflow not in ("block", "fail"):
            raise ValueError("overflow must be 'block' or 'fail'")
        if max_per_host is not None and max_per_host < 1:
            raise ValueError("max_per_host must be >= 1")
        self.max_idle_per_host = max_idle_per_host
        self.idle_timeout = idle_timeout
        self.timeout = timeout
        self.max_per_host = max_per_host
        self.overflow = overflow
        self.acquire_timeout = acquire_timeout
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: address -> [(connection, time it went idle)], newest last
        self._idle: Dict[Tuple[str, int], List[Tuple[HttpConnection, float]]] = {}
        #: address -> number of connections currently checked out
        self._in_use: Dict[Tuple[str, int], int] = {}
        self._closed = False
        self.reused = 0
        self.created = 0
        self.evicted = 0
        self.retries = 0

    # ------------------------------------------------------------------
    def acquire(self, address: Union[Tuple[str, int], str]) -> HttpConnection:
        """Check out a connection to ``address`` (reusing an idle one)."""
        if isinstance(address, str):
            address = parse_address(address)
        deadline = time.monotonic() + self.acquire_timeout
        stale: List[HttpConnection] = []
        try:
            with self._cond:
                while True:
                    if self._closed:
                        raise HttpError("connection pool is closed")
                    now = time.monotonic()
                    bucket = self._idle.get(address)
                    reusable: Optional[HttpConnection] = None
                    while bucket:
                        conn, idle_since = bucket.pop()  # newest: warmest
                        if now - idle_since > self.idle_timeout:
                            stale.append(conn)
                        else:
                            reusable = conn
                            break
                    if reusable is not None:
                        self._in_use[address] = \
                            self._in_use.get(address, 0) + 1
                        self.reused += 1
                        return reusable
                    live = (self._in_use.get(address, 0)
                            + len(self._idle.get(address, ())))
                    if self.max_per_host is None or live < self.max_per_host:
                        self._in_use[address] = \
                            self._in_use.get(address, 0) + 1
                        self.created += 1
                        return HttpConnection(address, timeout=self.timeout)
                    if self.overflow == "fail":
                        raise HttpError(
                            f"connection pool exhausted for {address}: "
                            f"{live} live >= max_per_host="
                            f"{self.max_per_host}")
                    remaining = deadline - now
                    if remaining <= 0:
                        raise HttpError(
                            f"timed out after {self.acquire_timeout:.1f}s "
                            f"waiting for a pooled connection to {address} "
                            f"(max_per_host={self.max_per_host})")
                    self._cond.wait(remaining)
        finally:
            for conn in stale:
                self.evicted += 1
                conn.close()

    def release(self, conn: HttpConnection) -> None:
        """Return a healthy connection to the pool."""
        now = time.monotonic()
        excess: List[HttpConnection] = []
        with self._cond:
            self._checkin(conn.address)
            if self._closed:
                excess.append(conn)
            else:
                bucket = self._idle.setdefault(conn.address, [])
                bucket.append((conn, now))
                while len(bucket) > self.max_idle_per_host:
                    old, _ = bucket.pop(0)
                    excess.append(old)
            self._cond.notify_all()
        for old in excess:
            self.evicted += 1
            old.close()

    def discard(self, conn: HttpConnection) -> None:
        """Close a connection instead of pooling it (after an error)."""
        with self._cond:
            self._checkin(conn.address)
            self._cond.notify_all()
        conn.close()

    def _checkin(self, address: Tuple[str, int]) -> None:
        count = self._in_use.get(address, 0)
        if count <= 1:
            self._in_use.pop(address, None)
        else:
            self._in_use[address] = count - 1

    # ------------------------------------------------------------------
    def request(self, address: Union[Tuple[str, int], str],
                request: Request) -> Response:
        """Send ``request`` on a pooled connection, retrying once on a
        broken socket — but only when no request bytes had been written
        (``exc.bytes_written`` is False), so the silent retry can never
        double-execute a request whose body partially reached the server.
        Failures after bytes hit the wire propagate; deciding whether *those*
        are resendable is :class:`~repro.reliability.policy.RetryPolicy`'s
        job, because only callers know their idempotency.
        """
        conn = self.acquire(address)
        try:
            response = conn.request(request)
        except (HttpError, HttpConnectionClosed, OSError) as exc:
            self.discard(conn)
            if getattr(exc, "bytes_written", True):
                raise
            # The pooled socket was stale; one fresh-connection retry.
            self.retries += 1
            conn = self.acquire(conn.address)
            try:
                response = conn.request(request)
            except BaseException:
                self.discard(conn)
                raise
        self.release(conn)
        return response

    def post(self, address: Union[Tuple[str, int], str], target: str,
             body: bytes, content_type: str,
             headers: Optional[Headers] = None) -> Response:
        req = Request(method="POST", target=target,
                      headers=headers or Headers(), body=body)
        req.headers.set("Content-Type", content_type)
        return self.request(address, req)

    def get(self, address: Union[Tuple[str, int], str],
            target: str) -> Response:
        return self.request(address, Request(method="GET", target=target))

    # ------------------------------------------------------------------
    def idle_count(self, address: Optional[Union[Tuple[str, int], str]] = None
                   ) -> int:
        if isinstance(address, str):
            address = parse_address(address)
        with self._lock:
            if address is not None:
                return len(self._idle.get(address, []))
            return sum(len(bucket) for bucket in self._idle.values())

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus a point-in-time occupancy snapshot."""
        with self._lock:
            return {
                "created": self.created,
                "reused": self.reused,
                "evicted": self.evicted,
                "retries": self.retries,
                "in_use": sum(self._in_use.values()),
                "idle": sum(len(bucket) for bucket in self._idle.values()),
            }

    def close(self) -> None:
        """Close every pooled connection and refuse further acquires."""
        with self._cond:
            self._closed = True
            conns = [conn for bucket in self._idle.values()
                     for conn, _ in bucket]
            self._idle.clear()
            self._cond.notify_all()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "HttpConnectionPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def parse_address(url: str) -> Tuple[str, int]:
    """Extract ``(host, port)`` from an ``http://host:port[/...]`` URL.

    >>> parse_address("http://127.0.0.1:8080/service")
    ('127.0.0.1', 8080)
    """
    if url.startswith("http://"):
        url = url[len("http://"):]
    authority = url.split("/", 1)[0]
    if ":" in authority:
        host, _, port_text = authority.partition(":")
        return host, int(port_text)
    return authority, 80
