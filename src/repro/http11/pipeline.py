"""A pipelined HTTP/1.1 client connection: N requests in flight at once.

One keep-alive round trip per request is the serial client's floor: on a
loopback with a fast server, nearly all wall-clock time is spent waiting
for single responses.  :class:`PipelinedHttpConnection` removes that
floor by keeping up to ``depth`` requests on the wire per connection —
requests are serialized into the socket as long as fewer than ``depth``
responses are outstanding, and responses are matched back strictly in
request order (HTTP/1.1 pipelining, RFC 9112 §9.3.2).

The socket is non-blocking and pumped with ``select``: writes and reads
interleave, so a server that responds while we are still sending (or
stops reading while it responds) can never deadlock the client against a
full kernel buffer.

Failure model: a pipeline is all-or-prefix.  If the connection dies or
the server answers ``Connection: close`` mid-batch, the completed prefix
of responses is preserved and a :class:`PipelineError` reports
``failed_index`` — the first request that got no response — so callers
(the multi-connection dispatcher in ``transport.sockets``) can re-drive
just the unanswered suffix under their retry policy.
"""

from __future__ import annotations

import collections
import select
import socket
import time
from typing import Deque, List, Optional, Sequence, Tuple, Union

from .client import parse_address
from .errors import HttpError, HttpParseError
from .messages import Headers, Request, Response, ResponseParser

_SENDMSG_BATCH = 64


class PipelineError(HttpError):
    """A pipelined batch failed part-way through.

    ``responses`` holds the completed prefix (strictly in request order),
    ``failed_index`` is the index of the first request that received no
    response, and ``bytes_written`` tells retry machinery whether any of
    this batch reached the wire (False means a resend is provably safe).
    """

    def __init__(self, message: str, responses: List[Response],
                 failed_index: int, bytes_written: bool = True) -> None:
        super().__init__(message)
        self.responses = responses
        self.failed_index = failed_index
        self.bytes_written = bytes_written


class PipelinedHttpConnection:
    """One keep-alive connection that pipelines up to ``depth`` requests.

    ``depth=1`` degenerates to the serial request/response pattern (and is
    the A/B baseline in the bench harness).  The connection persists
    across :meth:`request_many` batches, so a long-lived client pays TCP
    setup once.
    """

    def __init__(self, address: Union[Tuple[str, int], str],
                 depth: int = 8, timeout: float = 30.0) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if isinstance(address, str):
            address = parse_address(address)
        self.address = address
        self.depth = depth
        #: inactivity bound: the batch fails if neither a byte is sent nor
        #: received for this long (not a bound on total batch duration)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._parser: Optional[ResponseParser] = None
        self.requests_sent = 0
        self.batches = 0

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self._sock = sock
        self._parser = ResponseParser()

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self._connect()

    # ------------------------------------------------------------------
    def request_many(self, requests: Sequence[Request]) -> List[Response]:
        """Drive ``requests`` through the pipeline; responses in order.

        Retries the *whole batch* once on a fresh connection only when
        nothing was sent and nothing received — the same provably-safe
        rule :class:`~repro.http11.client.HttpConnection` applies to a
        stale keep-alive socket.  Anything less clean raises
        :class:`PipelineError` with the completed prefix.
        """
        batch = list(requests)
        if not batch:
            return []
        for attempt in (0, 1):
            try:
                self._ensure_connected()
            except OSError as exc:
                self.close()
                exc.bytes_written = False
                raise
            try:
                responses = self._pump(batch)
            except PipelineError as exc:
                self.close()
                if (attempt == 0 and not exc.responses
                        and not exc.bytes_written):
                    continue
                raise
            self.requests_sent += len(batch)
            self.batches += 1
            return responses
        raise AssertionError("unreachable")  # pragma: no cover

    def request(self, request: Request) -> Response:
        return self.request_many([request])[0]

    def post(self, target: str, body: bytes, content_type: str,
             headers: Optional[Headers] = None) -> Response:
        req = Request(method="POST", target=target,
                      headers=headers or Headers(), body=body)
        req.headers.set("Content-Type", content_type)
        return self.request(req)

    def get(self, target: str) -> Response:
        return self.request(Request(method="GET", target=target))

    # ------------------------------------------------------------------
    def _pump(self, batch: List[Request]) -> List[Response]:
        sock, parser = self._sock, self._parser
        assert sock is not None and parser is not None
        host = f"{self.address[0]}:{self.address[1]}"
        total = len(batch)
        responses: List[Response] = []
        out: Deque[memoryview] = collections.deque()
        serialized = 0
        total_sent = 0
        server_closing = False
        tick = min(1.0, self.timeout)
        last_progress = time.monotonic()
        # poll(), not select(): held sockets can carry fd numbers far past
        # FD_SETSIZE when thousands of connections are open in-process
        read_flags = select.POLLIN | select.POLLPRI
        poller = select.poll()
        registered = read_flags | select.POLLOUT
        poller.register(sock, registered)

        def fail(message: str) -> PipelineError:
            return PipelineError(message, responses, len(responses),
                                 bytes_written=total_sent > 0)

        def ingest(got: int) -> None:
            nonlocal server_closing
            if not got:
                raise fail(
                    "server closed connection mid-pipeline "
                    f"({len(responses)}/{total} responses received)")
            while True:
                try:
                    response = parser.next_response()
                except HttpParseError as exc:
                    raise fail(f"bad pipelined response: {exc}") from exc
                if response is None:
                    break
                responses.append(response)
                connection = (response.headers.get("Connection")
                              or "").lower()
                if connection == "close":
                    server_closing = True
                    if len(responses) < total:
                        raise fail(
                            "server closed pipeline after "
                            f"{len(responses)}/{total} responses")

        while len(responses) < total:
            # Refill the window: request i goes on the wire only once
            # fewer than ``depth`` responses are outstanding before it.
            while (serialized < total and not server_closing
                   and serialized < len(responses) + self.depth):
                request = batch[serialized]
                if request.headers.get("Host") != host:
                    request.headers.set("Host", host)
                out.append(memoryview(request.to_bytes()))
                serialized += 1
            # Optimistic I/O: attempt the send and the recv directly and
            # fall back to poll() only when neither makes progress — a
            # healthy pipeline never pays a poll round trip per window.
            progressed = False
            if out:
                try:
                    if len(out) > 1:
                        buffers = [out[i] for i in
                                   range(min(len(out), _SENDMSG_BATCH))]
                        sent = sock.sendmsg(buffers)
                    else:
                        sent = sock.send(out[0])
                except (BlockingIOError, InterruptedError):
                    sent = 0
                except OSError as exc:
                    raise fail(f"pipeline send failed: {exc}") from exc
                total_sent += sent
                progressed = progressed or sent > 0
                while sent:
                    head = out[0]
                    if sent >= len(head):
                        sent -= len(head)
                        out.popleft()
                    else:
                        out[0] = head[sent:]
                        sent = 0
            try:
                got = parser.read_from(sock)
            except (BlockingIOError, InterruptedError):
                got = None
            except OSError as exc:
                raise fail(f"pipeline recv failed: {exc}") from exc
            if got is not None:
                ingest(got)
                progressed = True
            if progressed:
                last_progress = time.monotonic()
                continue
            # Nothing moved.  With no bytes queued to send, the only
            # possible event is inbound data: wait in a single C-level
            # timeout recv — one call, no Python poll round trip (this is
            # what keeps depth-1 at parity with the blocking client).
            if not out:
                sock.settimeout(tick)
                try:
                    got = parser.read_from(sock)
                except (socket.timeout, InterruptedError):
                    got = None
                except OSError as exc:
                    raise fail(f"pipeline recv failed: {exc}") from exc
                finally:
                    sock.setblocking(False)
                if got is not None:
                    ingest(got)
                    last_progress = time.monotonic()
                    continue
            else:
                # Queued bytes + full kernel buffer: wait on both sides.
                # Which event fired does not matter — the optimistic
                # attempts above discover it, and hangups/errors surface
                # through recv/send.
                wanted = read_flags | select.POLLOUT
                if wanted != registered:
                    poller.modify(sock, wanted)
                    registered = wanted
                try:
                    poller.poll(tick * 1000.0)
                except OSError as exc:
                    raise fail(f"pipeline poll failed: {exc}") from exc
            if time.monotonic() - last_progress >= self.timeout:
                raise fail(
                    f"pipeline stalled for {self.timeout:.1f}s "
                    f"({len(responses)}/{total} responses received)")
        if server_closing:
            self.close()
        return responses

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._parser = None

    def __enter__(self) -> "PipelinedHttpConnection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
