"""Event-driven HTTP/1.1 server: leader/followers over one shared epoll set.

The thread-per-connection model spends a thread on every keep-alive
client, busy or not — at the ROADMAP's "millions of users" scale, idle
connections exhaust threads long before the compiled codecs or the
streaming XML engine become the bottleneck.  :class:`ReactorHttpServer`
spends a *file descriptor* instead, and serves every connection with a
fixed set of ``workers + 1`` identical threads (the Leader/Followers
pattern):

* every thread loops on ``epoll.poll()`` over the **same** epoll set, and
  every connection is registered ``EPOLLIN | EPOLLONESHOT`` — so the one
  thread the kernel wakes **owns** that connection until it re-arms it;
* the owner does the whole exchange on its own thread: read through an
  incremental :class:`~repro.http11.messages.RequestParser` (partial
  reads, split CRLFs, pipelined bursts all welcome), run each complete
  request in arrival order through ``_ServerCore._respond`` (shared
  verbatim with the threaded server: admission, deadline shedding,
  quality coupling, the handler), and gather-write the replies with
  ``sendmsg``.  No request, response or byte crosses threads;
* **handler slots**: at most ``workers`` threads may be inside a handler
  at once, so one thread is always free to poll.  ``/healthz`` and
  ``/metrics`` need no slot, so a saturated pool cannot mask readiness; a
  connection that finds every slot busy waits in a FIFO that the next
  thread leaving a handler drains before it polls again;
* **HTTP/1.1 pipelining**: one owner per connection runs pipelined
  requests serially, in arrival order (what PBIO format announcements
  need), replies leave in the same order, and the pipeline is aborted on
  ``Connection: close`` or a malformed request;
* **backpressure**: once ``max_buffered_bytes`` of replies, or
  ``max_pipeline`` replies, sit unflushed in a connection's write queue,
  its owner stops answering and re-arms for ``EPOLLOUT`` only — reads
  resume when the client drains.  Memory per connection is O(limits),
  never O(client behaviour).

Semantics carried over from the threaded server (same test suite runs
against both): ``max_connections`` 503s, ``/healthz``, per-request
admission shedding with ``Retry-After``/``X-Shed-Reason``, 413/400/408
error replies, ``idle_timeout_s`` (here measured from the last message
*boundary*, so byte-at-a-time slowloris headers are evicted too), and
``close(drain_s=...)`` graceful drain with zero resets.

Requires ``select.epoll`` (Linux): elsewhere the constructor raises
``RuntimeError`` and :func:`~repro.http11.server.default_concurrency`
picks the threaded server.
"""

from __future__ import annotations

import collections
import os
import select
import socket
import threading
import time
from itertools import islice
from typing import Deque, Dict, List, Optional, Set

from .errors import HttpParseError, HttpTooLarge
from .messages import (LAST_CHUNK, Request,
                       RequestParser, Response, consume_views, encode_chunk,
                       wire_buffers)
from .server import Handler, _ServerCore, set_reuse_port

_IN = getattr(select, "EPOLLIN", 0x001)
_OUT = getattr(select, "EPOLLOUT", 0x004)
_ONESHOT = getattr(select, "EPOLLONESHOT", 1 << 30)
#: event bits that send the owner to ``recv`` (EOF and errors surface there)
_READ = _IN | getattr(select, "EPOLLHUP", 0x010) | getattr(select,
                                                           "EPOLLERR", 0x008)
#: sendmsg scatter-gather batch bound (IOV_MAX is 1024 on Linux; 64 keeps
#: each syscall's setup cost trivial while still batching a whole burst).
_SENDMSG_BATCH = 64

# Ownership of a registered fd.  Transitions happen under ``_lock``;
# only the owner (or whoever claims an ARMED/WAITING source) touches it.
_ARMED = 0     # in the epoll set, waiting for the kernel to wake a thread
_OWNED = 1     # held by exactly one thread
_WAITING = 2   # parked in the handler-slot FIFO
_CLOSED = 3


class _Source:
    """The listener or the fd-handoff receiver: claimed like a connection;
    ``ready()`` adopts what arrived and returns False once it is spent."""

    __slots__ = ("sock", "ready", "state")

    def __init__(self, sock: socket.socket, ready) -> None:
        self.sock = sock
        self.ready = ready
        self.state = _ARMED


class _Stream:
    """One in-flight streaming request (chunked body drained through the
    owner to a handler instead of buffering)."""

    __slots__ = ("handler", "keep_alive")

    def __init__(self, handler, keep_alive: bool) -> None:
        self.handler = handler
        self.keep_alive = keep_alive


class _Conn:
    """Connection state, touched only by the thread that owns it."""

    __slots__ = ("sock", "parser", "state", "next", "out", "out_bytes",
                 "queued", "answered", "boundary_at", "read_eof",
                 "stop_parsing", "close_when_flushed", "paused", "stream")

    def __init__(self, sock: socket.socket, parser: RequestParser,
                 now: float) -> None:
        self.sock = sock
        self.parser = parser
        self.state = _ARMED
        #: the request being answered, or waiting in the FIFO for a slot
        self.next: Optional[Request] = None
        #: buffers to write, in order (a partly sent one: its unsent tail)
        self.out: Deque = collections.deque()
        self.out_bytes = 0
        #: replies queued since the write queue was last empty
        self.queued = 0
        self.answered = False
        #: last message boundary: connect time, or the moment the last
        #: reply flushed.  The idle timer runs from here — receiving bytes
        #: does NOT reset it, which is what defeats slowloris trickling.
        self.boundary_at = now
        self.read_eof = False
        self.stop_parsing = False
        self.close_when_flushed = False
        self.paused = False
        #: active streaming request, or None (at most one per connection;
        #: it owns the wire until its terminal chunk goes out)
        self.stream: Optional[_Stream] = None

    def queue(self, payload: bytes) -> None:
        """Append ``payload`` itself to the write queue (no copy)."""
        if payload:
            self.out.append(payload)
            self.out_bytes += len(payload)

    def queue_response(self, response: Response) -> None:
        """Queue the response's (never empty) wire buffers: a cached
        payload reaches the kernel without being concatenated."""
        for buffer in wire_buffers(response):
            self.out.append(buffer)
            self.out_bytes += len(buffer)
        self.queued += 1
        self.answered = True


class ReactorHttpServer(_ServerCore):
    """Event-driven HTTP server: see the module docstring.

    ``options`` are the serving options both servers share
    (``max_connections``, ``retry_after_s``, ``admission``,
    ``load_coupling``, ``assume_synced_clock``, ``idle_timeout_s``,
    ``max_body_bytes``, ``max_header_bytes``, ``health_path``,
    ``metrics_path``, ``quality_stats``; see :mod:`repro.http11.server`).
    The reactor's own knobs:

    ``workers``
        Handler slots: how many turns may hold one at once (default 8).
        The server runs ``workers + 1`` threads.
        Request admission is still the ``admission`` controller's job.
    ``max_buffered_bytes``
        Per-connection cap on queued response bytes before reads pause.
    ``max_pipeline``
        Per-connection cap on unflushed replies before reads pause.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0, backlog: int = 128,
                 reuse_port: bool = False,
                 conn_receiver: Optional[socket.socket] = None,
                 listen: bool = True,
                 workers: int = 8,
                 max_buffered_bytes: int = 1 << 20,
                 max_pipeline: int = 128,
                 stream_routes: Optional[Dict[str, object]] = None,
                 **options) -> None:
        if not hasattr(select, "epoll"):
            raise RuntimeError(
                "ReactorHttpServer needs select.epoll, which this platform "
                "lacks; use concurrency='threaded'")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not listen and conn_receiver is None:
            raise ValueError(
                "listen=False requires a conn_receiver — a server with "
                "neither could never see a connection")
        super().__init__(handler, **options)
        self.workers = workers
        self.max_buffered_bytes = max_buffered_bytes
        self.max_pipeline = max_pipeline
        #: ``{target: factory}`` — requests to these paths arriving with
        #: ``Transfer-Encoding: chunked`` stream through the owner thread
        #: instead of buffering: ``factory(request)`` returns a handler
        #: with ``on_chunk(data) -> Optional[bytes]`` and ``finish() ->
        #: Optional[bytes]``; returned bytes go out as response chunks.
        #: Backpressure is the ordinary write-queue bound: when
        #: ``max_buffered_bytes`` of response chunks are queued, reads
        #: pause and TCP flow control holds the sender.
        self.stream_routes: Dict[str, object] = dict(stream_routes or {})
        # ``_lock`` guards the counters and, here, also ownership states,
        # ``_fds``, the handler slots and their FIFO, and the idle timer.
        self._free_slots = workers
        self._waiting: Deque[_Conn] = collections.deque()
        self._fds: Dict[int, object] = {}
        self._conns: Set[_Conn] = set()
        #: earliest idle deadline not yet scanned, or None
        self._next_timer_at: Optional[float] = None
        self._timer_lock = threading.Lock()
        self._closed = False
        self._epoll = select.epoll()
        # The self-pipe: a byte wakes a poller to re-read the timer; EOF
        # (close) keeps it readable, so every thread wakes and exits.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._wake_fd = self._wake_r.fileno()
        self._epoll.register(self._wake_fd, _IN)
        self._listener: Optional[_Source] = None
        if listen:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuse_port:
                set_reuse_port(sock)
            sock.bind((host, port))
            sock.listen(backlog)
            sock.setblocking(False)
            self.address = sock.getsockname()
            self._listener = _Source(sock, self._accept_ready)
            self._register(self._listener)
        #: fd-handoff accept path: connected sockets arrive over this unix
        #: socket (``socket.send_fds`` on the parent acceptor's side)
        #: instead of — or in addition to — the listener.
        self._receiver: Optional[_Source] = None
        if conn_receiver is not None:
            conn_receiver.setblocking(False)
            self._receiver = _Source(conn_receiver, self._handoff_ready)
            self._register(self._receiver)
        self._threads = [
            threading.Thread(target=self._loop, name=f"http-reactor-{i}",
                             daemon=True)
            for i in range(workers + 1)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # introspection (tests, bench, docs examples)
    # ------------------------------------------------------------------
    def connection_stats(self) -> List[Dict[str, object]]:
        """Point-in-time per-connection buffering/pipeline stats.

        Read without locking: the values are small ints, good enough for
        tests and the bench harness to assert backpressure bounds.
        """
        return [{"buffered_bytes": conn.out_bytes,
                 "pending": conn.queued + (conn.next is not None),
                 "paused": conn.paused}
                for conn in list(self._conns)]

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------
    def _register(self, source) -> None:
        """Put a new listener/receiver/connection into the epoll set."""
        fd = source.sock.fileno()
        with self._lock:
            live = self._running
            if live:
                self._fds[fd] = source
                self._epoll.register(fd, _IN | _ONESHOT)
                poke = (type(source) is _Conn
                        and self._arm_timer(source.boundary_at))
        if not live:
            self._drop(source)
        elif poke:
            self._poke()

    def _claim(self, source, waiting: bool = False) -> bool:
        """Take ownership of an ARMED (optionally also a WAITING) source."""
        with self._lock:
            if source.state is _ARMED or (waiting
                                          and source.state is _WAITING):
                if source.state is _WAITING:
                    self._waiting.remove(source)
                source.state = _OWNED
                return True
        return False

    def _arm_timer(self, boundary_at: float) -> bool:
        """Under ``_lock``: note an idle deadline; True if it moved the
        timer earlier (the caller then pokes a poller to re-read it)."""
        if self.idle_timeout_s is None:
            return False
        due = boundary_at + self.idle_timeout_s
        if self._next_timer_at is None or due < self._next_timer_at:
            self._next_timer_at = due
            return True
        return False

    def _poke(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass  # full (a poke is pending anyway), or shutting down

    def _take_slot(self, conn: _Conn, park: bool) -> bool:
        """A handler slot, FIFO-fair: never taken past a waiting
        connection.  With ``park`` a refused ``conn`` joins the FIFO."""
        with self._lock:
            if self._free_slots and not self._waiting:
                self._free_slots -= 1
                return True
            if park:
                conn.state = _WAITING
                self._waiting.append(conn)
        return False

    # ------------------------------------------------------------------
    # the loop every thread runs
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        fds = self._fds
        while self._running:
            # A slot frees only when a turn ends, and that thread comes
            # back here before it polls: no wake is needed.
            if self._waiting and self._free_slots:
                self._serve_waiters()
                continue
            due = self._next_timer_at
            timeout = -1 if due is None else max(0.0, due - time.monotonic())
            try:
                events = self._epoll.poll(timeout, 1)
            except (OSError, ValueError):
                continue  # EINTR, or the epoll closed under shutdown
            for fd, mask in events:
                source = fds.get(fd)
                if source is None:
                    if fd == self._wake_fd:
                        self._drain_wake()
                    continue  # the wake pipe, or a connection just closed
                # One section claims the connection and, when one is free
                # and nobody waits for it, a handler slot for the turn.
                with self._lock:
                    if source.state is not _ARMED:
                        continue  # stale event: another owner
                    source.state = _OWNED
                    slot = (self._free_slots > 0 and not self._waiting
                            and type(source) is _Conn)
                    if slot:
                        self._free_slots -= 1
                if type(source) is _Conn:
                    self._serve(source, mask, slot)
                else:
                    self._release_source(source, source.ready())
            due = self._next_timer_at
            if due is not None and time.monotonic() >= due:
                self._fire_timeouts()

    def _serve_waiters(self) -> None:
        """Hand free slots to parked connections, oldest first."""
        while True:
            with self._lock:
                if not self._waiting or not self._free_slots:
                    return
                conn = self._waiting.popleft()
                self._free_slots -= 1
                conn.state = _OWNED
            self._serve(conn, 0, True)

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass

    # ------------------------------------------------------------------
    # accept / reject
    # ------------------------------------------------------------------
    def _accept_ready(self) -> bool:
        listener = self._listener.sock
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:
                return True  # drained (EAGAIN), or a transient error
            self._adopt_socket(sock)

    def _handoff_ready(self) -> bool:
        """Adopt connected sockets handed over the fd-handoff channel.

        The parent acceptor sends each connection as one byte of payload
        plus the fd in ancillary data (``socket.send_fds``); EOF on the
        channel means the parent is gone — existing connections keep
        being served, but no new ones can arrive that way.
        """
        receiver = self._receiver.sock
        while True:
            try:
                msg, fds, _flags, _addr = socket.recv_fds(receiver, 64, 8)
            except (BlockingIOError, InterruptedError):
                return True
            except OSError:
                return False
            if not msg and not fds:
                return False
            for fd in fds:
                try:
                    sock = socket.socket(fileno=fd)
                except OSError:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                    continue
                self._adopt_socket(sock)

    def _release_source(self, source: _Source, keep: bool) -> None:
        with self._lock:
            keep = keep and self._running and not self._draining
            if keep:
                try:
                    self._epoll.modify(source.sock, _IN | _ONESHOT)
                    source.state = _ARMED
                except (OSError, ValueError):
                    keep = False
        if not keep:
            self._drop(source)

    def _adopt_socket(self, sock: socket.socket) -> None:
        """One accepted/handed-off connection enters the epoll set."""
        if not self._admit_connection(sock):
            return
        sock.setblocking(False)
        parser = RequestParser(
            max_header_bytes=self.max_header_bytes,
            max_body_bytes=self.max_body_bytes)
        if self.stream_routes:
            parser.stream_decider = self._stream_decider
        conn = _Conn(sock, parser, time.monotonic())
        self._conns.add(conn)
        self._register(conn)

    def _stream_decider(self, method: str, target: str, headers) -> bool:
        return target in self.stream_routes

    # ------------------------------------------------------------------
    # one owned turn: read, answer, write, re-arm
    # ------------------------------------------------------------------
    def _serve(self, conn: _Conn, mask: int, slot: bool) -> None:
        """One owned turn: read, answer every buffered request, count
        them, write the replies with one ``send``/``sendmsg``, re-arm.
        ``mask`` is the epoll event (0 from the slot FIFO); ``slot`` says
        whether the turn holds a handler slot."""
        if conn.out:
            self._flush(conn)
        # bytes after Connection: close / an error are never read
        if mask & _READ and conn.state is _OWNED and not conn.stop_parsing:
            try:
                if not conn.parser.read_from(conn.sock):
                    conn.read_eof = True
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._close_conn(conn)
        answered = self._answer(conn, slot)
        if answered is None:
            return  # parked: the FIFO owns conn now
        served, slot = answered
        if served:
            # counted before a reply leaves, so a scrape sent after any
            # reply arrived counts it
            with self._lock:
                self.requests_served += served
        self._release(conn, slot)

    def _answer(self, conn: _Conn, slot: bool):
        """Queue a reply for every buffered request, in order; returns
        ``(served, slot)``, or ``None`` once ``conn`` is parked in the slot
        FIFO.  A slot serves the rest of a burst unless another connection
        waits for one: then it goes back after each request."""
        parser = conn.parser
        served = 0
        while conn.state is _OWNED:
            if conn.out and (conn.out_bytes > self.max_buffered_bytes
                             or conn.queued >= self.max_pipeline):
                self._flush(conn)
                if conn.out:
                    break  # the kernel is full: wait for EPOLLOUT
                continue
            if conn.stream is not None:
                if not self._pump_stream(conn):
                    break  # more body to come (or the stream failed)
                served += 1
                continue
            request = conn.next
            if request is None:
                if conn.stop_parsing or not parser.mid_message:
                    break  # nothing (more) to parse
                try:
                    request = parser.next_request()
                except HttpTooLarge as exc:
                    self._fail_conn(conn, Response.text(413, str(exc)))
                    break
                except HttpParseError as exc:
                    self._fail_conn(conn,
                                    Response.text(400, f"bad request: {exc}"))
                    break
                if request is None:
                    break
                if request.streaming:
                    self._start_stream(conn, request)
                    continue
                conn.next = request
            # /healthz and /metrics take no slot: readiness and scrapes
            # answer even when every handler slot is taken.
            if not slot and request.target not in (self.health_path,
                                                   self.metrics_path):
                if not self._take_slot(conn, park=False):
                    # Earlier replies go out, counted, before it waits.
                    self._settle(served, False)
                    served = 0
                    self._flush(conn)
                    if conn.state is not _OWNED:
                        break
                    if not self._take_slot(conn, park=True):
                        return None
                slot = True
            try:
                response = self._respond(request)
            except Exception as exc:  # noqa: BLE001 - last-ditch boundary
                response = Response.text(500, f"internal error: {exc}")
            conn.next = None
            if not request.wants_keep_alive() or self._draining:
                response.headers.set("Connection", "close")
                # RFC 9112: requests pipelined after Connection: close
                # are not to be processed.
                conn.stop_parsing = conn.close_when_flushed = True
            conn.queue_response(response)
            served += 1
            if slot and self._waiting:
                self._settle(0, True)
                slot = False
        return served, slot

    def _settle(self, served: int, slot: bool) -> None:
        """Count requests served and hand back a handler slot."""
        with self._lock:
            self.requests_served += served
            if slot:
                self._free_slots += 1

    def _fail_conn(self, conn: _Conn, response: Response) -> None:
        """Queue a protocol-error reply (400/413/408/500) after every
        earlier reply, then close; it does not count as served."""
        response.headers.set("Connection", "close")
        conn.queue_response(response)
        conn.stop_parsing = conn.close_when_flushed = True

    def _release(self, conn: _Conn, slot: bool = False) -> None:
        """Write what is queued, then hand ``conn`` back to epoll — or close
        it — in the lock section that also returns the turn's slot."""
        if conn.out and conn.state is _OWNED:
            self._flush(conn)
        if conn.state is not _OWNED:
            if slot:
                self._settle(0, True)
            return
        if conn.out:
            paused = conn.paused = (conn.out_bytes > self.max_buffered_bytes
                                    or conn.queued >= self.max_pipeline)
            mask, idle, keep = _OUT, False, True
        else:
            paused = conn.paused = False
            mask = 0
            idle = conn.next is None and conn.stream is None
            keep = not (conn.close_when_flushed or conn.read_eof)
        if not (paused or conn.read_eof or conn.stop_parsing):
            mask |= _IN
        # the idle timer covers everything with nothing queued
        timed = idle and self.idle_timeout_s is not None
        if timed and conn.answered:
            conn.answered = False
            conn.boundary_at = time.monotonic()
        poke = False
        with self._lock:
            if slot:
                self._free_slots += 1
            keep = keep and self._running and not (self._draining and idle)
            if keep:
                try:
                    self._epoll.modify(conn.sock, mask | _ONESHOT)
                    conn.state = _ARMED
                except (OSError, ValueError):
                    keep = False
                poke = keep and timed and self._arm_timer(conn.boundary_at)
        if not keep:
            self._close_conn(conn)
        elif poke:
            self._poke()

    # ------------------------------------------------------------------
    # streaming routes (chunked bodies drained by the owner)
    # ------------------------------------------------------------------
    def _start_stream(self, conn: _Conn, request: Request) -> None:
        """Write the chunked response head and begin draining the body.

        Every earlier pipelined reply is already queued.  The stream
        handler runs on the owner thread without a handler slot: its
        per-chunk work is expected to be cheap — the heavy lifting is
        exactly what streaming avoids: buffering.
        """
        try:
            handler = self.stream_routes[request.target](request)
        except Exception as exc:  # noqa: BLE001 - handler boundary
            # Head not sent yet: a normal error response is still possible.
            self._fail_conn(conn,
                            Response.text(500, f"stream setup failed: {exc}"))
            return
        keep_alive = request.wants_keep_alive() and not self._draining
        conn.stream = _Stream(handler, keep_alive)
        with self._lock:
            self.chunked_requests += 1
        content_type = getattr(handler, "content_type",
                               "application/octet-stream")
        head = (f"HTTP/1.1 200 OK\r\n"
                f"Transfer-Encoding: chunked\r\n"
                f"Content-Type: {content_type}\r\n")
        if not keep_alive:
            head += "Connection: close\r\n"
        conn.queue((head + "\r\n").encode("latin-1"))

    def _pump_stream(self, conn: _Conn) -> bool:
        """Drain buffered body bytes into the handler and its output onto
        the wire.  True once the terminal chunk is queued; False while
        more body is due, or after a failure closed the connection."""
        stream = conn.stream
        try:
            data, done = conn.parser.drain_body()
        except (HttpParseError, HttpTooLarge):
            # Framing lost mid-stream and the 200 head is already out —
            # the truncated chunked body tells the client the response
            # is bad; all we can do is hang up.
            self._close_conn(conn)
            return False
        try:
            out = stream.handler.on_chunk(data) if data else None
            tail = stream.handler.finish() if done else None
        except Exception:  # noqa: BLE001 - handler boundary, head is out
            self._close_conn(conn)
            return False
        if data:
            conn.boundary_at = time.monotonic()  # body progress != idle
        produced = 0
        if out:
            produced += len(out)
            conn.queue(encode_chunk(out))
        if done:
            if tail:
                produced += len(tail)
                conn.queue(encode_chunk(tail) + LAST_CHUNK)
            else:
                conn.queue(LAST_CHUNK)
            conn.stream = None
            conn.answered = True
            if not stream.keep_alive:
                conn.stop_parsing = conn.close_when_flushed = True
        with self._lock:
            self.streamed_bytes_in += len(data)
            self.streamed_bytes_out += produced
        return done

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _flush(self, conn: _Conn) -> None:
        sock = conn.sock
        out = conn.out
        while out:
            try:
                if len(out) > 1:
                    sent = sock.sendmsg(islice(out, _SENDMSG_BATCH))
                else:
                    sent = sock.send(out[0])
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._close_conn(conn)
                return
            conn.out_bytes -= sent
            if not conn.out_bytes:
                out.clear()             # the usual case: all of it went
                break
            consume_views(out, sent)
        conn.queued = 0

    # ------------------------------------------------------------------
    # timeouts
    # ------------------------------------------------------------------
    def _fire_timeouts(self) -> None:
        """Expire idle connections; one thread scans, the rest poll on."""
        if not self._timer_lock.acquire(blocking=False):
            return
        try:
            with self._lock:
                self._next_timer_at = None  # releases during the scan re-arm
            now = time.monotonic()
            nearest: Optional[float] = None
            for conn in list(self._conns):
                if (conn.state is not _ARMED or conn.out
                        or conn.next is not None):
                    continue  # not idle: its owner re-arms the timer
                due = conn.boundary_at + self.idle_timeout_s
                if due > now:
                    nearest = due if nearest is None else min(nearest, due)
                elif self._claim(conn):
                    if conn.parser.mid_message and conn.stream is None:
                        # A timeout mid-request earns a 408; silence
                        # between requests (or a stalled stream whose 200
                        # is already out) is just a hang-up.
                        self._fail_conn(conn,
                                        Response.text(408, "request timeout"))
                        self._release(conn)
                    else:
                        self._close_conn(conn)
            if nearest is not None:
                with self._lock:
                    if (self._next_timer_at is None
                            or nearest < self._next_timer_at):
                        self._next_timer_at = nearest
        finally:
            self._timer_lock.release()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _drop(self, source) -> None:
        """Close a source its caller owns (or that never got registered)."""
        with self._lock:
            source.state = _CLOSED
            fd = source.sock.fileno()
            if self._fds.get(fd) is source:
                del self._fds[fd]
        try:
            self._epoll.unregister(source.sock)
        except (KeyError, ValueError, OSError):
            pass  # never registered, or the epoll is already closed
        try:
            source.sock.close()
        except OSError:
            pass

    def _close_conn(self, conn: _Conn) -> None:
        if conn.state is _CLOSED:
            return
        self._drop(conn)
        self._conns.discard(conn)
        with self._idle_cond:
            self._active_connections -= 1
            self._idle_cond.notify_all()

    def _begin_drain(self) -> None:
        """Stop accepting and hang up idle keep-alive connections; busy
        ones close after their in-flight replies (see ``_release``)."""
        for source in (self._listener, self._receiver):
            if source is not None and self._claim(source):
                self._drop(source)
        for conn in list(self._conns):
            if self._claim(conn):
                self._release(conn)

    def _teardown(self) -> None:
        """Close every source no thread owns; a thread still inside a
        handler closes its own connection when it returns."""
        for source in list(self._fds.values()):
            if self._claim(source, waiting=True):
                if type(source) is _Conn:
                    self._close_conn(source)
                else:
                    self._drop(source)
        self._epoll.close()
        for sock in (self._wake_r, self._wake_w):
            sock.close()

    def close(self, drain_s: Optional[float] = None) -> None:
        """Stop the server (same contract as the threaded server).

        ``drain_s=None`` is an immediate shutdown: every thread leaves its
        loop and every socket closes.  With a drain bound: stop accepting
        and report not-ready, hang up idle keep-alive connections, let
        every in-flight/pipelined request finish with ``Connection:
        close``, and wait up to ``drain_s`` seconds before tearing down
        the rest.
        """
        if self._closed:
            return
        self._closed = True
        if drain_s is not None:
            self._draining = True
            self._begin_drain()
            self._wait_idle(drain_s)
        self._running = False
        try:
            self._wake_w.shutdown(socket.SHUT_WR)  # EOF wakes every poller
        except OSError:
            pass
        # Wait until every thread still alive is one inside a handler:
        # those are past their claim, so teardown cannot race them.
        deadline = time.monotonic() + 5.0
        for thread in self._threads:
            while (thread.is_alive() and time.monotonic() < deadline
                   and sum(t.is_alive() for t in self._threads)
                   > self.workers - self._free_slots):
                thread.join(0.01)
        self._teardown()
