"""HTTP/1.1 servers: a shared serving core with two concurrency models.

The server is handler-driven: you give it a callable
``handler(Request) -> Response`` and it owns sockets, keep-alive and error
responses.  The SOAP and SOAP-bin services plug their dispatchers in here.

Two concurrency models share one behavioural contract (`_ServerCore`):

* :class:`ThreadedHttpServer` — the historical thread-per-connection
  model: simple, but at keep-alive scale every idle client pins a thread;
* :class:`~repro.http11.reactor.ReactorHttpServer` — an event-driven
  core: ``workers + 1`` threads share one ``epoll`` set, and the thread
  woken for a connection owns it from read through handler to write
  (incremental request parsing, HTTP/1.1 pipelining, write-queue
  backpressure), so 10k idle connections cost file descriptors, not
  threads.

:func:`HttpServer` is the factory both run behind: pass
``concurrency="threaded"`` or ``"reactor"`` (default: the
``REPRO_HTTP_CONCURRENCY`` environment variable, else ``"reactor"``).

Overload protection carries over identically in both models (see
``docs/overload.md`` and ``docs/serving-reactor.md``):

* ``max_connections`` caps live connections (connection-level 503);
* ``admission`` (an :class:`~repro.serving.admission.AdmissionController`)
  gates every parsed *request*, sheds with ``503`` + ``Retry-After`` +
  ``X-Shed-Reason``, and honors the client's ``X-Deadline-Ms`` budget;
* ``load_coupling`` (a :class:`~repro.serving.coupling.LoadQualityCoupling`)
  takes a load reading after every request;
* ``idle_timeout_s`` bounds silent keep-alive clients (and, on the
  reactor, byte-at-a-time slowloris headers — the timer runs from the
  last message boundary, not the last byte);
* ``max_body_bytes`` / ``max_header_bytes`` per-server size limits
  (413 replies name the limit);
* ``GET /healthz`` answers readiness with a JSON load snapshot without
  touching the application handler;
* ``GET /metrics`` answers the same counters in Prometheus text
  exposition format (see :mod:`repro.serving.metrics` and
  ``docs/observability.md``) — also ahead of admission, so scrapes keep
  working while the server sheds;
* ``close(drain_s=...)`` drains gracefully: stop accepting, mark
  not-ready, answer in-flight requests with ``Connection: close``, and
  bound the wait for the last worker.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import threading
import time
from typing import Callable, Dict, Optional, TYPE_CHECKING, Tuple

from ..serving.deadline import HEADER_DEADLINE_MS, deadline_from_headers
from .errors import HttpConnectionClosed, HttpParseError, HttpTooLarge
from .messages import (MAX_BODY_BYTES, MAX_HEADER_BYTES, Request,
                       RequestParser, Response, etag_matches, send_gather,
                       wire_buffers)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serving.admission import AdmissionController
    from ..serving.coupling import LoadQualityCoupling

Handler = Callable[[Request], Response]

#: Environment variable selecting the default concurrency model.
CONCURRENCY_ENV = "REPRO_HTTP_CONCURRENCY"
_CONCURRENCY_MODES = ("threaded", "reactor")


def supports_reuse_port() -> bool:
    """Whether this platform can load-balance accepts via ``SO_REUSEPORT``."""
    return hasattr(socket, "SO_REUSEPORT")


def set_reuse_port(sock: socket.socket) -> None:
    """Enable ``SO_REUSEPORT`` on ``sock`` (before bind), or raise.

    Every socket sharing the port must set the option before binding —
    this is how a :class:`~repro.serving.fleet.FleetServer` worker joins
    the kernel's accept-balancing group.  On platforms without the option
    (old kernels, some BSDs behind different constants) a clear ``OSError``
    names the fd-handoff fallback.
    """
    if not supports_reuse_port():
        raise OSError(
            "SO_REUSEPORT is not available on this platform; use the "
            "fleet's fd-handoff mode (mode='handoff') instead")
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)


def default_concurrency() -> str:
    """The concurrency model :func:`HttpServer` uses when not told.

    An unset (or blank) ``REPRO_HTTP_CONCURRENCY`` means ``"reactor"`` —
    or ``"threaded"`` where ``select.epoll``, which the reactor needs, is
    missing; a set-but-unrecognized value is a configuration error and
    raises — a typo like ``REPRO_HTTP_CONCURRENCY=reactr`` silently
    falling back to the default is exactly how a deployment ends up
    benchmarking the wrong server.
    """
    raw = os.environ.get(CONCURRENCY_ENV)
    if raw is None or not raw.strip():
        return "reactor" if hasattr(select, "epoll") else "threaded"
    mode = raw.strip().lower()
    if mode not in _CONCURRENCY_MODES:
        raise ValueError(
            f"{CONCURRENCY_ENV}={raw!r} is not a recognized concurrency "
            f"model: choose one of {_CONCURRENCY_MODES}")
    return mode


class _ServerCore:
    """Configuration, counters and request-level behaviour shared by the
    threaded and reactor servers.

    Subclasses own the sockets; everything above the socket — health,
    admission, deadline shedding, load coupling, the application dispatch
    boundary — lives here so both models answer identically.
    """

    def __init__(self, handler: Handler,
                 max_connections: Optional[int] = None,
                 retry_after_s: float = 1.0,
                 admission: Optional["AdmissionController"] = None,
                 load_coupling: Optional["LoadQualityCoupling"] = None,
                 assume_synced_clock: bool = False,
                 idle_timeout_s: Optional[float] = None,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 max_header_bytes: int = MAX_HEADER_BYTES,
                 health_path: str = "/healthz",
                 metrics_path: str = "/metrics",
                 quality_stats: Optional[
                     Callable[[], Optional[Dict[str, object]]]] = None) -> None:
        self.handler = handler
        #: optional callable returning the application's quality snapshot
        #: (e.g. ``SoapBinService.quality_stats``) surfaced in ``/healthz``
        self.quality_stats = quality_stats
        self.max_connections = max_connections
        self.retry_after_s = max(0.0, retry_after_s)
        self.admission = admission
        self.load_coupling = load_coupling
        self.assume_synced_clock = assume_synced_clock
        self.idle_timeout_s = idle_timeout_s
        self.max_body_bytes = max_body_bytes
        self.max_header_bytes = max_header_bytes
        self.health_path = health_path
        self.metrics_path = metrics_path
        self._running = True
        self._draining = False
        #: number of sibling worker processes sharing this server's port —
        #: 1 for a standalone server; a :class:`~repro.serving.fleet.
        #: FleetServer` sets the fleet size on each worker so ``/healthz``
        #: distinguishes fleet from single-process mode.
        self.fleet_workers = 1
        #: worker index within the fleet (0 for a standalone server)
        self.fleet_index = 0
        self.requests_served = 0
        self.requests_shed = 0
        #: conditional requests answered header-only (endpoint-issued 304s
        #: and 200s the validator in :meth:`_respond` converted)
        self.responses_304 = 0
        self.connections_accepted = 0
        self.connections_rejected = 0
        #: requests whose body arrived as Transfer-Encoding: chunked
        #: (buffered or streamed)
        self.chunked_requests = 0
        #: decoded body bytes drained through reactor streaming routes
        self.streamed_bytes_in = 0
        #: response-chunk bytes produced by reactor streaming handlers
        self.streamed_bytes_out = 0
        self._active_connections = 0
        self._lock = threading.Lock()
        self._idle_cond = threading.Condition(self._lock)
        self.address: Tuple[str, int] = ("", 0)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def ready(self) -> bool:
        """Readiness for new work: accepting and not draining."""
        return self._running and not self._draining

    # ------------------------------------------------------------------
    # request-level behaviour (identical in both concurrency models)
    # ------------------------------------------------------------------
    def _respond(self, request: Request) -> Response:
        """Health and metrics targets, else the admission gate around the
        handler; then the validator: a ``GET``/``HEAD`` ``200`` whose
        ``ETag`` the request's ``If-None-Match`` holds becomes a header-only
        ``304`` (RFC 9110 scopes it to GET/HEAD; the SOAP-bin service emits
        its conditional-POST 304s itself, see ``docs/caching.md``), with
        ``Content-Length: 0`` to keep keep-alive framing exact."""
        if "Transfer-Encoding" in request.headers:
            with self._lock:
                self.chunked_requests += 1
        target = request.target
        admission = self.admission
        if target == self.health_path:
            response = self._health_response()
        elif target == self.metrics_path:
            response = self._metrics_response()
        else:
            decision = None
            if admission is not None:
                deadline = None
                if HEADER_DEADLINE_MS in request.headers:
                    deadline = deadline_from_headers(
                        request.fields(), admission.clock.now(),
                        assume_synced_clock=self.assume_synced_clock)
                decision = admission.acquire(deadline=deadline)
            if decision is None or decision.admitted:
                try:
                    response = self.handler(request)
                except Exception as exc:  # noqa: BLE001 - server boundary
                    response = Response.text(500, f"internal error: {exc}")
                finally:
                    if decision is not None:
                        admission.release(decision.ticket)
            else:
                with self._lock:
                    self.requests_shed += 1
                response = self._shed_response(decision.reason
                                               or "overloaded")
            if decision is not None and self.load_coupling is not None:
                self.load_coupling.observe()
        status = response.status
        if status == 200 and request.method in ("GET", "HEAD"):
            etag = response.headers.get("ETag")
            if etag is not None and etag_matches(
                    request.headers.get("If-None-Match"), etag):
                headers = response.headers
                headers.remove("Content-Length")
                response = Response(status=304, headers=headers, body=b"",
                                    version=response.version)
                status = 304
        if status == 304:
            with self._lock:
                self.responses_304 += 1
        return response

    def _health_payload(self) -> Dict[str, object]:
        """The load snapshot the health endpoint serves as JSON.

        One probe answers both questions a load balancer (or the bench
        harness) asks: *may I send traffic here* (``state``) and *how
        loaded is it* (active/queued counts, utilization, p95 service
        time from the admission controller when one is installed).
        """
        state = ("ready" if self.ready
                 else "draining" if self._draining else "closed")
        with self._lock:
            payload: Dict[str, object] = {
                "state": state,
                "pid": os.getpid(),
                "workers": self.fleet_workers,
                "connections_active": self._active_connections,
                "requests_served": self.requests_served,
                "requests_shed": self.requests_shed,
                "responses_304": self.responses_304,
            }
        if self.quality_stats is not None:
            try:
                payload["quality"] = self.quality_stats()
            except Exception:  # noqa: BLE001 - health must never 500
                payload["quality"] = None
        if self.admission is not None:
            snap = self.admission.snapshot()
            payload.update({
                "active": snap["busy"],
                "queued": snap["queue_depth"],
                "utilization": round(float(snap["utilization"]), 6),
                "p95_service_s": round(float(snap["p95_service_s"]), 6),
                "shed_total": snap["shed_total"],
            })
        else:
            payload.update({"active": None, "queued": 0,
                            "utilization": None, "p95_service_s": None,
                            "shed_total": self.requests_shed})
        return payload

    def _health_response(self) -> Response:
        body = json.dumps(self._health_payload(),
                          sort_keys=True).encode("utf-8")
        response = Response(status=200 if self.ready else 503, body=body)
        response.headers.set("Content-Type", "application/json")
        if not self.ready:
            response.headers.set("Retry-After",
                                 str(int(math.ceil(self.retry_after_s))))
        return response

    def _metrics_response(self) -> Response:
        """Prometheus text exposition of the server's counters.

        Served from the shared request path — before admission, like
        ``/healthz`` — because a scrape must keep answering precisely
        while the server sheds.  Never 500s: a collection failure
        degrades to an empty exposition with an ``X-Metrics-Error``
        header rather than failing the probe.
        """
        from ..serving.metrics import CONTENT_TYPE, render_server_metrics
        error = None
        try:
            body = render_server_metrics(self)
        except Exception as exc:  # noqa: BLE001 - scrape must never 500
            body, error = b"", exc
        response = Response(status=200, body=body)
        response.headers.set("Content-Type", CONTENT_TYPE)
        if error is not None:
            response.headers.set("X-Metrics-Error",
                                 f"{type(error).__name__}: {error}")
        return response

    def _shed_response(self, reason: str) -> Response:
        response = Response.text(503, f"overloaded: {reason}")
        retry_after = max(self.retry_after_s,
                          self.admission.retry_after_s
                          if self.admission is not None else 0.0)
        response.headers.set("Retry-After", str(int(math.ceil(retry_after))))
        response.headers.set("X-Shed-Reason", reason)
        return response

    def _reject_response(self) -> Response:
        """The connection-cap 503 (no handler, no thread, no reactor slot)."""
        response = Response.text(503, "connection limit reached")
        response.headers.set("Connection", "close")
        # RFC 9110 Retry-After is integer delay-seconds; round up so a
        # client honoring it never comes back while we are still over cap.
        response.headers.set("Retry-After",
                             str(int(math.ceil(self.retry_after_s))))
        return response

    def _admit_connection(self, sock: socket.socket) -> bool:
        """Count a new connection; past ``max_connections`` answer the
        connection-cap 503 and close it.  Nagle goes off first: with small
        request/response pairs, delayed ACKs would cost ~40 ms per call."""
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        with self._lock:
            self.connections_accepted += 1
            admitted = (self.max_connections is None
                        or self._active_connections < self.max_connections)
            if admitted:
                self._active_connections += 1
            else:
                self.connections_rejected += 1
        if not admitted:
            # ~120 bytes always fit a fresh socket's send buffer
            try:
                sock.sendall(self._reject_response().to_bytes())
            except OSError:
                pass
            sock.close()
        return admitted

    def _wait_idle(self, drain_s: float) -> None:
        """Wait up to ``drain_s`` seconds for the last connection to end."""
        deadline = time.monotonic() + max(0.0, drain_s)
        with self._idle_cond:
            while self._active_connections > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._idle_cond.wait(remaining)

    def __enter__(self) -> "_ServerCore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self, drain_s: Optional[float] = None) -> None:
        raise NotImplementedError  # pragma: no cover - abstract


class ThreadedHttpServer(_ServerCore):
    """The thread-per-connection HTTP server.

    Usage::

        def handler(request):
            return Response(status=200, body=b"hi")

        with ThreadedHttpServer(handler) as server:
            ...  # server.address is (host, port)

    ``max_connections`` bounds the thread-per-connection growth: beyond the
    cap new connections are answered immediately with ``503 Service
    Unavailable`` (``Connection: close`` and a ``Retry-After`` of
    ``retry_after_s`` seconds) instead of spawning a thread, so a client
    stampede degrades loudly rather than exhausting the process.  ``None``
    (the default) keeps the historical unbounded behaviour.

    The reactor-only tuning knobs (``workers``, ``max_buffered_bytes``,
    ``max_pipeline``, ``stream_routes``) are accepted and ignored so both
    servers can be constructed with one argument set.  Chunked request
    bodies are still decoded here — they are just buffered whole and
    dispatched normally; incremental streaming is the reactor's feature.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0, backlog: int = 32,
                 reuse_port: bool = False,
                 conn_receiver: Optional[socket.socket] = None,
                 listen: bool = True,
                 workers: int = 8,
                 max_buffered_bytes: int = 1 << 20,
                 max_pipeline: int = 128,
                 stream_routes: Optional[Dict[str, object]] = None,
                 **options) -> None:
        if conn_receiver is not None or not listen:
            raise ValueError(
                "the fd-handoff accept path (conn_receiver/listen=False) "
                "requires the reactor server; use concurrency='reactor'")
        super().__init__(handler, **options)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            set_reuse_port(self._sock)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self.address = self._sock.getsockname()
        #: open connection sockets -> True while a request is mid-dispatch
        self._connections: Dict[socket.socket, bool] = {}
        self._thread = threading.Thread(target=self._accept_loop,
                                        name="http-server", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            if not self._admit_connection(conn):
                continue
            with self._lock:
                self._connections[conn] = False
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            self._serve_connection_inner(conn)
        finally:
            with self._idle_cond:
                self._active_connections -= 1
                self._connections.pop(conn, None)
                self._idle_cond.notify_all()

    def _serve_connection_inner(self, conn: socket.socket) -> None:
        parser = RequestParser(max_header_bytes=self.max_header_bytes,
                               max_body_bytes=self.max_body_bytes)
        if self.idle_timeout_s is not None:
            conn.settimeout(self.idle_timeout_s)
        with conn:
            while self._running:
                try:
                    request = parser.read_message(conn)
                except HttpConnectionClosed:
                    return
                except HttpTooLarge as exc:
                    self._safe_send(conn, Response.text(413, str(exc)))
                    return
                except TimeoutError:
                    # Dead or dawdling keep-alive client: release the
                    # worker thread instead of pinning it forever.  A
                    # timeout mid-request earns a 408; silence between
                    # requests is just a quiet hang-up.
                    if parser.mid_message:
                        self._safe_send(
                            conn, Response.text(408, "request timeout"))
                    return
                except HttpParseError as exc:
                    self._safe_send(conn,
                                    Response.text(400, f"bad request: {exc}"))
                    return
                except OSError:
                    # Socket torn down under us (peer reset, or drain
                    # closed an idle connection) — nothing to answer.
                    return
                # mid-dispatch: a drain leaves this connection be (a value
                # store, which never resizes the dict drain iterates)
                self._connections[conn] = True
                try:
                    response = self._respond(request)
                finally:
                    self._connections[conn] = False
                keep_alive = request.wants_keep_alive() and not self._draining
                if not keep_alive:
                    response.headers.set("Connection", "close")
                with self._lock:
                    self.requests_served += 1
                if not self._safe_send(conn, response):
                    return
                if not keep_alive:
                    return

    @staticmethod
    def _safe_send(conn: socket.socket, response: Response) -> bool:
        try:
            for _ in send_gather(conn, *wire_buffers(response)):
                pass
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    def close(self, drain_s: Optional[float] = None) -> None:
        """Stop the server.

        ``drain_s=None`` keeps the historical immediate shutdown.  With a
        drain bound the server: (1) stops accepting and reports not-ready
        on the health path, (2) lets every in-flight request finish and
        marks its reply ``Connection: close``, (3) hangs up idle
        keep-alive connections, and (4) waits up to ``drain_s`` seconds
        for the last connection before returning.  In-flight work is never
        reset while the bound holds.
        """
        if drain_s is None:
            self._running = False
            self._close_listener()
            return
        self._draining = True
        self._close_listener()
        self._close_idle_connections()
        self._wait_idle(drain_s)
        self._running = False
        # Anything still open after the bound is abandoned ungracefully.
        self._close_idle_connections(force=True)

    def _close_listener(self) -> None:
        # shutdown() before close(): a thread blocked in accept() holds a
        # kernel reference to the listening socket, so close() alone would
        # leave the port accepting until the next connection arrives.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def _close_idle_connections(self, force: bool = False) -> None:
        """Hang up connections with no request mid-dispatch.

        With ``force=True`` even busy connections are torn down — only
        used after the drain bound has expired.
        """
        with self._lock:
            victims = [conn for conn, busy in self._connections.items()
                       if force or not busy]
        for conn in victims:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass


def HttpServer(handler: Handler, host: str = "127.0.0.1", port: int = 0,
               backlog: int = 32, concurrency: Optional[str] = None,
               **options) -> _ServerCore:
    """Build an HTTP server with the selected concurrency model.

    ``concurrency`` is ``"threaded"`` (one thread per connection),
    ``"reactor"`` (``workers + 1`` threads over one epoll set), or
    ``None`` to use :func:`default_concurrency` (the
    ``REPRO_HTTP_CONCURRENCY`` environment variable, falling back to
    ``"reactor"`` where epoll exists).  Both models
    honour the same protection contract; the reactor additionally
    supports HTTP/1.1 pipelining and holds idle keep-alive connections
    for the price of a file descriptor instead of a thread.

    ``options`` are the keyword arguments both server classes take (see
    :class:`ThreadedHttpServer` and
    :class:`~repro.http11.reactor.ReactorHttpServer`).  ``reuse_port``
    binds the listener with ``SO_REUSEPORT`` so several processes can
    accept on one port (the fleet's scale-out mechanism);
    ``conn_receiver``/``listen=False`` select the reactor-only fd-handoff
    accept path — see :mod:`repro.serving.fleet`.
    """
    mode = (concurrency or default_concurrency()).strip().lower()
    if mode not in _CONCURRENCY_MODES:
        raise ValueError(
            f"concurrency must be one of {_CONCURRENCY_MODES}, "
            f"not {mode!r}")
    if mode == "threaded":
        cls = ThreadedHttpServer
    else:
        from .reactor import ReactorHttpServer
        cls = ReactorHttpServer
    return cls(handler, host=host, port=port, backlog=backlog, **options)
