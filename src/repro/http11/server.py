"""The HTTP/1.1 serving core: everything above the socket.

The server is handler-driven: you give it a callable
``handler(Request) -> Response`` and it owns sockets, keep-alive and error
responses.  The SOAP and SOAP-bin services plug their dispatchers in here.

:class:`_ServerCore` holds the configuration, counters and request-level
behaviour; :class:`~repro.http11.reactor.ReactorHttpServer` owns the
sockets (``workers + 1`` threads over one ``epoll`` set) and is the one
server, built by :func:`~repro.http11.reactor.HttpServer`.

Overload protection (see ``docs/overload.md`` and
``docs/serving-reactor.md``):

* ``max_connections`` caps live connections (connection-level 503);
* ``admission`` (an :class:`~repro.serving.admission.AdmissionController`)
  gates every parsed *request*, sheds with ``503`` + ``Retry-After`` +
  ``X-Shed-Reason``, and honors the client's ``X-Deadline-Ms`` budget;
* ``load_coupling`` (a :class:`~repro.serving.coupling.LoadQualityCoupling`)
  takes a load reading after every request;
* ``idle_timeout_s`` bounds silent keep-alive clients and byte-at-a-time
  slowloris headers — the timer runs from the last message boundary, not
  the last byte;
* ``max_body_bytes`` / ``max_header_bytes`` per-server size limits
  (413 replies name the limit);
* ``GET /healthz`` answers readiness with a JSON load snapshot without
  touching the application handler;
* ``GET /metrics`` answers the same counters in Prometheus text
  exposition format (see :mod:`repro.http11.metrics` and
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
import socket
import threading
import time
from typing import Callable, Dict, Optional, TYPE_CHECKING, Tuple

from .deadline import HEADER_DEADLINE_MS, deadline_from_headers
from .messages import (MAX_BODY_BYTES, MAX_HEADER_BYTES, Request,
                       Response, etag_matches)
from .metrics import CONTENT_TYPE, render_server_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serving.admission import AdmissionController
    from ..serving.coupling import LoadQualityCoupling

Handler = Callable[[Request], Response]


def set_reuse_port(sock: socket.socket) -> None:
    """Enable ``SO_REUSEPORT`` on ``sock`` (before bind), or raise.

    Every socket sharing the port must set the option before binding —
    this is how a :class:`~repro.serving.fleet.FleetServer` worker joins
    the kernel's accept-balancing group.  Without the option a clear
    ``OSError`` names it: the fleet needs Linux.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        raise OSError(
            "SO_REUSEPORT is not available on this platform; the fleet "
            "needs Linux")
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)


class _ServerCore:
    """Configuration, counters and request-level behaviour of the server.

    The subclass owns the sockets; everything above the socket — health,
    admission, deadline shedding, load coupling, the application dispatch
    boundary — lives here.
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
    # request-level behaviour
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
        """The connection-cap 503 (no handler, no handler slot)."""
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
