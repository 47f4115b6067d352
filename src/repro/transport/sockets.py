"""Real-socket transport: the one Channel over HTTP/1.1.

:class:`HttpChannel` runs its calls under an optional
:class:`~repro.reliability.policy.RetryPolicy` (plus an optional
:class:`~repro.reliability.breaker.CircuitBreaker`): pass ``retry_policy=``
and transient transport faults — stale sockets, refused connects, 503
shedding from ``HttpServer(max_connections=...)`` — are classified, retried
within the policy's deadline budget, and surfaced as typed
:class:`~repro.reliability.errors.ReliabilityError` instead of bare
``OSError``.  The knobs are bound into one
:class:`~repro.reliability.policy.RetryEngine` at construction — the same
engine :class:`~repro.reliability.channel.ReliableChannel` uses.  Without a
policy a failed call raises the exception that broke the exchange.
"""

from __future__ import annotations

import threading
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..channel import (BatchHeaders, BatchResult, Channel, ChannelReply,
                       Endpoint, batch_headers)
from ..clock import Clock
from ..http11 import (Headers, HttpConnection, HttpConnectionPool,
                      HttpServer, PipelineError, Request, Response,
                      parse_address)
from ..reliability.breaker import CircuitBreaker
from ..reliability.errors import ReliabilityError
from ..reliability.policy import CallMeta, RetryEngine, RetryPolicy


def _to_reply(response: Response) -> ChannelReply:
    return ChannelReply(
        body=response.body,
        content_type=response.content_type,
        headers=response.headers.fields(),
        status=response.status,
    )


class HttpChannel(Channel):
    """A channel speaking HTTP POST over keep-alive connections.

    :meth:`call` takes a connection from an :class:`HttpConnectionPool` —
    ``pool=``, shared with other channels and threads, or one private to
    the channel that :meth:`close` closes — so TCP setup is paid once per
    pooled socket.  :meth:`call_many` pipelines a batch over the
    channel's own connections: contiguous chunks, one per connection
    (``connections``), each with up to ``depth`` requests in flight.
    With a ``retry_policy`` each retry round re-drives *only the
    sub-calls that failed* — the answered prefix of a broken pipeline is
    never re-sent — through the same
    :class:`~repro.reliability.policy.RetryEngine` rounds every policed
    call uses.  503 replies are retryable shedding under a policy and
    ordinary replies without one.

    ``timeout`` (or the policy's ``call_timeout_s``, when it has one) is
    every attempt's socket timeout, whichever pool the connection came
    from.
    """

    def __init__(self, address: Union[Tuple[str, int], str],
                 target: str = "/", *,
                 pool: Optional[HttpConnectionPool] = None,
                 depth: int = 8, connections: int = 1,
                 timeout: float = 30.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 clock: Optional[Clock] = None,
                 idempotent: bool = True) -> None:
        if connections < 1:
            raise ValueError("connections must be >= 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if isinstance(address, str):
            address = parse_address(address)
        self.address = address
        self.target = target
        self.depth = depth
        self.connections = connections
        if getattr(retry_policy, "call_timeout_s", None) is not None:
            timeout = retry_policy.call_timeout_s
        self.timeout = timeout
        self._own_pool = pool is None
        self.pool = pool if pool is not None else HttpConnectionPool(
            timeout=timeout)
        self.engine = (RetryEngine(retry_policy, clock, idempotent, breaker)
                       if retry_policy is not None else None)
        self.last_call: Optional[CallMeta] = None
        #: per-sub-call metadata of the most recent call_many batch
        self.last_calls: List[Optional[CallMeta]] = []
        #: the batch connections, never shared with call()
        self._pipes: List[HttpConnection] = []

    def call(self, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> ChannelReply:
        if self.engine is None:
            return self._call_once(body, content_type, headers)
        try:
            reply, self.last_call = self.engine.call(
                self._call_once, body, content_type, headers)
        except ReliabilityError as exc:
            self.last_call = exc.meta
            raise
        return reply

    def _call_once(self, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]]) -> ChannelReply:
        pool = self.pool
        conn = pool.acquire(self.address)
        try:
            conn.settimeout(self.timeout)
            response = conn.request(
                self._build_request(body, content_type, headers))
        except BaseException:
            pool.discard(conn)
            raise
        pool.release(conn)
        return _to_reply(response)

    # ------------------------------------------------------------------
    # batch surface
    # ------------------------------------------------------------------
    def call_many(self, bodies: Sequence[bytes], content_type: str,
                  headers: BatchHeaders = None) -> List[BatchResult]:
        """Drive ``bodies`` concurrently; one :class:`BatchResult` each.

        ``headers`` is either one dict shared by every sub-call or a
        per-sub-call sequence of the same length as ``bodies``.  Results
        come back in input order regardless of how the batch was spread
        across connections.
        """
        headers_list = batch_headers(headers, len(bodies))
        if not bodies:
            results: List[BatchResult] = []
        elif self.engine is None:
            results = self._send_many(bodies, content_type, headers_list)
        else:
            results = self.engine.call_many(self._send_many, bodies,
                                            content_type, headers_list)
        self.last_calls = [result.meta for result in results]
        return results

    def _send_many(self, bodies: Sequence[bytes], content_type: str,
                   headers_list: Sequence[Optional[Dict[str, str]]]
                   ) -> List[BatchResult]:
        """One unpoliced round: contiguous chunks, one per connection."""
        total = len(bodies)
        fanout = min(self.connections, total)
        while len(self._pipes) < fanout:
            self._pipes.append(HttpConnection(self.address,
                                              timeout=self.timeout))
        per_chunk = -(-total // fanout)  # ceil division
        spans = [(pipe, lo, min(lo + per_chunk, total))
                 for pipe, lo in zip(self._pipes, range(0, total, per_chunk))]
        results: List[Any] = [None] * total
        requests = [self._build_request(body, content_type, headers)
                    for body, headers in zip(bodies, headers_list)]
        if len(spans) == 1:
            self._drive(*spans[0], requests, results)
            return results
        errors: List[BaseException] = []

        def worker(*span) -> None:
            try:
                self._drive(*span, requests, results)
            except BaseException as exc:  # noqa: BLE001 - re-raised
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=span, daemon=True)
                   for span in spans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    def _drive(self, pipe: HttpConnection, lo: int, hi: int,
               requests: List[Request], results: List[BatchResult]) -> None:
        """Pipeline ``requests[lo:hi]`` on ``pipe``; the answered prefix of
        a broken pipeline keeps its replies, the rest share its cause."""
        error: Optional[BaseException] = None
        try:
            responses = pipe.request_many(requests[lo:hi], self.depth)
        except PipelineError as exc:
            responses, error = exc.responses, exc.__cause__
        for index, response in enumerate(responses, lo):
            results[index] = BatchResult(reply=_to_reply(response))
        for index in range(lo + len(responses), hi):
            results[index] = BatchResult(error=error)

    def _build_request(self, body: bytes, content_type: str,
                       headers: Optional[Dict[str, str]]) -> Request:
        request = Request(method="POST", target=self.target, body=body)
        for name, value in (headers or {}).items():
            request.headers.set(name, value)
        request.headers.set("Content-Type", content_type)
        return request

    def close(self) -> None:
        for pipe in self._pipes:
            pipe.close()
        self._pipes = []
        if self._own_pool:
            self.pool.close()


#: The names the channel had when pooling and pipelining were separate
#: classes; both are :class:`HttpChannel`.
PooledHttpChannel = PipelinedHttpChannel = HttpChannel


def endpoint_http_handler(endpoint: Endpoint) -> Callable[[Request], Response]:
    """Adapt an endpoint into an :class:`~repro.http11.HttpServer` handler.

    The reply's ``content_type`` is its one ``Content-Type``; the reply
    headers name the other fields and are copied in one pass."""

    def handler(request: Request) -> Response:
        if request.method != "POST":
            return Response.text(405, "POST only")
        reply = endpoint(request.body, request.content_type,
                         request.headers.fields())
        return Response(reply.status,
                        Headers([("Content-Type", reply.content_type),
                                 *reply.headers.items()]),
                        reply.body)

    return handler


def serve_endpoint(endpoint: Endpoint, host: str = "127.0.0.1",
                   port: int = 0, **server_kwargs) -> HttpServer:
    """Start an HTTP server exposing ``endpoint`` at every path."""
    return HttpServer(endpoint_http_handler(endpoint), host=host, port=port,
                      **server_kwargs)
