"""Real-socket transport: Channel over HTTP/1.1.

Every socket channel optionally runs its calls under a
:class:`~repro.reliability.policy.RetryPolicy` (plus an optional
:class:`~repro.reliability.breaker.CircuitBreaker`): pass ``retry_policy=``
and transient transport faults — stale sockets, refused connects, 503
shedding from ``HttpServer(max_connections=...)`` — are classified, retried
within the policy's deadline budget, and surfaced as typed
:class:`~repro.reliability.errors.ReliabilityError` instead of bare
``OSError``.  The knobs are bound into one
:class:`~repro.reliability.policy.RetryEngine` at construction — the same
engine :class:`~repro.reliability.channel.ReliableChannel` uses.  Without a
policy the channels behave exactly as before.
"""

from __future__ import annotations

import threading
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..channel import (BatchHeaders, BatchResult, Channel, ChannelReply,
                       Endpoint, batch_headers)
from ..clock import Clock
from ..http11 import (Headers, HttpConnection, HttpConnectionPool,
                      HttpError, HttpServer, PipelinedHttpConnection,
                      PipelineError, Request, Response, default_pool)
from ..reliability.breaker import CircuitBreaker
from ..reliability.errors import ReliabilityError
from ..reliability.policy import CallMeta, RetryEngine, RetryPolicy


def _to_reply(response: Response) -> ChannelReply:
    return ChannelReply(
        body=response.body,
        content_type=response.content_type,
        headers=dict(response.headers),
        status=response.status,
    )


def _to_headers(headers: Optional[Dict[str, str]]) -> Headers:
    extra = Headers()
    for name, value in (headers or {}).items():
        extra.set(name, value)
    return extra


class _SocketChannel(Channel):
    """What the socket channels share: the optional retry engine, bound
    once from the ``retry_policy=`` / ``breaker=`` / ``clock=`` /
    ``idempotent=`` knobs, and the policed :meth:`call` over each
    channel's own single-attempt ``_call_once``."""

    def _bind_policy(self, retry_policy: Optional[RetryPolicy],
                     breaker: Optional[CircuitBreaker],
                     clock: Optional[Clock], idempotent: bool) -> None:
        self.engine = (RetryEngine(retry_policy, clock, idempotent, breaker)
                       if retry_policy is not None else None)
        self.last_call: Optional[CallMeta] = None

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
        raise NotImplementedError


def _timeout(timeout: float, retry_policy: Optional[RetryPolicy]) -> float:
    """A policy's per-attempt timeout, when it has one, is the socket's."""
    if retry_policy is not None and retry_policy.call_timeout_s is not None:
        return retry_policy.call_timeout_s
    return timeout


class HttpChannel(_SocketChannel):
    """A channel speaking HTTP POST over a persistent connection."""

    def __init__(self, address: Union[Tuple[str, int], str],
                 target: str = "/", timeout: float = 30.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 clock: Optional[Clock] = None,
                 idempotent: bool = True) -> None:
        self.connection = HttpConnection(
            address, timeout=_timeout(timeout, retry_policy))
        self.target = target
        self._bind_policy(retry_policy, breaker, clock, idempotent)

    def _call_once(self, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]]) -> ChannelReply:
        return _to_reply(self.connection.post(
            self.target, body, content_type, headers=_to_headers(headers)))

    def close(self) -> None:
        self.connection.close()


class PooledHttpChannel(_SocketChannel):
    """A channel drawing keep-alive connections from a shared pool.

    Where :class:`HttpChannel` pins one socket per channel object, this
    variant checks a connection out of an :class:`HttpConnectionPool` per
    call — the right shape when many short-lived channels (or many threads)
    target the same host: TCP setup is paid once per pooled socket, not
    once per channel.
    """

    def __init__(self, address: Union[Tuple[str, int], str],
                 target: str = "/",
                 pool: Optional[HttpConnectionPool] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 clock: Optional[Clock] = None,
                 idempotent: bool = True) -> None:
        self.address = address
        self.target = target
        self.pool = pool if pool is not None else default_pool()
        self._bind_policy(retry_policy, breaker, clock, idempotent)

    def _call_once(self, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]]) -> ChannelReply:
        return _to_reply(self.pool.post(
            self.address, self.target, body, content_type,
            headers=_to_headers(headers)))

    def close(self) -> None:
        # Connections belong to the pool; closing the channel is a no-op.
        pass


class PipelinedHttpChannel(_SocketChannel):
    """A channel that keeps up to ``depth`` requests in flight per
    connection and spreads batches across ``connections`` sockets.

    :meth:`call` behaves exactly like :class:`HttpChannel.call` (one
    request, policed when a ``retry_policy`` is configured).
    :meth:`call_many` is the concurrency layer: the batch is split into
    contiguous chunks, one per connection, each chunk driven through an
    HTTP/1.1 pipeline at the configured depth.  With a ``retry_policy``
    each retry round re-drives *only the sub-calls that failed* — the
    answered prefix of a broken pipeline is never re-sent — through the
    same :class:`~repro.reliability.policy.RetryEngine` rounds every
    policed call uses: typed failure classification, exponential backoff
    honoring ``Retry-After``, the end-to-end deadline budget stamped per
    attempt as ``X-Deadline-Ms``, and per-sub-call
    :class:`~repro.reliability.policy.CallMeta`.  503 replies are treated
    as retryable shedding (like every policed channel); without a policy
    they are returned as ordinary replies.
    """

    def __init__(self, address: Union[Tuple[str, int], str],
                 target: str = "/", depth: int = 8, connections: int = 1,
                 timeout: float = 30.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 clock: Optional[Clock] = None,
                 idempotent: bool = True) -> None:
        if connections < 1:
            raise ValueError("connections must be >= 1")
        self.address = address
        self.target = target
        self.depth = depth
        self.connections = connections
        self.timeout = _timeout(timeout, retry_policy)
        self._bind_policy(retry_policy, breaker, clock, idempotent)
        #: per-sub-call metadata of the most recent call_many batch
        self.last_calls: List[Optional[CallMeta]] = []
        #: dedicated connection for single calls (never shared with the
        #: batch workers, so call() stays safe alongside call_many())
        self._call_conn = PipelinedHttpConnection(address, depth=1,
                                                  timeout=self.timeout)
        self._pipes: List[PipelinedHttpConnection] = []

    def _call_once(self, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]]) -> ChannelReply:
        return _to_reply(self._call_conn.request(
            self._build_request(body, content_type, headers)))

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
            self._pipes.append(PipelinedHttpConnection(
                self.address, depth=self.depth, timeout=self.timeout))
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

    def _drive(self, pipe: PipelinedHttpConnection, lo: int, hi: int,
               requests: List[Request], results: List[BatchResult]) -> None:
        """Pipeline ``requests[lo:hi]`` on ``pipe``; the answered prefix of
        a broken pipeline keeps its replies, the rest share its error."""
        error: Optional[BaseException] = None
        try:
            responses = pipe.request_many(requests[lo:hi])
        except PipelineError as exc:
            responses, error = exc.responses, exc
        except (HttpError, OSError) as exc:
            responses, error = [], exc
        for index, response in enumerate(responses, lo):
            results[index] = BatchResult(reply=_to_reply(response))
        for index in range(lo + len(responses), hi):
            results[index] = BatchResult(error=error)

    def _build_request(self, body: bytes, content_type: str,
                       headers: Optional[Dict[str, str]]) -> Request:
        request = Request(method="POST", target=self.target,
                          headers=_to_headers(headers), body=body)
        request.headers.set("Content-Type", content_type)
        return request

    def close(self) -> None:
        self._call_conn.close()
        for pipe in self._pipes:
            pipe.close()
        self._pipes = []


def endpoint_http_handler(endpoint: Endpoint) -> Callable[[Request], Response]:
    """Adapt an endpoint into an :class:`~repro.http11.HttpServer` handler."""

    def handler(request: Request) -> Response:
        if request.method != "POST":
            return Response.text(405, "POST only")
        reply = endpoint(request.body, request.content_type,
                         request.fields())
        headers = Headers([("Content-Type", reply.content_type)])
        for name, value in reply.headers.items():
            headers.set(name, value)    # one dict operation per new name
        return Response(reply.status, headers, reply.body)

    return handler


def serve_endpoint(endpoint: Endpoint, host: str = "127.0.0.1",
                   port: int = 0, **server_kwargs) -> HttpServer:
    """Start an HTTP server exposing ``endpoint`` at every path."""
    return HttpServer(endpoint_http_handler(endpoint), host=host, port=port,
                      **server_kwargs)
