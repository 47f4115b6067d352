"""ReliableChannel: retries, deadlines and breaking for any transport.

This is the reliability layer's main wiring point: wrap any
:class:`~repro.channel.Channel` and every ``call`` runs under a
:class:`~repro.reliability.policy.RetryPolicy`, optionally guarded by a
:class:`~repro.reliability.breaker.CircuitBreaker` whose state can be
coupled into the quality manager (see
:class:`~repro.core.monitor.BreakerRttCoupling`).  The work is done by one
:class:`~repro.reliability.policy.RetryEngine`, bound at construction.

Guarantees to callers above (:class:`~repro.soap.client.SoapClient`,
:class:`~repro.core.binclient.SoapBinClient`):

* no bare ``OSError``/``socket.timeout`` ever escapes — every failure is
  one typed :class:`~repro.reliability.errors.ReliabilityError`;
* HTTP 503 replies become
  :class:`~repro.reliability.errors.ServiceUnavailable` and their
  ``Retry-After`` seeds the backoff (other non-2xx statuses pass through:
  they are application-protocol business, not transport faults);
* :attr:`last_call` always holds the
  :class:`~repro.reliability.policy.CallMeta` of the most recent call —
  attempts, elapsed, backoff and deadline headroom — which the SOAP and
  SOAP-bin clients re-surface; :attr:`last_calls` does the same per
  sub-call of the most recent :meth:`call_many` batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..channel import (BatchHeaders, BatchResult, Channel, ChannelReply,
                       batch_headers)
from ..clock import Clock
from .breaker import CircuitBreaker
from .errors import ReliabilityError
from .policy import CallMeta, RetryEngine, RetryPolicy, one_by_one


def _engine_attribute(name: str) -> property:
    return property(lambda self: getattr(self.engine, name),
                    lambda self, value: setattr(self.engine, name, value))


class ReliableChannel(Channel):
    """A channel that absorbs transient faults instead of surfacing them."""

    policy = _engine_attribute("policy")
    breaker = _engine_attribute("breaker")
    clock = _engine_attribute("clock")
    coupling = _engine_attribute("coupling")
    idempotent = _engine_attribute("idempotent")

    def __init__(self, inner: Channel,
                 policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 clock: Optional[Clock] = None,
                 coupling: Optional[object] = None,
                 idempotent: bool = True) -> None:
        self.inner = inner
        self.engine = RetryEngine(policy or RetryPolicy(), clock, idempotent,
                                  breaker, coupling)
        self.last_call: Optional[CallMeta] = None
        self.last_calls: List[Optional[CallMeta]] = []

    def call(self, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> ChannelReply:
        try:
            reply, self.last_call = self.engine.call(
                self.inner.call, body, content_type, headers)
        except ReliabilityError as exc:
            self.last_call = exc.meta
            raise
        return reply

    def call_many(self, bodies: Sequence[bytes], content_type: str,
                  headers: BatchHeaders = None) -> List[BatchResult]:
        """Batch surface: one :class:`~repro.channel.BatchResult`
        per body, in order.

        Each retry round goes to the inner channel's own ``call_many``
        when it has one — so an
        :class:`~repro.transport.sockets.HttpChannel` inside keeps its
        requests in flight together — and only the sub-calls whose
        attempt failed are re-sent.  Without one, a round's sub-calls go
        out one after another.
        """
        send_many = getattr(self.inner, "call_many", None)
        if send_many is None:
            send_many = one_by_one(self.inner.call)
        results = self.engine.call_many(send_many, bodies, content_type,
                                        batch_headers(headers, len(bodies)))
        self.last_calls = [result.meta for result in results]
        return results

    def close(self) -> None:
        self.inner.close()
