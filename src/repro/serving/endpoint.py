"""Overload protection as an endpoint decorator.

Server-side deployments share one shape — an endpoint callable
``(body, content_type, headers) -> ChannelReply`` — so overload protection
composes the same way compression or dispatch does: wrap the endpoint.
:class:`ProtectedEndpoint` is that wrapper; it runs the same admission,
deadline and load-coupling machinery whether the transport is a real
:class:`~repro.http11.HttpServer` thread or a virtual-clock
:class:`~repro.transport.sim.SimChannel` call, which is what makes the
overload acceptance scenario deterministic.

Per request:

1. parse ``X-Deadline-Ms`` into an absolute local deadline
   (:mod:`repro.http11.deadline`);
2. ask the :class:`~repro.serving.admission.AdmissionController` for a
   permit — an expired or shed request is answered ``503`` with
   ``Retry-After`` (so PR 3 retry policies back off honestly) and
   ``X-Shed-Reason``, without the inner endpoint ever running;
3. run the inner endpoint, release the permit, and let the optional
   :class:`~repro.serving.coupling.LoadQualityCoupling` take a load
   reading so the quality policy can react.

``block=False`` (the default for single-threaded/simulated servers —
set ``blocking=True`` under a real threaded server) sheds immediately
when the pool is saturated instead of queueing on a condition variable
that nothing else could ever signal.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, TYPE_CHECKING

from ..channel import ChannelReply, Endpoint
from ..http11.deadline import HEADER_SHED_REASON, deadline_from_headers
from .admission import AdmissionController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coupling import LoadQualityCoupling


class ProtectedEndpoint:
    """Admission control + deadline enforcement around any endpoint."""

    def __init__(self, endpoint: Endpoint,
                 admission: AdmissionController,
                 coupling: Optional["LoadQualityCoupling"] = None,
                 assume_synced_clock: bool = False,
                 blocking: bool = False) -> None:
        self.endpoint = endpoint
        self.admission = admission
        self.coupling = coupling
        self.assume_synced_clock = assume_synced_clock
        self.blocking = blocking

    def __call__(self, body: bytes, content_type: str,
                 headers: Dict[str, str]) -> ChannelReply:
        now = self.admission.clock.now()
        deadline = deadline_from_headers(
            headers, now, assume_synced_clock=self.assume_synced_clock)
        decision = self.admission.acquire(deadline=deadline,
                                          block=self.blocking)
        if not decision.admitted:
            self._observe()
            return shed_reply(decision.reason or "overloaded",
                              self.admission.retry_after_s)
        try:
            return self.endpoint(body, content_type, headers)
        finally:
            self.admission.release(decision.ticket)
            self._observe()

    def _observe(self) -> None:
        if self.coupling is not None:
            self.coupling.observe()


def shed_reply(reason: str, retry_after_s: float) -> ChannelReply:
    """The canonical 503 shed reply (transport-agnostic)."""
    return ChannelReply(
        body=f"overloaded: {reason}".encode("utf-8"),
        content_type="text/plain; charset=utf-8",
        status=503,
        headers={
            # RFC 9110 Retry-After is integer delay-seconds; round up so a
            # client honoring it never returns while we are still shedding.
            "Retry-After": str(int(math.ceil(retry_after_s))),
            HEADER_SHED_REASON: reason,
        })
