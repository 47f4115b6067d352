"""Deterministic fault injection for channels, real or simulated.

*Non-Blocking Signature of very large SOAP Messages* (PAPERS.md) observes
that large-message SOAP paths fail *mid-stream*, not at connect time; the
happy-path test suite never produced either shape.  This module scripts
both, deterministically:

* a :class:`FaultSchedule` says *when* faults fire — by virtual-time window
  and/or by call index, so a scenario reads like a timeline ("resets from
  t=0.5 to t=1.0, one stall at t=1.5");
* a :class:`FaultInjector` evaluates the schedule per call and keeps
  per-kind counters;
* a :class:`FaultInjectingChannel` wraps **any**
  :class:`~repro.channel.Channel` — a
  :class:`~repro.transport.sim.SimChannel` over a
  :class:`~repro.netsim.link.LinkModel` for virtual-clock soak tests, or a
  real-socket :class:`~repro.transport.sockets.HttpChannel` — and raises
  the same *low-level* exception the real transport would
  (``ConnectionRefusedError``, ``ConnectionResetError``, ``TimeoutError``,
  a truncated-frame close, an HTTP 503 reply), annotated with the wire
  state via
  :func:`~repro.reliability.errors.mark_bytes_written`.  The reliability
  layer above must then classify and survive them exactly as it would in
  production; nothing in the injector is reliability-aware.

Every fault charges the virtual clock what the real failure would cost
(connect RTT for a refusal, the read timeout for a stall, ...), so RTT
monitoring and deadline budgets observe injected faults just like real ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..channel import (BatchHeaders, BatchResult, Channel, ChannelReply,
                       batch_headers)
from ..clock import Clock, VirtualClock
from ..http11.errors import HttpConnectionClosed
from .errors import mark_bytes_written
from .policy import one_by_one


class FaultKind(enum.Enum):
    """The failure shapes the injector can script."""

    CONNECT_REFUSED = "connect_refused"
    RESET_MID_STREAM = "reset_mid_stream"
    STALLED_READ = "stalled_read"
    TRUNCATED_REPLY = "truncated_reply"
    UNAVAILABLE_503 = "unavailable_503"


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled fault: a kind plus when it applies.

    ``start_s``/``end_s`` bound a half-open virtual-time window; ``calls``
    lists explicit call indexes (0-based, counting every channel-level
    attempt).  A window with neither constraint matches always.
    """

    kind: FaultKind
    start_s: Optional[float] = None
    end_s: Optional[float] = None
    calls: Optional[Sequence[int]] = None

    def matches(self, call_index: int, now: float) -> bool:
        if self.calls is not None and call_index not in self.calls:
            return False
        if self.start_s is not None and now < self.start_s:
            return False
        if self.end_s is not None and now >= self.end_s:
            return False
        return True


class FaultSchedule:
    """An ordered list of fault windows; first match wins."""

    def __init__(self, windows: Sequence[FaultWindow]) -> None:
        self.windows: List[FaultWindow] = list(windows)

    @classmethod
    def burst(cls, kind: FaultKind, start_s: float,
              end_s: float) -> "FaultSchedule":
        """A single contiguous burst of one fault kind."""
        return cls([FaultWindow(kind, start_s=start_s, end_s=end_s)])

    def fault_at(self, call_index: int, now: float) -> Optional[FaultKind]:
        for window in self.windows:
            if window.matches(call_index, now):
                return window.kind
        return None


class FaultInjector:
    """Evaluates a schedule call-by-call and counts what it injected."""

    def __init__(self, schedule: FaultSchedule,
                 clock: Optional[Clock] = None) -> None:
        self.schedule = schedule
        self.clock = clock or VirtualClock()
        self.calls_seen = 0
        self.injected: Dict[FaultKind, int] = {}

    def next_fault(self) -> Optional[FaultKind]:
        """The fault (if any) for the next channel-level attempt."""
        index = self.calls_seen
        self.calls_seen += 1
        kind = self.schedule.fault_at(index, self.clock.now())
        if kind is not None:
            self.injected[kind] = self.injected.get(kind, 0) + 1
        return kind

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


class FaultInjectingChannel(Channel):
    """Wrap a channel and make scripted attempts fail like real ones do.

    Parameters
    ----------
    inner:
        The channel that handles non-faulted attempts.
    injector:
        Decides, per attempt, which fault (if any) fires.
    clock:
        Charged with each fault's realistic cost; defaults to the
        injector's clock.
    connect_cost_s:
        Time burned by a refused/failed connect (one RTT-ish).
    mid_stream_cost_s:
        Time burned before a mid-stream reset or truncation surfaces.
    read_timeout_s:
        How long a stalled read blocks before the client-side socket
        timeout fires (the per-attempt ``call_timeout_s`` of the policy in
        a real deployment).
    retry_after_s:
        ``Retry-After`` value carried by injected 503 replies.
    """

    def __init__(self, inner: Channel, injector: FaultInjector,
                 clock: Optional[Clock] = None,
                 connect_cost_s: float = 0.001,
                 mid_stream_cost_s: float = 0.002,
                 read_timeout_s: float = 0.25,
                 retry_after_s: float = 0.1) -> None:
        self.inner = inner
        self.injector = injector
        self.clock = clock or injector.clock
        self.connect_cost_s = connect_cost_s
        self.mid_stream_cost_s = mid_stream_cost_s
        self.read_timeout_s = read_timeout_s
        self.retry_after_s = retry_after_s

    def call(self, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> ChannelReply:
        kind = self.injector.next_fault()
        if kind is None:
            return self.inner.call(body, content_type, headers)
        return self._fire(kind)

    def call_many(self, bodies: Sequence[bytes], content_type: str,
                  headers: BatchHeaders = None) -> List[BatchResult]:
        """Batch counterpart of :meth:`call`: each slot consults the
        schedule independently, faulted slots become per-slot
        :class:`~repro.channel.BatchResult` failures (an
        injected 503 stays a *reply*, everything else an *error*), and
        the surviving slots ride ``inner.call_many`` as one sub-batch —
        merged back in input order so the caller's suffix-retry logic
        sees exactly what a flaky pipelined link would produce.
        """
        total = len(bodies)
        headers_list = batch_headers(headers, total)
        results: List[Optional[BatchResult]] = [None] * total
        clean_idx: List[int] = []
        for i in range(total):
            kind = self.injector.next_fault()
            if kind is None:
                clean_idx.append(i)
                continue
            try:
                reply = self._fire(kind)
            except Exception as exc:  # scripted shapes only
                results[i] = BatchResult(error=exc)
            else:
                results[i] = BatchResult(reply=reply)
        if clean_idx:
            inner_many = (getattr(self.inner, "call_many", None)
                          or one_by_one(self.inner.call))
            sub = inner_many([bodies[i] for i in clean_idx], content_type,
                             [headers_list[i] for i in clean_idx])
            for i, res in zip(clean_idx, sub):
                results[i] = res
        return results  # type: ignore[return-value]

    def _fire(self, kind: FaultKind) -> ChannelReply:
        if kind is FaultKind.CONNECT_REFUSED:
            self.clock.sleep(self.connect_cost_s)
            raise mark_bytes_written(
                ConnectionRefusedError("injected: connection refused"),
                False)
        if kind is FaultKind.RESET_MID_STREAM:
            self.clock.sleep(self.mid_stream_cost_s)
            raise mark_bytes_written(
                ConnectionResetError("injected: connection reset by peer"),
                True)
        if kind is FaultKind.STALLED_READ:
            self.clock.sleep(self.read_timeout_s)
            raise mark_bytes_written(
                TimeoutError("injected: read timed out"), True)
        if kind is FaultKind.TRUNCATED_REPLY:
            self.clock.sleep(self.mid_stream_cost_s)
            raise mark_bytes_written(
                HttpConnectionClosed("injected: response truncated"), True)
        # FaultKind.UNAVAILABLE_503: the server's accept loop answered
        # before dispatch, exactly like HttpServer(max_connections=...).
        self.clock.sleep(self.connect_cost_s)
        return ChannelReply(
            body=b"injected: connection limit reached",
            content_type="text/plain",
            headers={"Retry-After": f"{self.retry_after_s:g}"},
            status=503,
        )

    def close(self) -> None:
        self.inner.close()
