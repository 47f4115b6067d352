"""Admission control: a bounded worker pool with a bounded, sheddable queue.

The SOAP-binQ adaptation loop treats *network* trouble as a quality signal;
this module does the same for *server* trouble.  An
:class:`AdmissionController` sits in front of a request handler and bounds
two things the thread-per-connection server never bounded:

* **concurrency** — at most ``max_concurrency`` requests execute at once;
* **waiting** — at most ``queue_limit`` requests wait for a permit; beyond
  that, somebody is shed with a 503 (the transport layer adds
  ``Retry-After`` so PR 3's :class:`~repro.reliability.policy.RetryPolicy`
  backs off for exactly as long as the server suggests).

Who gets shed is the ``shed_policy``:

* ``"fifo"`` — the queue is served oldest-first and a full queue sheds the
  *new* arrival (classic bounded FIFO);
* ``"lifo"`` — the queue is served newest-first and a full queue sheds the
  *oldest* waiter (adaptive LIFO: under a burst, fresh requests — whose
  clients are still waiting — win over stale ones whose clients have
  probably timed out);
* ``"deadline"`` — waiters are served earliest-deadline-first; a full
  queue sheds an already-expired waiter if any, else the waiter with the
  least remaining budget (it is the most likely to be discarded by its
  client anyway), falling back to the oldest undated waiter.

Deadlines (absolute, on the controller's clock — see
:mod:`repro.http11.deadline`) are honored everywhere: an expired request
is refused at the door, and queued work is aborted the moment its deadline
passes, so the server never burns a worker on a reply nobody will read.

The controller doubles as the **load sensor** for
:class:`~repro.serving.coupling.LoadQualityCoupling`: it tracks queue
depth, per-worker utilization over a sliding window, and a p95 of recent
service times, all exposed via :meth:`snapshot`.

Everything is clock-injectable: with a
:class:`~repro.clock.VirtualClock` the non-blocking path (deadline
checks, utilization, metrics) is fully deterministic; blocking waits use a
condition variable and are exercised by the real-thread stampede tests.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple, Union

from ..clock import Clock, WallClock

#: Shed reasons, also surfaced in the ``X-Shed-Reason`` response header.
SHED_DEADLINE_EXPIRED = "deadline_expired"
SHED_QUEUE_FULL = "queue_full"
SHED_DISPLACED = "displaced"
SHED_SATURATED = "saturated"

_POLICIES = ("fifo", "lifo", "deadline")


class Ticket:
    """An admitted request's permit, which is also the admission's
    :class:`Decision` (``admitted`` is true and ``ticket`` is the permit
    itself); hand it back via ``release``."""

    __slots__ = ("started_at", "deadline", "waited_s")
    admitted = True
    reason: Optional[str] = None

    def __init__(self, started_at: float, deadline: Optional[float] = None,
                 waited_s: float = 0.0) -> None:
        self.started_at = started_at
        self.deadline = deadline
        self.waited_s = waited_s

    @property
    def ticket(self) -> "Ticket":
        return self


class Decision:
    """A refused admission attempt: ``reason`` says why.  An admitted
    attempt's decision is its :class:`Ticket`."""

    __slots__ = ("reason", "waited_s")
    admitted = False
    ticket: Optional[Ticket] = None

    def __init__(self, reason: str, waited_s: float = 0.0) -> None:
        self.reason = reason
        self.waited_s = waited_s


class _Waiter:
    __slots__ = ("deadline", "enqueued_at", "state", "reason", "granted_at")

    def __init__(self, deadline: Optional[float], enqueued_at: float) -> None:
        self.deadline = deadline
        self.enqueued_at = enqueued_at
        self.state = "waiting"          # waiting | granted | shed
        self.reason: Optional[str] = None
        self.granted_at: Optional[float] = None


@dataclass
class AdmissionMetrics:
    """Monotonic counters (all mutated under the controller's lock)."""

    admitted: int = 0
    completed: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    queue_peak: int = 0

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())


class AdmissionController:
    """Bounded worker permits + bounded wait queue + load metrics."""

    def __init__(self, max_concurrency: int = 8, queue_limit: int = 16,
                 shed_policy: str = "deadline",
                 retry_after_s: float = 1.0,
                 utilization_window_s: float = 1.0,
                 service_time_samples: int = 512,
                 clock: Optional[Clock] = None) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if shed_policy not in _POLICIES:
            raise ValueError(f"shed_policy must be one of {_POLICIES}")
        self.max_concurrency = max_concurrency
        self.queue_limit = queue_limit
        self.shed_policy = shed_policy
        self.retry_after_s = max(0.0, retry_after_s)
        self.utilization_window_s = utilization_window_s
        self.clock = clock or WallClock()
        self.metrics = AdmissionMetrics()
        #: a plain lock, so the uncontended path never enters Python-level
        #: Condition code; waiters wait on a condition over the same lock
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._busy = 0
        self._waiters: List[_Waiter] = []
        self._inflight: Set[Ticket] = set()
        self._busy_intervals: Deque[Tuple[float, float]] = deque()
        self._service_times: Deque[float] = deque(maxlen=service_time_samples)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def acquire(self, deadline: Optional[float] = None,
                block: bool = True) -> Union[Ticket, Decision]:
        """Ask for a worker permit; possibly wait; possibly get shed.

        Returns the :class:`Ticket` when admitted, else a refused
        :class:`Decision`; either answers ``admitted``, ``reason``,
        ``ticket`` and ``waited_s``.  ``deadline`` is absolute on the
        controller's clock (see
        :func:`~repro.http11.deadline.deadline_from_headers`).  With
        ``block=False`` a saturated pool sheds instead of queueing — the
        right mode for single-threaded (simulated) servers where nobody
        else could ever release a permit while we wait.
        """
        with self._lock:
            now = self.clock.now()
            if deadline is not None and now >= deadline:
                return self._shed_decision(SHED_DEADLINE_EXPIRED)
            if self._busy < self.max_concurrency and not self._waiters:
                self._busy += 1
                self.metrics.admitted += 1
                ticket = Ticket(now, deadline)
                self._inflight.add(ticket)
                return ticket
            if not block or self.queue_limit == 0:
                return self._shed_decision(SHED_SATURATED if not block
                                           else SHED_QUEUE_FULL)
            if len(self._waiters) >= self.queue_limit:
                victim = self._pick_victim(deadline, now)
                if victim is None:
                    return self._shed_decision(SHED_QUEUE_FULL)
                self._shed_waiter(victim, SHED_DISPLACED)
            waiter = _Waiter(deadline=deadline, enqueued_at=now)
            self._waiters.append(waiter)
            self.metrics.queue_peak = max(self.metrics.queue_peak,
                                          len(self._waiters))
            while waiter.state == "waiting":
                timeout = None
                if waiter.deadline is not None:
                    timeout = waiter.deadline - self.clock.now()
                    if timeout <= 0:
                        self._waiters.remove(waiter)
                        return self._shed_decision(SHED_DEADLINE_EXPIRED)
                self._cond.wait(timeout)
            waited = self.clock.now() - waiter.enqueued_at
            if waiter.state == "shed":
                reason = waiter.reason or SHED_QUEUE_FULL
                self._count_shed(reason)
                return Decision(reason, waited)
            ticket = Ticket(waiter.granted_at or self.clock.now(),
                            waiter.deadline, waited)
            self._inflight.add(ticket)
            return ticket

    def release(self, ticket: Ticket) -> None:
        """Return a permit; records service time and wakes the next waiter."""
        with self._lock:
            now = self.clock.now()
            started = ticket.started_at
            self._busy -= 1
            self._inflight.discard(ticket)
            self._service_times.append(max(0.0, now - started))
            intervals = self._busy_intervals
            intervals.append((started, now))
            horizon = now - self.utilization_window_s
            while intervals and intervals[0][1] < horizon:
                intervals.popleft()
            self.metrics.completed += 1
            if not self._waiters:
                return                  # the uncontended path ends here
            self._expire_waiters(now)
            nxt = self._next_waiter()
            if nxt is not None and self._busy < self.max_concurrency:
                self._waiters.remove(nxt)
                nxt.state = "granted"
                nxt.granted_at = now
                self._busy += 1
                self.metrics.admitted += 1
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # shed-policy internals (all called under the lock)
    # ------------------------------------------------------------------
    def _shed_decision(self, reason: str) -> Decision:
        self._count_shed(reason)
        return Decision(reason)

    def _count_shed(self, reason: str) -> None:
        self.metrics.shed[reason] = self.metrics.shed.get(reason, 0) + 1

    def _shed_waiter(self, waiter: _Waiter, reason: str) -> None:
        waiter.state = "shed"
        waiter.reason = reason
        self._waiters.remove(waiter)
        self._cond.notify_all()

    def _expire_waiters(self, now: float) -> None:
        for waiter in list(self._waiters):
            if waiter.deadline is not None and now >= waiter.deadline:
                self._shed_waiter(waiter, SHED_DEADLINE_EXPIRED)

    def _next_waiter(self) -> Optional[_Waiter]:
        if not self._waiters:
            return None
        if self.shed_policy == "lifo":
            return self._waiters[-1]
        if self.shed_policy == "deadline":
            dated = [w for w in self._waiters if w.deadline is not None]
            if dated:
                return min(dated, key=lambda w: w.deadline)
        return self._waiters[0]

    def _pick_victim(self, new_deadline: Optional[float],
                     now: float) -> Optional[_Waiter]:
        """Which *queued* waiter to displace for a new arrival.

        ``None`` means the new arrival itself is the victim.
        """
        if self.shed_policy == "fifo":
            return None
        if self.shed_policy == "lifo":
            return min(self._waiters, key=lambda w: w.enqueued_at)
        expired = [w for w in self._waiters
                   if w.deadline is not None and now >= w.deadline]
        if expired:
            return min(expired, key=lambda w: w.deadline)
        dated = [w for w in self._waiters if w.deadline is not None]
        if dated:
            tightest = min(dated, key=lambda w: w.deadline)
            if new_deadline is None or tightest.deadline <= new_deadline:
                return tightest
            return None  # the new arrival has the least slack: shed it
        # no dated waiter: the oldest undated one goes
        return min(self._waiters, key=lambda w: w.enqueued_at)

    # ------------------------------------------------------------------
    # load metrics
    # ------------------------------------------------------------------
    def utilization(self, now: Optional[float] = None) -> float:
        """Busy worker-seconds over the sliding window, normalized per
        worker — 0.0 is idle, 1.0 is every worker busy the whole window."""
        with self._lock:
            return self._utilization_locked(
                self.clock.now() if now is None else now)

    def _utilization_locked(self, now: float) -> float:
        horizon = now - self.utilization_window_s
        busy = 0.0
        for start, end in self._busy_intervals:
            busy += max(0.0, min(end, now) - max(start, horizon))
        for ticket in self._inflight:
            busy += max(0.0, now - max(ticket.started_at, horizon))
        denom = self.utilization_window_s * self.max_concurrency
        return busy / denom if denom > 0 else 0.0

    def p95_service_time(self) -> float:
        with self._lock:
            return self._p95_locked()

    def _p95_locked(self) -> float:
        if not self._service_times:
            return 0.0
        ordered = sorted(self._service_times)
        index = min(len(ordered) - 1, int(0.95 * (len(ordered) - 1) + 0.5))
        return ordered[index]

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._waiters)

    @property
    def busy(self) -> int:
        with self._lock:
            return self._busy

    def snapshot(self) -> Dict[str, object]:
        """One coherent reading of the live load picture."""
        with self._lock:
            now = self.clock.now()
            return {
                "busy": self._busy,
                "queue_depth": len(self._waiters),
                "queue_limit": self.queue_limit,
                "max_concurrency": self.max_concurrency,
                "utilization": self._utilization_locked(now),
                "p95_service_s": self._p95_locked(),
                "admitted": self.metrics.admitted,
                "completed": self.metrics.completed,
                "shed": dict(self.metrics.shed),
                "shed_total": self.metrics.shed_total,
                "queue_peak": self.metrics.queue_peak,
            }
