"""Circuit breaker: closed → open → half-open, on an injectable clock.

When an endpoint starts failing hard, retrying every call at full size just
adds load to a struggling server and latency to every caller.  The breaker
converts "N consecutive failures" into a *state* the rest of the stack can
react to:

* **closed** — normal operation; failures are counted, successes reset the
  count.
* **open** — calls are rejected locally for ``reset_timeout_s`` (the
  cooldown).  :class:`~repro.reliability.policy.RetryPolicy` treats the
  rejection like a server ``Retry-After``: it sleeps out the cooldown
  instead of burning attempts, so deadline-budgeted calls survive an open
  window instead of being shed.
* **half-open** — after the cooldown, up to ``half_open_max_probes`` calls
  are let through; ``success_threshold`` consecutive successes close the
  breaker, any failure re-opens it (with a fresh cooldown).

State transitions are pushed to listeners — notably
:class:`~repro.core.monitor.BreakerRttCoupling`, which feeds "breaker open"
into the quality manager's RTT estimator as worst-interval RTT, extending
the paper's adaptation loop from slow links to broken ones.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..clock import Clock, WallClock

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Listener signature: ``(old_state, new_state, at_time)``.
StateListener = Callable[[str, str, float], None]


class CircuitBreaker:
    """Per-endpoint failure accountant with three states."""

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0,
                 half_open_max_probes: int = 1,
                 success_threshold: int = 1,
                 clock: Optional[Clock] = None,
                 listeners: Optional[List[StateListener]] = None) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        if half_open_max_probes < 1 or success_threshold < 1:
            raise ValueError("probe/success thresholds must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_max_probes = half_open_max_probes
        self.success_threshold = success_threshold
        self.clock = clock or WallClock()
        self.listeners: List[StateListener] = list(listeners or [])
        self._state = CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._probes_granted = 0
        self._opened_at = 0.0
        self.rejected = 0
        self.opened_count = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, accounting for an elapsed cooldown."""
        self._maybe_half_open()
        return self._state

    def _maybe_half_open(self) -> None:
        if self._state == OPEN and \
                self.clock.now() - self._opened_at >= self.reset_timeout_s:
            self._transition(HALF_OPEN)

    def _transition(self, new_state: str) -> None:
        old, self._state = self._state, new_state
        if new_state == OPEN:
            self._opened_at = self.clock.now()
            self.opened_count += 1
        if new_state in (CLOSED, HALF_OPEN):
            self._probe_successes = 0
            self._probes_granted = 0
        if new_state == CLOSED:
            self._consecutive_failures = 0
        for listener in self.listeners:
            listener(old, new_state, self.clock.now())

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a call go out right now?  (Counts half-open probe grants.)"""
        self._maybe_half_open()
        if self._state == CLOSED:
            return True
        if self._state == HALF_OPEN:
            if self._probes_granted < self.half_open_max_probes:
                self._probes_granted += 1
                return True
            self.rejected += 1
            return False
        self.rejected += 1
        return False

    def cooldown_remaining(self) -> float:
        """Seconds until the next half-open probe window (0 when not open)."""
        if self._state != OPEN:
            return 0.0
        return max(0.0, self._opened_at + self.reset_timeout_s
                   - self.clock.now())

    def record_success(self) -> None:
        self._maybe_half_open()
        if self._state == HALF_OPEN:
            # the probe completed: free its slot so the next one may go out
            self._probes_granted = max(0, self._probes_granted - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.success_threshold:
                self._transition(CLOSED)
        else:
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        self._maybe_half_open()
        if self._state == HALF_OPEN:
            self._transition(OPEN)
            return
        if self._state == CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._transition(OPEN)
