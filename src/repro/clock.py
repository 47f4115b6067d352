"""Clock abstractions: real time and deterministic virtual time.

The paper's quality-management experiments (Figs. 8 and 9) run clients
against links whose conditions change over minutes of wall-clock time.  To
reproduce their *shape* deterministically and in milliseconds of test time,
the application stack is written against a clock interface; benchmarks
inject a :class:`VirtualClock` and the integration tests a
:class:`WallClock`.
"""

from __future__ import annotations

import time


class Clock:
    """Interface: something that tells time and can wait."""

    def now(self) -> float:
        """Current time in seconds (monotonic)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Let ``seconds`` pass."""
        raise NotImplementedError


class WallClock(Clock):
    """Real time, via :func:`time.perf_counter`.

    ``now`` *is* ``time.perf_counter``: reading the clock on a hot path
    (admission, every retry attempt) costs no Python frame."""

    now = staticmethod(time.perf_counter)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock(Clock):
    """Deterministic simulated time.

    ``sleep`` advances time instantly; nothing actually waits.  Time never
    goes backwards; advancing by a negative amount is an error so simulation
    bugs surface instead of silently warping.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> float:
        """Advance the clock and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        self._now += seconds
        return self._now
