"""Quality-handler sandboxing: timeout + exception boundary + quarantine.

Quality handlers are *user code* on the request path ("code modules that
take as inputs both the binary representations of SOAP parameters and
quality attributes", §I) — and user code raises, loops and stalls.  Before
this module a raising handler 500'ed the request it was supposed to be
*improving*; now the :class:`~repro.core.manager.QualityManager` runs every
named handler through a :class:`HandlerSandbox`:

* an **exception boundary** — a raising handler costs the request nothing;
  the manager falls back to the trivial projection handler (and, if even
  that fails, to the full-fidelity format);
* a **timeout** — a handler that exceeds ``timeout_s`` earns a strike even
  if it eventually returns; its (stale) result is discarded, because a
  quality handler that is slower than the latency it is trying to save is
  worse than no handler.  With ``use_thread=True`` the wall-clock bound is
  enforced for real via a worker pool (the runaway invocation finishes in
  the background and is discarded); otherwise the handler runs inline and
  the elapsed clock time is judged after the fact — deterministic under a
  virtual clock, where preemption is meaningless anyway;
* a **quarantine** — after ``max_strikes`` failures a handler is not
  invoked at all until :meth:`pardon`\\ ed; every request falls straight
  through to the trivial handler.  One bad deploy of one handler degrades
  that handler's *quality*, never the service's *availability*.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..clock import Clock, WallClock


class HandlerSandbox:
    """Strike-counting execution boundary for named quality handlers."""

    def __init__(self, timeout_s: Optional[float] = None,
                 max_strikes: int = 3,
                 clock: Optional[Clock] = None,
                 use_thread: bool = False,
                 thread_workers: int = 2) -> None:
        if max_strikes < 1:
            raise ValueError("max_strikes must be >= 1")
        if use_thread and timeout_s is None:
            raise ValueError("use_thread requires a timeout_s")
        self.timeout_s = timeout_s
        self.max_strikes = max_strikes
        self.clock = clock or WallClock()
        self.use_thread = use_thread
        self._thread_workers = thread_workers
        self._executor = None
        self._lock = threading.Lock()
        self.strikes: Dict[str, int] = {}
        self.last_error: Dict[str, str] = {}
        self._quarantined: Set[str] = set()
        self.errors = 0
        self.timeouts = 0
        self.quarantine_skips = 0

    # ------------------------------------------------------------------
    def run(self, name: str, handler: Callable[..., Any],
            *args: Any) -> Tuple[bool, Any]:
        """Invoke ``handler`` under the boundary; ``(ok, result)``.

        ``ok`` is False when the handler is quarantined, raised, or blew
        its timeout — the caller must fall back; ``result`` is then None.
        """
        if self.is_quarantined(name):
            with self._lock:
                self.quarantine_skips += 1
            return False, None
        # No timeout configured -> skip the clock reads; the boundary must
        # stay near-free on the per-message fast path.
        started = self.clock.now() if self.timeout_s is not None else 0.0
        try:
            if self.use_thread:
                result = self._run_in_thread(handler, args)
            else:
                result = handler(*args)
        except TimeoutError as exc:
            self._strike(name, "timeout", repr(exc))
            return False, None
        except Exception as exc:  # noqa: BLE001 - this IS the boundary
            self._strike(name, "error", repr(exc))
            return False, None
        if self.timeout_s is not None:
            elapsed = self.clock.now() - started
            if elapsed > self.timeout_s:
                self._strike(
                    name, "timeout",
                    f"handler took {elapsed:g}s (limit {self.timeout_s:g}s)")
                return False, None
        return True, result

    def _run_in_thread(self, handler: Callable[..., Any],
                       args: tuple) -> Any:
        from concurrent.futures import TimeoutError as FutureTimeout
        executor = self._ensure_executor()
        future = executor.submit(handler, *args)
        try:
            return future.result(timeout=self.timeout_s)
        except FutureTimeout:
            future.cancel()
            raise TimeoutError(
                f"handler still running after {self.timeout_s:g}s")

    def _ensure_executor(self):
        with self._lock:
            if self._executor is None:
                from concurrent.futures import ThreadPoolExecutor
                self._executor = ThreadPoolExecutor(
                    max_workers=self._thread_workers,
                    thread_name_prefix="quality-sandbox")
            return self._executor

    # ------------------------------------------------------------------
    def _strike(self, name: str, kind: str, detail: str) -> None:
        with self._lock:
            if kind == "timeout":
                self.timeouts += 1
            else:
                self.errors += 1
            self.strikes[name] = self.strikes.get(name, 0) + 1
            self.last_error[name] = detail
            if self.strikes[name] >= self.max_strikes:
                self._quarantined.add(name)

    def is_quarantined(self, name: str) -> bool:
        with self._lock:
            return name in self._quarantined

    def quarantined(self) -> Set[str]:
        with self._lock:
            return set(self._quarantined)

    def pardon(self, name: Optional[str] = None) -> None:
        """Clear quarantine (and strikes) for one handler, or all."""
        with self._lock:
            if name is None:
                self._quarantined.clear()
                self.strikes.clear()
                self.last_error.clear()
            else:
                self._quarantined.discard(name)
                self.strikes.pop(name, None)
                self.last_error.pop(name, None)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "errors": self.errors,
                "timeouts": self.timeouts,
                "quarantine_skips": self.quarantine_skips,
                "strikes": dict(self.strikes),
                "quarantined": sorted(self._quarantined),
            }

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)
