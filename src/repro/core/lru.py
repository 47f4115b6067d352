"""A reusable bounded LRU+TTL cache (the session-table machinery, extracted).

:class:`SoapBinService` grew the original copy of this bookkeeping for its
per-client PBIO session table: least-recently-used ordering, an optional
idle TTL (a hit refreshes the clock; expiry is swept on the insert path so
steady-state hits stay O(1)), and a hard capacity bound.  The response
cache tier (:mod:`repro.core.qcache`) needs exactly the same machinery
plus a byte budget, so it lives here once:

* ``capacity`` — at most this many entries; beyond it the coldest entry
  is evicted (``evictions``);
* ``ttl_s`` — entries idle longer than this are dropped on the next
  insert (``expirations``); a :meth:`get` hit refreshes idleness;
* ``max_bytes`` — optional weight budget: every entry carries a weight
  (payload bytes, say) and the coldest entries are evicted until the
  total fits.  A single entry heavier than the whole budget is never
  admitted;
* :meth:`invalidate` — explicit removal, one key or everything
  (``invalidations``) — the same ``invalidate()`` contract the codec and
  XML-plan caches honor on :meth:`~repro.pbio.FormatRegistry.redefine`.

All methods are thread-safe; ``time_fn`` is injectable so TTL behaviour
is testable under a :class:`~repro.netsim.clock.VirtualClock`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

__all__ = ["LruTtlCache"]


class _Entry:
    __slots__ = ("value", "last_used", "weight")

    def __init__(self, value: Any, last_used: float, weight: int) -> None:
        self.value = value
        self.last_used = last_used
        self.weight = weight


class LruTtlCache:
    """Thread-safe LRU cache with optional idle TTL and weight budget."""

    def __init__(self, capacity: Optional[int] = None,
                 ttl_s: Optional[float] = None,
                 max_bytes: Optional[int] = None,
                 time_fn: Optional[Callable[[], float]] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self.max_bytes = max_bytes
        self._time_fn = time_fn or time.monotonic
        self._entries: "OrderedDict[Any, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0      # capacity/byte-budget pressure
        self.expirations = 0    # idle-TTL sweeps
        self.invalidations = 0  # explicit invalidate() calls

    # ------------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """Return the cached value (refreshing its idleness) or ``default``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return default
            entry.last_used = self._time_fn()
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.value

    def peek(self, key: Any, default: Any = None,
             touch: bool = False) -> Any:
        """Like :meth:`get` but without touching counters — nor, unless
        ``touch``, LRU order and idleness."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return default
            if touch:
                entry.last_used = self._time_fn()
                self._entries.move_to_end(key)
            return entry.value

    def values(self) -> list:
        """Snapshot of the live values, without touching LRU order or
        counters — for stats aggregation over cached sessions."""
        with self._lock:
            return [entry.value for entry in self._entries.values()]

    def put(self, key: Any, value: Any, weight: int = 0) -> bool:
        """Insert or replace; returns False if ``weight`` alone exceeds the
        byte budget (the entry is not admitted, and a stale entry under
        the same key is dropped rather than left behind)."""
        with self._lock:
            now = self._time_fn()
            if self.max_bytes is not None and weight > self.max_bytes:
                self._drop(key)
                return False
            self._expire_idle(now)
            old = self._entries.get(key)
            if old is not None:
                self.total_bytes -= old.weight
            self._entries[key] = _Entry(value, now, weight)
            self._entries.move_to_end(key)
            self.total_bytes += weight
            self._evict_over_budget()
            return True

    def get_or_create(self, key: Any, factory: Callable[[], Any]) -> Any:
        """The session-table idiom: touch-and-return on a hit; on a miss,
        sweep idle entries, create, insert, then enforce the capacity."""
        with self._lock:
            now = self._time_fn()
            entry = self._entries.get(key)
            if entry is not None:
                entry.last_used = now
                self._entries.move_to_end(key)
                self.hits += 1
                return entry.value
            self.misses += 1
            self._expire_idle(now)
            value = factory()
            self._entries[key] = _Entry(value, now, 0)
            self._evict_over_budget()
            return value

    # ------------------------------------------------------------------
    def invalidate(self, key: Any = None) -> int:
        """Remove one entry (or, with no key, every entry).  Returns the
        number removed; counted under ``invalidations``."""
        with self._lock:
            if key is None:
                dropped = len(self._entries)
                self._entries.clear()
                self.total_bytes = 0
            else:
                dropped = 1 if self._drop(key) else 0
            self.invalidations += dropped
            return dropped

    def expire_idle(self, now: Optional[float] = None) -> int:
        """Sweep entries idle past the TTL; returns the number dropped."""
        with self._lock:
            before = self.expirations
            self._expire_idle(self._time_fn() if now is None else now)
            return self.expirations - before

    # -- internals (lock held) -----------------------------------------
    def _drop(self, key: Any) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.total_bytes -= entry.weight
        return True

    def _expire_idle(self, now: float) -> None:
        if self.ttl_s is None:
            return
        horizon = now - self.ttl_s
        while self._entries:
            _key, entry = next(iter(self._entries.items()))
            if entry.last_used > horizon:
                return
            self._entries.popitem(last=False)
            self.total_bytes -= entry.weight
            self.expirations += 1

    def _evict_over_budget(self) -> None:
        while (self.capacity is not None
               and len(self._entries) > self.capacity):
            _key, entry = self._entries.popitem(last=False)
            self.total_bytes -= entry.weight
            self.evictions += 1
        if self.max_bytes is None:
            return
        while self.total_bytes > self.max_bytes and len(self._entries) > 1:
            _key, entry = self._entries.popitem(last=False)
            self.total_bytes -= entry.weight
            self.evictions += 1

    # ------------------------------------------------------------------
    @property
    def evicted_total(self) -> int:
        """Capacity evictions plus TTL expirations (the historical
        ``sessions_evicted`` counter of the session table)."""
        return self.evictions + self.expirations

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.total_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
            }
