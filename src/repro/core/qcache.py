"""Content-addressed response cache for quality-managed endpoints.

ROADMAP open item 3: at fleet scale, thousands of clients pinned at the
same quality interval each pay the full degrade+encode cost for
byte-identical output.  :class:`QualityCache` memoizes the quality
pipeline under a content-addressed key combining

* the application format's SHA-1 :attr:`~repro.pbio.Format.fingerprint`,
* the chosen message type's fingerprint (the quantized quality interval —
  a :meth:`~repro.pbio.FormatRegistry.redefine` changes it, so stale
  entries become unreachable even before the explicit flush),
* a canonical digest of the response value (so the key vouches for the
  actual payload content, never just the request), and
* a representation variant (``pbio`` vs per-operation XML: the same value
  has different bytes in each).

The key *is* the strong ``ETag`` (quoted SHA-1 hex): a client presenting
it back via ``If-None-Match`` can be answered ``304 Not Modified``
without consulting the cache at all — content addressing makes the
validator self-certifying.

Invalidation contract (see ``docs/caching.md``):

* :meth:`FormatRegistry.redefine` flushes the cache — the cache registers
  itself via ``_attach_compiler`` exactly like the codec and XML-plan
  caches;
* ``update_attribute()`` on any attribute other than the policy's
  monitored one (and the continuously-fed RTT telemetry) flushes, since
  handlers may read arbitrary attributes; the monitored attribute needs
  no flush because its effect is the chosen message type, which is part
  of the key;
* entries are only ever written from *successful* handler runs — a
  sandboxed handler that raises, stalls or is quarantined falls back
  without caching, so quarantine can never leave a poisoned entry.

Three layers of reuse share the one entry budget.  A quality entry holds
the transformed value (skips the quality handler) and, when attached, the
encoded PBIO data message (skips the codec too — steady-state data bytes
depend only on the registry-wide format id and the payload, not on which
session sends them).  The full-fidelity message type has no transformed
value to keep; for a memoised result its encoding gets a value-less entry
of its own under the same kind of key.  In front of all of these, a
*result memo* entry holds what the operation handler of a ``pure=True``
operation returned for given params, with that result's canonical digest
(skips the handler, and the hashing of the result on every later key
derivation).  Memo entries live in the same LRU — same byte budget, same
TTL, same flushes.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from operator import countOf
from typing import Any, Dict, NamedTuple, Optional, Union

from ..pbio import COMPACT_REVISION, Format, FormatRegistry
from .lru import LruTtlCache

try:  # numpy is optional for the core; the digest just walks slower without
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

__all__ = ["QualityCache", "canonical_digest", "estimated_weight"]

#: Lists at least this long try the vectorized (dtype+shape+bytes) path.
_ARRAY_FAST_PATH_LEN = 64

_F64 = struct.Struct("<d")

#: ``A<dtype>`` of the array NumPy builds from a list of Python ints that
#: fit its default int (``np.asarray`` infers that dtype for them), when
#: that int is 8 bytes; such lists are packed by ``struct`` instead.
_INT_LIST_TAG = (b"A" + _np.dtype(int).str.encode("ascii")
                 if _np is not None and _np.dtype(int).itemsize == 8
                 else None)


def _int_list_bytes(value: Any) -> Optional[bytes]:
    """``np.asarray(value).tobytes()`` for a sequence of exact ``int``s
    that fit 64 bits — the same bytes for about half the time — else
    ``None``.  Bools, NumPy scalars and int subclasses are left to NumPy,
    whose inferred dtype depends on them."""
    if countOf(map(type, value), int) != len(value):
        return None
    try:
        return struct.pack("=%dq" % len(value), *value)
    except struct.error:
        return None


def _update_digest(h, value: Any) -> None:
    """Fold ``value`` into hasher ``h`` with type tags so structurally
    different values can never collide by concatenation."""
    if isinstance(value, dict):
        h.update(b"D%d;" % len(value))
        for key in sorted(value):
            h.update(str(key).encode("utf-8", "surrogatepass"))
            h.update(b"=")
            _update_digest(h, value[key])
        return
    if _np is not None:
        if isinstance(value, _np.ndarray):
            arr = _np.ascontiguousarray(value)
            h.update(b"A" + arr.dtype.str.encode("ascii")
                     + str(arr.shape).encode("ascii") + b";")
            h.update(arr.tobytes())
            return
        if isinstance(value, _np.generic):
            _update_digest(h, value.item())
            return
    if isinstance(value, (list, tuple)):
        if _np is not None and len(value) >= _ARRAY_FAST_PATH_LEN:
            packed = _int_list_bytes(value) if _INT_LIST_TAG else None
            if packed is not None:
                h.update(b"%s(%d,);" % (_INT_LIST_TAG, len(value)))
                h.update(packed)
                return
            try:
                arr = _np.asarray(value)
            except Exception:  # noqa: BLE001 - ragged input: walk instead
                arr = None
            if arr is not None and arr.dtype != object:
                h.update(b"A" + arr.dtype.str.encode("ascii")
                         + str(arr.shape).encode("ascii") + b";")
                h.update(arr.tobytes())
                return
        h.update(b"L%d;" % len(value))
        for item in value:
            _update_digest(h, item)
        return
    if isinstance(value, bool):  # before int: bool subclasses int
        h.update(b"b1" if value else b"b0")
    elif isinstance(value, float):
        h.update(b"F")
        h.update(_F64.pack(value))
    elif isinstance(value, int):
        h.update(b"I%d;" % value)
    elif isinstance(value, str):
        h.update(b"S")
        h.update(value.encode("utf-8", "surrogatepass"))
    elif isinstance(value, (bytes, bytearray, memoryview)):
        h.update(b"B")
        h.update(value)
    elif value is None:
        h.update(b"N")
    else:
        h.update(b"O")
        h.update(repr(value).encode("utf-8", "surrogatepass"))


def canonical_digest(value: Any) -> str:
    """SHA-1 hex digest of a message value, canonical across dict order."""
    h = hashlib.sha1()
    _update_digest(h, value)
    return h.hexdigest()


#: flat per-container cost approximating CPython object headers — cached
#: values are array-dominated, so precision here is unimportant; what
#: matters is that large buffers are charged their real size.
_CONTAINER_OVERHEAD = 64
_SCALAR_WEIGHT = 32


def estimated_weight(value: Any) -> int:
    """Approximate resident bytes of a cached message value.

    NumPy arrays and byte strings (which dominate every evaluation
    workload) are charged their exact buffer size; containers and scalars
    get flat per-object estimates.  This is what :meth:`QualityCache.store`
    charges against ``max_payload_bytes``, so the budget bounds the whole
    entry — cached ``wire_value`` dicts included — not just the encoded
    payloads later attached."""
    if _np is not None:
        if isinstance(value, _np.ndarray):
            return int(value.nbytes) + _CONTAINER_OVERHEAD
        if isinstance(value, _np.generic):
            return _SCALAR_WEIGHT
    if isinstance(value, dict):
        return (_CONTAINER_OVERHEAD
                + sum(len(str(k)) + _SCALAR_WEIGHT + estimated_weight(v)
                      for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (_CONTAINER_OVERHEAD + 8 * len(value)
                + sum(estimated_weight(item) for item in value))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value) + _SCALAR_WEIGHT
    if isinstance(value, str):
        return len(value) + _SCALAR_WEIGHT
    return _SCALAR_WEIGHT


class _CacheEntry:
    """One memoized quality transformation (and optionally its encoding),
    or — value-less — the encoding alone."""

    __slots__ = ("wire_format", "wire_value", "payload", "value_weight")

    def __init__(self, wire_format: Optional[Format],
                 wire_value: Optional[Dict[str, Any]],
                 payload: Optional[bytes] = None,
                 value_weight: int = 0) -> None:
        self.wire_format = wire_format
        self.wire_value = wire_value
        self.payload = payload
        self.value_weight = value_weight


class _ResultMemo(NamedTuple):
    """What a pure operation handler returned for one params value, with
    ``canonical_digest(result)``."""

    result: Dict[str, Any]
    digest: str


def _freeze_arrays(value: Any) -> None:
    """Mark every ndarray leaf read-only, in place: a memoised result is
    shared by every later reply, so a write to it must raise."""
    if _np is not None and isinstance(value, _np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, dict):
        for item in value.values():
            _freeze_arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _freeze_arrays(item)


class QualityCache:
    """Bounded content-addressed cache of quality-pipeline outputs.

    ``max_payload_bytes`` is the per-worker RSS budget: every entry is
    charged its :func:`estimated_weight` (array/byte buffers at their
    real size) plus the attached encoded payload, and the coldest
    entries are evicted until the total fits; ``capacity`` bounds the
    entry count; ``ttl_s`` ages out entries for values no client asks
    for any more.
    """

    def __init__(self, registry: FormatRegistry, capacity: int = 1024,
                 ttl_s: Optional[float] = None,
                 max_payload_bytes: int = 64 << 20,
                 time_fn=None) -> None:
        self.registry = registry
        self.max_payload_bytes = max_payload_bytes
        self._cache = LruTtlCache(capacity=capacity, ttl_s=ttl_s,
                                  max_bytes=max_payload_bytes,
                                  time_fn=time_fn)
        #: whole-cache flushes (redefine / attribute updates)
        self.flushes = 0
        #: result-memo lookups, counted apart from the quality entries'
        #: hits/misses (which keep meaning "quality handler skipped / run")
        self.result_hits = 0
        self.result_misses = 0
        #: replies answered from stored encoded bytes, any message type
        self.payload_hits = 0
        # orders a flush against the store of a result computed before it
        # (and keeps the counters above exact across worker threads)
        self._flush_lock = threading.Lock()
        # redefine() calls invalidate() on everything attached here — the
        # registry holds us weakly; the owning QualityManager keeps us
        # alive.
        registry._attach_compiler(self)

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def key(self, app_format: Format, wire_format: Format,
            value: Any, variant: str = "pbio",
            value_digest: Optional[str] = None) -> str:
        """The content-addressed cache key, quoted as a strong ETag.

        The compact revision is folded in next to the codec epoch, so
        compact bytes of one revision never answer for another's.
        ``value_digest`` is ``canonical_digest(value)`` when the caller
        already holds it (a result memo does); the key is the same either
        way, so it addresses content whoever derived it.
        """
        if value_digest is None:
            value_digest = canonical_digest(value)
        h = hashlib.sha1()
        h.update(app_format.fingerprint.encode("ascii"))
        h.update(b":")
        h.update(wire_format.fingerprint.encode("ascii"))
        h.update(b":%d:%d:" % (self.registry.codec_epoch, COMPACT_REVISION))
        h.update(variant.encode("utf-8", "surrogatepass"))
        h.update(b":")
        h.update(value_digest.encode("ascii"))
        return f'"{h.hexdigest()}"'

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[_CacheEntry]:
        """Counted, LRU-touching lookup."""
        return self._cache.get(key)

    def payload(self, key: str) -> Optional[Union[bytes, memoryview]]:
        """The attached encoded payload, if any.  A peek that leaves
        ``hits``/``misses`` alone (the value lookup on the same request
        already scored it); a found payload counts under
        ``payload_hits``."""
        entry = self._cache.peek(key)
        if entry is None or entry.payload is None:
            return None
        with self._flush_lock:
            self.payload_hits += 1
        return entry.payload

    def store(self, key: str, wire_format: Format,
              wire_value: Dict[str, Any]) -> None:
        """Memoize a handler output, charged at its estimated resident
        size so ``max_payload_bytes`` bounds the cache's RSS even before
        any encoded payload is attached.  A value alone heavier than the
        whole budget is never admitted."""
        weight = estimated_weight(wire_value)
        self._cache.put(key, _CacheEntry(wire_format, wire_value,
                                         value_weight=weight),
                        weight=weight)

    def attach_payload(self, key: str, payload: Union[bytes, memoryview],
                       create: bool = False) -> None:
        """Attach the encoded data-message bytes to an existing entry so
        later hits skip the codec entirely.  Payloads that would push the
        entry (value weight + encoding) past the byte budget are dropped
        silently, and so are payloads for keys with no entry — unless
        ``create``, which stores the bytes alone in a value-less entry
        (the full-fidelity message type of a memoised result: there is no
        transformed value to keep, and the value itself is resident in the
        memo already).  ``create`` is only for such keys: :meth:`lookup`
        never reads them, while a value-less entry under a degraded key
        would read as a quality hit.  A read-only view is kept as it is
        (it keeps the buffer it views alive); anything else is copied."""
        entry = self._cache.peek(key)
        if entry is None:
            if not create:
                return
            entry = _CacheEntry(None, None)
        weight = entry.value_weight + len(payload)
        if weight > self.max_payload_bytes:
            return
        if not (isinstance(payload, memoryview) and payload.readonly):
            payload = bytes(payload)
        entry = _CacheEntry(entry.wire_format, entry.wire_value,
                            payload, entry.value_weight)
        self._cache.put(key, entry, weight=weight)

    # ------------------------------------------------------------------
    # result memo (pure operation handlers)
    # ------------------------------------------------------------------
    def result(self, operation: str,
               params_digest: str) -> Optional[_ResultMemo]:
        """The memoised ``(result, canonical_digest(result))`` of a pure
        operation for these params, or ``None``.  Refreshes the entry's
        LRU position and idle clock but is counted under ``result_hits`` /
        ``result_misses``, never the quality entries' ``hits``/``misses``."""
        memo = self._cache.peek((operation, params_digest), touch=True)
        with self._flush_lock:
            if memo is None:
                self.result_misses += 1
                return None
            self.result_hits += 1
        return memo

    def store_result(self, operation: str, params_digest: str,
                     result: Dict[str, Any],
                     flushes_before: int) -> _ResultMemo:
        """Memoise what a pure handler returned and hand back ``(result,
        digest)``.  The result's ndarray leaves become read-only.
        ``flushes_before`` is :attr:`flushes` as read before the handler
        ran: a result computed across a flush may predate whatever the
        flush announced, so it is returned but not kept."""
        memo = _ResultMemo(result, canonical_digest(result))
        _freeze_arrays(result)
        with self._flush_lock:
            if flushes_before == self.flushes:
                self._cache.put((operation, params_digest), memo,
                                weight=estimated_weight(result))
        return memo

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop everything — the ``redefine()`` compiler-cache contract."""
        with self._flush_lock:
            self._cache.invalidate()
            self.flushes += 1

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        out = self._cache.stats()
        out["flushes"] = self.flushes
        out["result_hits"] = self.result_hits
        out["result_misses"] = self.result_misses
        out["payload_hits"] = self.payload_hits
        out["result_entries"] = sum(
            isinstance(entry, _ResultMemo) for entry in self._cache.values())
        return out
