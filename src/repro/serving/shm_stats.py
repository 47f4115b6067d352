"""Fleet-wide worker stats over a shared-memory segment.

A :class:`FleetServer` parent creates one ``FleetStats`` segment sized
for N workers; each forked worker attaches to it and publishes its own
admission/shed/pool/cache counters into a private 192-byte slot.
Readers — the parent's control-port ``/healthz`` and every worker's
``LoadQualityCoupling`` — aggregate the slots without locks.

Layout
------

::

    offset 0    header (64 bytes)
                magic, version, nworkers, slot size, parent pid,
                creation timestamp (monotonic clock of the parent)
    offset 64   slot 0   (192 bytes)
    offset 256  slot 1
    ...

Each slot is written only by its owning worker, so the classic
*seqlock* protocol gives tear-free reads without any cross-process
lock: the writer bumps a sequence number to an odd value, writes the
payload, then bumps it to the next even value.  A reader snapshots the
sequence, copies the payload, and re-reads the sequence — an odd or
changed value means a concurrent write and the reader retries.

Staleness is handled by a heartbeat timestamp (``time.monotonic()`` is
system-wide on Linux/macOS, so parent and children share the clock):
``aggregate()`` ignores slots whose heartbeat is older than
``stale_after_s`` even if their state still claims ``ready`` — that is
exactly what a SIGKILLed worker leaves behind.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import List, Optional

__all__ = [
    "FleetStats", "WorkerStats", "WorkerStatsWriter",
    "STATE_EMPTY", "STATE_READY", "STATE_DRAINING", "STATE_STOPPED",
    "DEFAULT_STALE_AFTER_S",
]

MAGIC = 0x464C5431            # "FLT1"
VERSION = 4

STATE_EMPTY = 0               # slot never written (or explicitly cleared)
STATE_READY = 1
STATE_DRAINING = 2
STATE_STOPPED = 3

_STATE_NAMES = {
    STATE_EMPTY: "empty",
    STATE_READY: "ready",
    STATE_DRAINING: "draining",
    STATE_STOPPED: "stopped",
}

#: A worker that has not heartbeat within this window is treated as dead.
DEFAULT_STALE_AFTER_S = 2.0

_HEADER_FMT = "<IIIIQd"       # magic, version, nworkers, slot_size, ppid, t0
_HEADER_SIZE = 64
_SEQ_FMT = "<Q"
_SEQ_SIZE = struct.calcsize(_SEQ_FMT)
# pid, generation, state, heartbeat, served, shed, conns_accepted,
# conns_active, busy, queue_depth, max_concurrency, queue_limit,
# utilization, p95_service_s, port, then the v2 response-cache block:
# cache_hits, cache_misses, cache_evictions, cache_invalidations,
# responses_304
_PAYLOAD_FMT = "<QQQdQQQQQQQQddQ" + "QQQQQ"
_PAYLOAD_SIZE = struct.calcsize(_PAYLOAD_FMT)
_SLOT_SIZE = 192
assert _SEQ_SIZE + _PAYLOAD_SIZE <= _SLOT_SIZE


@dataclass(frozen=True)
class WorkerStats:
    """One tear-free snapshot of a worker's published slot."""

    index: int
    pid: int
    generation: int
    state: int
    heartbeat: float              # time.monotonic() at publish
    requests_served: int
    requests_shed: int
    connections_accepted: int
    connections_active: int
    busy: int
    queue_depth: int
    max_concurrency: int
    queue_limit: int
    utilization: float
    p95_service_s: float
    port: int
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    responses_304: int = 0

    @property
    def state_name(self) -> str:
        return _STATE_NAMES.get(self.state, str(self.state))

    def is_live(self, now: Optional[float] = None,
                stale_after_s: float = DEFAULT_STALE_AFTER_S) -> bool:
        if self.state not in (STATE_READY, STATE_DRAINING):
            return False
        if now is None:
            now = time.monotonic()
        return (now - self.heartbeat) <= stale_after_s

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "pid": self.pid,
            "generation": self.generation,
            "state": self.state_name,
            "age_s": round(max(0.0, time.monotonic() - self.heartbeat), 3),
            "requests_served": self.requests_served,
            "requests_shed": self.requests_shed,
            "connections_accepted": self.connections_accepted,
            "connections_active": self.connections_active,
            "busy": self.busy,
            "queue_depth": self.queue_depth,
            "max_concurrency": self.max_concurrency,
            "queue_limit": self.queue_limit,
            "utilization": round(self.utilization, 4),
            "p95_service_s": round(self.p95_service_s, 6),
            "port": self.port,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_invalidations": self.cache_invalidations,
            "responses_304": self.responses_304,
        }


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without the resource tracker.

    A forked worker must not register the segment with its own
    ``resource_tracker`` — otherwise the first child to exit unlinks the
    segment out from under the rest of the fleet.  Python 3.13 grew a
    ``track=`` keyword; on older versions we unregister by hand.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    # Pre-3.13: suppress the REGISTER the constructor would send.  (An
    # unregister-after-attach would be wrong: the tracker's name cache is
    # one set shared by the whole fleet, so the first child to attach and
    # detach would erase the *parent's* registration too.)
    from multiprocessing import resource_tracker
    original = resource_tracker.register

    def _skip_shm(rname, rtype):      # pragma: no cover - 3.11/3.12 path
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _skip_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class WorkerStatsWriter:
    """Seqlock writer for one worker's slot.  Single-writer by design."""

    def __init__(self, stats: "FleetStats", index: int) -> None:
        if not (0 <= index < stats.workers):
            raise IndexError(f"worker index {index} out of range "
                             f"0..{stats.workers - 1}")
        self._buf = stats._shm.buf
        self._off = _HEADER_SIZE + index * _SLOT_SIZE
        self._seq = struct.unpack_from(_SEQ_FMT, self._buf, self._off)[0]
        self.index = index

    def publish(self, *, pid: int, generation: int, state: int,
                requests_served: int = 0, requests_shed: int = 0,
                connections_accepted: int = 0, connections_active: int = 0,
                busy: int = 0, queue_depth: int = 0,
                max_concurrency: int = 0, queue_limit: int = 0,
                utilization: float = 0.0, p95_service_s: float = 0.0,
                port: int = 0,
                cache_hits: int = 0, cache_misses: int = 0,
                cache_evictions: int = 0, cache_invalidations: int = 0,
                responses_304: int = 0,
                heartbeat: Optional[float] = None) -> None:
        if heartbeat is None:
            heartbeat = time.monotonic()
        buf, off = self._buf, self._off
        self._seq += 1                                     # odd: write begins
        struct.pack_into(_SEQ_FMT, buf, off, self._seq)
        struct.pack_into(
            _PAYLOAD_FMT, buf, off + _SEQ_SIZE,
            pid, generation, state, heartbeat,
            requests_served, requests_shed,
            connections_accepted, connections_active,
            busy, queue_depth, max_concurrency, queue_limit,
            utilization, p95_service_s, port,
            cache_hits, cache_misses, cache_evictions,
            cache_invalidations, responses_304)
        self._seq += 1                                     # even: write done
        struct.pack_into(_SEQ_FMT, buf, off, self._seq)


class FleetStats:
    """Shared-memory stats segment for a fleet of N workers."""

    def __init__(self, shm: shared_memory.SharedMemory, workers: int,
                 owner: bool) -> None:
        self._shm = shm
        self.workers = workers
        self._owner = owner
        self._closed = False

    # -- lifecycle ----------------------------------------------------

    @classmethod
    def create(cls, workers: int) -> "FleetStats":
        if workers < 1:
            raise ValueError("workers must be >= 1")
        size = _HEADER_SIZE + workers * _SLOT_SIZE
        shm = shared_memory.SharedMemory(create=True, size=size)
        shm.buf[:size] = b"\x00" * size
        struct.pack_into(_HEADER_FMT, shm.buf, 0, MAGIC, VERSION, workers,
                         _SLOT_SIZE, os.getpid(), time.monotonic())
        return cls(shm, workers, owner=True)

    @classmethod
    def attach(cls, name: str) -> "FleetStats":
        shm = _attach_untracked(name)
        magic, version, workers, slot_size, _ppid, _t0 = struct.unpack_from(
            _HEADER_FMT, shm.buf, 0)
        if magic != MAGIC or version != VERSION or slot_size != _SLOT_SIZE:
            shm.close()
            raise ValueError(f"{name!r} is not a FleetStats v{VERSION} "
                             "segment")
        return cls(shm, workers, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:       # pragma: no cover - lingering memoryview
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def __enter__(self) -> "FleetStats":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writing ------------------------------------------------------

    def writer(self, index: int) -> WorkerStatsWriter:
        return WorkerStatsWriter(self, index)

    # -- reading ------------------------------------------------------

    def read_slot(self, index: int, retries: int = 16
                  ) -> Optional[WorkerStats]:
        """Tear-free read of one slot; ``None`` if empty or contended."""
        if not (0 <= index < self.workers):
            raise IndexError(f"worker index {index} out of range "
                             f"0..{self.workers - 1}")
        buf = self._shm.buf
        off = _HEADER_SIZE + index * _SLOT_SIZE
        for _ in range(retries):
            seq0 = struct.unpack_from(_SEQ_FMT, buf, off)[0]
            if seq0 & 1:                        # write in progress
                time.sleep(0)
                continue
            payload = bytes(buf[off + _SEQ_SIZE:
                                off + _SEQ_SIZE + _PAYLOAD_SIZE])
            seq1 = struct.unpack_from(_SEQ_FMT, buf, off)[0]
            if seq0 != seq1:
                continue
            if seq0 == 0:                       # never written
                return None
            fields = struct.unpack(_PAYLOAD_FMT, payload)
            return WorkerStats(index, *fields)
        return None

    def read_all(self) -> List[Optional[WorkerStats]]:
        return [self.read_slot(i) for i in range(self.workers)]

    def partial_view(self, exclude_index: Optional[int] = None,
                     stale_after_s: float = DEFAULT_STALE_AFTER_S) -> dict:
        """Capacity-weighted load sums over live slots, minus one worker.

        This is the shape :class:`~repro.serving.coupling.
        LoadQualityCoupling` consumes as its ``fleet_view``: the caller
        (worker ``exclude_index``) supplies its own fresh admission
        snapshot and folds these sibling sums in.
        """
        now = time.monotonic()
        out = {"util_num": 0.0, "util_den": 0.0,
               "queue_depth": 0, "queue_limit": 0, "workers_live": 0}
        for s in self.read_all():
            if (s is None or s.index == exclude_index
                    or not s.is_live(now, stale_after_s)):
                continue
            weight = float(max(1, s.max_concurrency))
            out["util_num"] += s.utilization * weight
            out["util_den"] += weight
            out["queue_depth"] += s.queue_depth
            out["queue_limit"] += max(1, s.queue_limit)
            out["workers_live"] += 1
        return out

    def aggregate(self, stale_after_s: float = DEFAULT_STALE_AFTER_S,
                  slots: Optional[List[Optional[WorkerStats]]] = None,
                  now: Optional[float] = None) -> dict:
        """Fleet-level view over all live slots.

        ``load`` follows the composite formula of
        :class:`repro.serving.coupling.LoadQualityCoupling`:
        pool utilization plus queue pressure, with per-worker terms
        weighted by their pool/queue capacity so a big worker counts
        proportionally more than a small one.

        ``slots``/``now`` let a caller that already read the segment
        (the fleet ``/metrics`` renderer) aggregate the *same* snapshot
        it reports per worker, so one scrape is internally consistent.
        """
        if now is None:
            now = time.monotonic()
        if slots is None:
            slots = self.read_all()
        live = [s for s in slots if s is not None
                and s.is_live(now, stale_after_s)]
        util_num = util_den = 0.0
        queue_num = queue_den = 0.0
        agg = {
            "workers": self.workers,
            "workers_live": len(live),
            "requests_served": 0,
            "requests_shed": 0,
            "connections_accepted": 0,
            "connections_active": 0,
            "busy": 0,
            "queue_depth": 0,
            "max_concurrency": 0,
            "queue_limit": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_evictions": 0,
            "cache_invalidations": 0,
            "responses_304": 0,
        }
        for s in live:
            agg["requests_served"] += s.requests_served
            agg["requests_shed"] += s.requests_shed
            agg["connections_accepted"] += s.connections_accepted
            agg["connections_active"] += s.connections_active
            agg["busy"] += s.busy
            agg["queue_depth"] += s.queue_depth
            agg["max_concurrency"] += s.max_concurrency
            agg["queue_limit"] += s.queue_limit
            agg["cache_hits"] += s.cache_hits
            agg["cache_misses"] += s.cache_misses
            agg["cache_evictions"] += s.cache_evictions
            agg["cache_invalidations"] += s.cache_invalidations
            agg["responses_304"] += s.responses_304
            weight = float(max(1, s.max_concurrency))
            util_num += s.utilization * weight
            util_den += weight
            queue_num += float(s.queue_depth)
            queue_den += float(max(1, s.queue_limit))
        utilization = (util_num / util_den) if util_den else 0.0
        queue_pressure = (queue_num / queue_den) if queue_den else 0.0
        agg["utilization"] = utilization
        agg["queue_pressure"] = queue_pressure
        agg["load"] = utilization + queue_pressure
        return agg


def publish_server_stats(writer: WorkerStatsWriter, server, *, pid: int,
                         generation: int, state: int, port: int = 0,
                         admission=None) -> None:
    """Publish a live ``_ServerCore``-compatible server into a slot.

    ``server`` only needs the counters every repro HTTP server exposes
    (``requests_served``, ``requests_shed``, ``connections_active``,
    ``connections_accepted``); admission detail comes from the
    controller's ``snapshot()`` when one is wired, and response-cache
    counters from the server's ``quality_stats`` callable when the
    application installed one (capacity evictions and TTL expirations are
    folded into one eviction figure).
    """
    busy = queue_depth = max_concurrency = queue_limit = 0
    utilization = p95 = 0.0
    hits = misses = evictions = invalidations = 0
    quality_stats = getattr(server, "quality_stats", None)
    if quality_stats is not None:
        try:
            quality = quality_stats() or {}
        except Exception:
            quality = {}
        cache = quality.get("cache") or {}
        hits = cache.get("hits", 0)
        misses = cache.get("misses", 0)
        evictions = cache.get("evictions", 0) + cache.get("expirations", 0)
        invalidations = (cache.get("invalidations", 0)
                         + cache.get("flushes", 0))
    if admission is not None:
        snap = admission.snapshot()
        busy = snap.get("busy", 0)
        queue_depth = snap.get("queue_depth", 0)
        max_concurrency = snap.get("max_concurrency", 0)
        queue_limit = snap.get("queue_limit", 0)
        utilization = snap.get("utilization") or 0.0
        p95 = snap.get("p95_service_s") or 0.0
    writer.publish(
        pid=pid, generation=generation, state=state,
        requests_served=getattr(server, "requests_served", 0),
        requests_shed=getattr(server, "requests_shed", 0),
        connections_accepted=getattr(server, "connections_accepted", 0),
        connections_active=getattr(server, "_active_connections", 0),
        busy=busy, queue_depth=queue_depth,
        max_concurrency=max_concurrency, queue_limit=queue_limit,
        utilization=utilization, p95_service_s=p95, port=port,
        cache_hits=hits, cache_misses=misses, cache_evictions=evictions,
        cache_invalidations=invalidations,
        responses_304=getattr(server, "responses_304", 0))
