"""Prefork reactor fleet: multi-core scale-out on one listen port.

The selector reactor (PR 5) deliberately runs one event-loop thread, so
one process tops out at roughly one core — the GIL, not the hardware, is
the ceiling.  :class:`FleetServer` removes it the classic prefork way:

* **fork N workers** (default ``os.cpu_count()``), each running an
  unmodified :class:`~repro.http11.ReactorHttpServer` +
  ``_ServerCore`` — admission control, deadline shedding, quality
  coupling, pipelining all behave exactly as in a single process;
* all workers accept on **one port**: each worker binds its own
  ``SO_REUSEPORT`` listener and the kernel load-balances the accept
  queue (Linux; without the option the constructor raises ``OSError``);
* the **parent supervises**: crash detection with bounded exponential
  respawn backoff, :meth:`rolling_restart` (drain one worker at a time,
  zero in-flight calls lost), SIGTERM fan-out on :meth:`close`;
* every worker publishes its admission/shed/pool counters into a
  :class:`~repro.serving.shm_stats.FleetStats` shared-memory segment
  (seqlock reads, no locks), which feeds two consumers: the parent's
  **control-port** ``/healthz`` (per-worker + aggregate load) and each
  worker's :class:`~repro.serving.coupling.LoadQualityCoupling`, whose
  ``fleet_view`` makes quality degrade against *fleet* load, not the
  slice of traffic one shard happened to receive.

Cross-process PBIO format consistency needs no new machinery: each
worker learns a client's announced formats exactly as a fresh server
does (the announcement rides the first message of each per-connection
session, and registry construction is deterministic across forked
workers), so a client announced to worker A round-trips through
worker B — ``tests/serving/test_fleet.py`` proves it differentially.

See ``docs/serving-fleet.md`` for topology diagrams and the control
``/healthz`` schema.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from typing import Callable, List, Optional

from ..http11.messages import Request, Response
from ..http11.reactor import ReactorHttpServer
from ..http11.server import set_reuse_port
from .metrics import CONTENT_TYPE, render_fleet_metrics
from .shm_stats import (DEFAULT_STALE_AFTER_S, STATE_DRAINING, STATE_READY,
                        STATE_STOPPED, FleetStats, publish_server_stats)


__all__ = ["FleetServer", "WorkerContext"]


class WorkerContext:
    """What a worker factory sees: who am I, and how loaded is the fleet.

    Passed to ``handler_factory(ctx)`` and ``worker_config(ctx)`` inside
    the freshly forked worker.  ``fleet_view`` is ready to hand to
    :class:`~repro.serving.coupling.LoadQualityCoupling` — it returns the
    sibling workers' capacity-weighted load sums from shared memory.
    """

    def __init__(self, index: int, workers: int, generation: int,
                 stats: FleetStats, stale_after_s: float) -> None:
        self.index = index
        self.workers = workers
        self.generation = generation
        self.stats = stats
        self.stale_after_s = stale_after_s

    def fleet_view(self) -> dict:
        return self.stats.partial_view(exclude_index=self.index,
                                       stale_after_s=self.stale_after_s)


class _WorkerConfig:
    """Everything a forked worker needs (passed in memory, never pickled)."""

    __slots__ = ("index", "workers", "generation", "host", "port",
                 "backlog", "stats_name", "publish_interval_s",
                 "stale_after_s", "drain_s", "handler_factory",
                 "worker_config", "close_in_child")

    def __init__(self, **kw) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])


def _worker_main(cfg: _WorkerConfig) -> None:
    """Body of one fleet worker process."""
    for sock in cfg.close_in_child:
        try:
            sock.close()
        except OSError:        # pragma: no cover - best effort
            pass
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    stats = FleetStats.attach(cfg.stats_name)
    ctx = WorkerContext(cfg.index, cfg.workers, cfg.generation, stats,
                        cfg.stale_after_s)
    made = cfg.handler_factory(ctx)
    # A factory may return (handler, extra_server_kwargs) so the handler's
    # own plumbing (e.g. a SoapBinService's ``quality_stats`` callable and
    # per-worker cache budget) rides along; ``worker_config(ctx)`` output
    # is merged on top and wins on conflicts.
    if isinstance(made, tuple):
        handler, extra = made
        extra = dict(extra)
    else:
        handler, extra = made, {}
    if cfg.worker_config is not None:
        extra.update(cfg.worker_config(ctx))
    server = ReactorHttpServer(handler, host=cfg.host, port=cfg.port,
                               backlog=cfg.backlog, reuse_port=True, **extra)
    server.fleet_workers = cfg.workers
    server.fleet_index = cfg.index
    writer = stats.writer(cfg.index)
    pid = os.getpid()
    port = server.address[1]
    parent = os.getppid()

    def publish(state: int) -> None:
        publish_server_stats(writer, server, pid=pid,
                             generation=cfg.generation, state=state,
                             port=port, admission=server.admission)

    try:
        while not stop.is_set():
            publish(STATE_READY)
            if os.getppid() != parent:       # orphaned: parent is gone
                break
            stop.wait(cfg.publish_interval_s)
        publish(STATE_DRAINING)
        server.close(drain_s=cfg.drain_s)
        publish(STATE_STOPPED)
    finally:
        stats.close()


class _WorkerSlot:
    """Parent-side bookkeeping for one worker position in the fleet."""

    __slots__ = ("index", "proc", "generation", "spawned_at",
                 "fails", "next_spawn_at", "restarting", "failed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.generation = 0
        self.spawned_at = 0.0
        self.fails = 0
        self.next_spawn_at = 0.0
        self.restarting = False
        self.failed = False


class FleetServer:
    """Prefork fleet of reactor workers sharing one listen port.

    ``handler_factory(ctx)`` is called *inside each forked worker* and
    returns the request handler — or a ``(handler, extra_kwargs)`` tuple
    when the handler wants server plumbing of its own (a
    :class:`~repro.core.SoapBinService` returns its ``quality_stats``
    callable this way so per-worker cache counters reach ``/healthz`` and
    the fleet stats segment).  ``worker_config(ctx)``, when given, returns
    extra :class:`~repro.http11.ReactorHttpServer` keyword arguments
    (``admission``, ``load_coupling``, ``workers``, …) merged over the
    factory's — build them there, not in the parent, so every worker gets
    fresh admission state and a coupling wired to ``ctx.fleet_view``.

    The kernel balances accepts over the workers' ``SO_REUSEPORT``
    listeners.  A worker that dies takes its accept queue with it: those
    connections are reset, and clients retry onto a live worker.
    """

    def __init__(self, handler_factory: Callable[[WorkerContext], Callable],
                 *, workers: Optional[int] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 128,
                 worker_config: Optional[Callable[[WorkerContext], dict]]
                 = None,
                 control_host: str = "127.0.0.1",
                 control_port: Optional[int] = 0,
                 respawn: bool = True,
                 max_respawns: int = 5,
                 respawn_backoff_s: float = 0.1,
                 respawn_backoff_max_s: float = 2.0,
                 respawn_reset_s: float = 5.0,
                 publish_interval_s: float = 0.05,
                 stale_after_s: float = DEFAULT_STALE_AFTER_S,
                 drain_s: float = 5.0) -> None:
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.handler_factory = handler_factory
        self.worker_config = worker_config
        self.host = host
        self.backlog = backlog
        self.respawn = respawn
        self.max_respawns = max_respawns
        self.respawn_backoff_s = respawn_backoff_s
        self.respawn_backoff_max_s = respawn_backoff_max_s
        self.respawn_reset_s = respawn_reset_s
        self.publish_interval_s = publish_interval_s
        self.stale_after_s = stale_after_s
        self.drain_s = drain_s
        self.respawns_total = 0

        import multiprocessing
        self._mp = multiprocessing.get_context("fork")
        self._stats = FleetStats.create(self.workers)
        self._lock = threading.Lock()
        self._running = True

        # A bound-but-never-listening placeholder pins the port in the
        # parent: workers each bind+listen their own SO_REUSEPORT socket
        # on it, and the port survives every worker restarting at once.
        # Without the option this raises before any worker is forked.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            set_reuse_port(sock)
            sock.bind((host, port))
            self.address = sock.getsockname()
        except BaseException:
            sock.close()
            self._stats.close()
            raise
        self._placeholder = sock

        self._slots = [_WorkerSlot(i) for i in range(self.workers)]
        for slot in self._slots:
            self._spawn(slot)

        self._supervisor = threading.Thread(target=self._supervise,
                                            name="fleet-supervisor",
                                            daemon=True)
        self._supervisor.start()

        # Control-port health endpoint (None disables it).  One handler
        # slot is plenty: probes are rare and short.  The control server's
        # own built-in paths are parked elsewhere so /healthz and /metrics
        # both reach the fleet handler below.
        self._control: Optional[ReactorHttpServer] = None
        if control_port is not None:
            self._control = ReactorHttpServer(
                self._control_handler, host=control_host, port=control_port,
                workers=1, health_path="/__control_self",
                metrics_path="/__control_self_metrics")
        self.control_address = (self._control.address
                                if self._control is not None else None)

    # ------------------------------------------------------------------
    # spawning and supervision
    # ------------------------------------------------------------------
    def _spawn(self, slot: _WorkerSlot) -> None:
        """Fork one worker into ``slot`` (parent side).  Lock not held."""
        slot.generation += 1
        cfg = _WorkerConfig(
            index=slot.index, workers=self.workers,
            generation=slot.generation, host=self.host,
            port=self.address[1], backlog=self.backlog,
            stats_name=self._stats.name,
            publish_interval_s=self.publish_interval_s,
            stale_after_s=self.stale_after_s, drain_s=self.drain_s,
            handler_factory=self.handler_factory,
            worker_config=self.worker_config,
            close_in_child=[self._placeholder])
        proc = self._mp.Process(target=_worker_main, args=(cfg,),
                                name=f"fleet-worker-{slot.index}",
                                daemon=True)
        proc.start()
        with self._lock:
            slot.proc = proc
            slot.spawned_at = time.monotonic()

    def _supervise(self) -> None:
        """Crash detection + bounded-backoff respawn."""
        while self._running:
            time.sleep(0.05)
            now = time.monotonic()
            for slot in self._slots:
                if not self._running:
                    return
                with self._lock:
                    proc = slot.proc
                    skip = (slot.restarting or slot.failed or proc is None)
                if skip or proc.is_alive():
                    if (not skip and slot.fails
                            and now - slot.spawned_at > self.respawn_reset_s):
                        slot.fails = 0   # stayed up: forgive old crashes
                    continue
                proc.join(timeout=0)     # reap
                if not self.respawn:
                    continue
                if slot.next_spawn_at == 0.0:
                    slot.fails += 1
                    if slot.fails > self.max_respawns:
                        slot.failed = True
                        continue
                    delay = min(
                        self.respawn_backoff_s * (2 ** (slot.fails - 1)),
                        self.respawn_backoff_max_s)
                    slot.next_spawn_at = now + delay
                if now >= slot.next_spawn_at:
                    slot.next_spawn_at = 0.0
                    self.respawns_total += 1
                    self._spawn(slot)

    # ------------------------------------------------------------------
    # fleet state (parent side)
    # ------------------------------------------------------------------
    def worker_pids(self) -> List[Optional[int]]:
        with self._lock:
            return [s.proc.pid if s.proc is not None else None
                    for s in self._slots]

    def stats(self) -> FleetStats:
        return self._stats

    def aggregate(self) -> dict:
        return self._stats.aggregate(stale_after_s=self.stale_after_s)

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until every (non-failed) worker publishes ``ready``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pids = self.worker_pids()
            ready = 0
            want = 0
            for slot in self._slots:
                if slot.failed:
                    continue
                want += 1
                snap = self._stats.read_slot(slot.index)
                if (snap is not None and snap.state == STATE_READY
                        and snap.pid == pids[slot.index]):
                    ready += 1
            if want and ready == want:
                return True
            time.sleep(0.01)
        return False

    def describe(self) -> dict:
        """The control ``/healthz`` payload (also handy in tests)."""
        agg = self.aggregate()
        with self._lock:
            slots = [{
                "index": s.index,
                "pid": s.proc.pid if s.proc is not None else None,
                "alive": bool(s.proc is not None and s.proc.is_alive()),
                "generation": s.generation,
                "restarting": s.restarting,
                "failed": s.failed,
                "respawn_fails": s.fails,
            } for s in self._slots]
        published = [s.to_dict() if s is not None else None
                     for s in self._stats.read_all()]
        live = agg["workers_live"]
        state = ("stopped" if not self._running
                 else "ready" if live == self.workers
                 else "degraded" if live else "down")
        return {
            "state": state,
            "pid": os.getpid(),
            "address": list(self.address),
            "workers": self.workers,
            "workers_live": live,
            "respawns_total": self.respawns_total,
            "aggregate": agg,
            "supervisor": slots,
            "fleet": published,
        }

    def _control_handler(self, request: Request) -> Response:
        if request.method != "GET":
            return Response.text(405, "GET only")
        if request.target == "/metrics":
            return self._metrics_control_response()
        payload = self.describe()
        response = Response(
            status=200 if payload["workers_live"] else 503,
            body=json.dumps(payload, sort_keys=True).encode("utf-8"))
        response.headers.set("Content-Type", "application/json")
        return response

    def _metrics_control_response(self) -> Response:
        """Fleet-wide Prometheus exposition on the control port.

        Per-worker series and fleet aggregates come from one shared-memory
        read (see :func:`repro.serving.metrics.fleet_families`), so a
        single scrape is internally consistent.  Like the workers' own
        ``/metrics``, it never 500s.
        """
        error = None
        try:
            body = render_fleet_metrics(self)
        except Exception as exc:  # noqa: BLE001 - scrape must never 500
            body, error = b"", exc
        response = Response(status=200, body=body)
        response.headers.set("Content-Type", CONTENT_TYPE)
        if error is not None:
            response.headers.set("X-Metrics-Error",
                                 f"{type(error).__name__}: {error}")
        return response

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Send ``sig`` to worker ``index`` (tests, ops).  Returns pid."""
        with self._lock:
            proc = self._slots[index].proc
        if proc is None or proc.pid is None:
            raise RuntimeError(f"worker {index} is not running")
        os.kill(proc.pid, sig)
        if sig == signal.SIGKILL:
            # Reap before returning: until the victim is actually gone,
            # its listener is still in the SO_REUSEPORT group, and a
            # connection the kernel queues there dies (client reset) with
            # the process.
            proc.join(timeout=5.0)
        return proc.pid

    def rolling_restart(self, drain_s: Optional[float] = None,
                        spawn_timeout_s: float = 10.0) -> None:
        """Restart every worker, one at a time, losing no in-flight calls.

        Per slot: SIGTERM the worker (it publishes ``draining``, closes
        its listener, which takes it out of the kernel's accept rotation,
        finishes every accepted call under its drain bound, then exits),
        fork the replacement, and wait for
        the replacement to publish ``ready`` before moving on — so N-1
        workers carry traffic at every instant.
        """
        if drain_s is None:
            drain_s = self.drain_s
        for slot in self._slots:
            with self._lock:
                proc = slot.proc
                if proc is None or not proc.is_alive():
                    continue
                slot.restarting = True   # supervisor hands off
            try:
                os.kill(proc.pid, signal.SIGTERM)
                proc.join(timeout=drain_s + 5.0)
                if proc.is_alive():      # drain bound blown: force it
                    proc.terminate()
                    proc.join(timeout=2.0)
                self._spawn(slot)
                deadline = time.monotonic() + spawn_timeout_s
                while time.monotonic() < deadline:
                    snap = self._stats.read_slot(slot.index)
                    with self._lock:
                        pid = (slot.proc.pid if slot.proc is not None
                               else None)
                    if (snap is not None and snap.state == STATE_READY
                            and snap.pid == pid):
                        break
                    time.sleep(0.01)
            finally:
                with self._lock:
                    slot.restarting = False

    def close(self, drain_s: Optional[float] = None) -> None:
        """SIGTERM fan-out, join workers, release the port and segment."""
        if not self._running:
            return
        self._running = False
        with self._lock:
            procs = [s.proc for s in self._slots
                     if s.proc is not None and s.proc.is_alive()]
        for proc in procs:               # fan-out first, then join: the
            try:                         # fleet drains in parallel
                os.kill(proc.pid, signal.SIGTERM)
            except (OSError, TypeError):
                pass
        join_s = (drain_s if drain_s is not None else self.drain_s) + 5.0
        for proc in procs:
            proc.join(timeout=join_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        try:
            self._placeholder.close()
        except OSError:
            pass
        if self._control is not None:
            self._control.close()
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)
        self._stats.close()

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
