"""Distributed load-generation harness (``python -m repro.bench.loadgen``).

``repro.bench.regress`` is a single-process loopback probe: fine for
regression ratios, structurally unable to say how the serving stack
behaves under sustained, mixed, multi-core load.  This module is the
standing judgment instrument the ROADMAP calls for:

* a coordinator forks N **generator processes** (fork start method, so
  load generation is never GIL-bound against the server under test),
  each running
  ``concurrency`` client threads;
* every thread drives a configurable **traffic mix**: binary SOAP-bin
  calls over keep-alive, XML SOAP calls, depth-k pipelined
  ``call_many()`` batches, and multi-megabyte ``largemsg`` record
  streams over the reactor's chunked stream routes, with a
  **cache-hit-ratio knob** (``value_pool``
  — how many distinct request values circulate; 1 means every request is
  identical and the server's content-addressed cache converges to all
  hits);
* arrivals are **closed-loop** (each thread back-to-back, concurrency-
  bound) or **open-loop** (a target aggregate RPS with Poisson or uniform
  inter-arrival times, so the harness keeps offering load while the
  server queues);
* the server under test is the ``reactor`` or a prefork ``fleet`` of
  them, built in-process with admission control and load-coupled
  quality, or an ``external`` address;
* the coordinator samples server-side **RSS + CPU from /proc** once a
  second, scrapes ``/metrics`` before and after the measurement window
  (so the report can assert the induced load against the server's own
  counters), and folds the generators' per-second
  :class:`~repro.bench.timers.LogHistogram` buckets into
  ``LOADGEN_report.json`` plus a self-contained HTML report with
  time-series charts (:mod:`repro.bench.loadgen_report`).

Latency percentiles are bucketed, not sampled: every observation lands
in a mergeable log-spaced histogram, so p50/p95/p99 are exact to bucket
resolution (~±10%) regardless of how many million calls the run makes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field, asdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..pbio import WIRE_MODES, Format, FormatRegistry
from .timers import LogHistogram, rss_kb

SCHEMA_VERSION = 1

KINDS = ("binary", "xml", "pipelined", "largemsg")
SERVER_SHAPES = ("reactor", "fleet", "external")
ARRIVALS = ("poisson", "uniform")
MODES = ("closed", "open")

#: The echo workload: full-fidelity and load-degraded reply formats.
ECHO_REQUEST = Format.from_dict(
    "LoadEcho", {"seq": "int32", "payload": "float64[]"})
ECHO_REPLY = ECHO_REQUEST
ECHO_REPLY_LITE = Format.from_dict("LoadEchoLite", {"seq": "int32"})

#: Server-load-coupled quality policy: above the threshold the reply
#: drops its payload field, so a saturating profile produces visible
#: quality transitions (``repro_quality_switches_total``).
QUALITY_FILE = """
attribute server_load
history 2
0.0 0.85 - LoadEcho
0.85 inf - LoadEchoLite
"""

#: The large-message workload: PBIO record streams pushed through the
#: reactor's chunked stream route and echoed back record by record, so
#: multi-megabyte requests never materialize whole on the server.
STREAM_ROUTE = "/stream"
STREAM_RECORD = Format.from_dict(
    "LoadStreamRecord", {"seq": "int32", "data": "float64[]"})


def _stream_registry() -> FormatRegistry:
    registry = FormatRegistry()
    registry.register(STREAM_RECORD)
    return registry


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass
class LoadgenConfig:
    """Everything one run needs; JSON-serialized into the report."""

    profile: str = "mixed"
    #: traffic mix weights by kind (normalized at use)
    mix: Dict[str, float] = field(
        default_factory=lambda: {"binary": 0.5, "xml": 0.25,
                                 "pipelined": 0.25})
    duration_s: float = 10.0
    #: forked generator processes
    generators: int = 2
    #: client threads per generator
    concurrency: int = 4
    #: "closed" (back-to-back) or "open" (target-RPS arrivals)
    mode: str = "closed"
    #: aggregate target requests/s for open-loop mode
    rps: float = 500.0
    arrivals: str = "poisson"
    #: pipeline depth for the pipelined kind
    depth: int = 8
    #: sub-calls per call_many batch
    batch: int = 16
    #: distinct request values in circulation (1 = max cache hits)
    value_pool: int = 8
    payload_elements: int = 256
    #: server under test: reactor/fleet (in-process) or external
    server: str = "reactor"
    #: worker processes for the fleet shape
    workers: int = 2
    #: "host:port" when server == "external"
    target: Optional[str] = None
    #: admission sizing for the in-process server
    admission_concurrency: int = 8
    admission_queue: int = 32
    #: per-call retry budget (1 = never retry); >1 wraps every kind but
    #: pipelined in call_with_policy so CallMeta retry counts land in
    #: the report
    retry_attempts: int = 1
    #: wire representation for both sides: auto (negotiate), native,
    #: or compact
    wire: str = "auto"
    #: bytes streamed per largemsg request (before framing overhead)
    largemsg_bytes: int = 4 << 20
    #: float64 elements per streamed record (~8 bytes each)
    largemsg_record_elements: int = 16_384
    seed: int = 1

    def validate(self) -> None:
        if self.server not in SERVER_SHAPES:
            raise ValueError(f"server must be one of {SERVER_SHAPES}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.arrivals not in ARRIVALS:
            raise ValueError(f"arrivals must be one of {ARRIVALS}")
        if self.wire not in WIRE_MODES:
            raise ValueError(f"wire must be one of {WIRE_MODES}")
        if self.server == "external" and not self.target:
            raise ValueError("server='external' requires target='host:port'")
        unknown = set(self.mix) - set(KINDS)
        if unknown:
            raise ValueError(f"unknown mix kinds {sorted(unknown)}; "
                             f"choose from {KINDS}")
        if not any(w > 0 for w in self.mix.values()):
            raise ValueError("mix needs at least one positive weight")
        for name in ("duration_s", "generators", "concurrency", "depth",
                     "batch", "value_pool", "payload_elements", "workers",
                     "retry_attempts", "largemsg_bytes",
                     "largemsg_record_elements"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mix.get("largemsg", 0) > 0:
            if any(w > 0 for k, w in self.mix.items() if k != "largemsg"):
                raise ValueError(
                    "the largemsg kind drives a chunked stream route, "
                    "not the echo endpoint, and cannot be mixed with "
                    "other kinds")
            if self.server not in ("reactor", "external"):
                raise ValueError(
                    "the largemsg kind needs incremental stream routes; "
                    "only the reactor shape (or an external reactor) "
                    "serves them")


#: Built-in traffic profiles (overridable field by field via the CLI).
PROFILES: Dict[str, Dict[str, Any]] = {
    "mixed": {"mix": {"binary": 0.5, "xml": 0.25, "pipelined": 0.25}},
    "binary": {"mix": {"binary": 1.0}},
    "xml": {"mix": {"xml": 1.0}},
    "pipelined": {"mix": {"pipelined": 1.0}},
    # every request identical: the content-addressed cache tier converges
    # to all hits, so cache_hits dominates the metrics delta
    "cachehit": {"mix": {"binary": 1.0}, "value_pool": 1},
    # tiny admission pool + aggressive closed-loop concurrency: drives
    # composite load past the quality threshold so shed counters and
    # quality transitions become visible (binary-only: degraded XML
    # replies are exercised by tier-1 tests, not under overload here)
    "saturate": {"mix": {"binary": 1.0}, "concurrency": 16,
                 "admission_concurrency": 2, "admission_queue": 4,
                 "payload_elements": 2048},
    # the constant-memory large-message path: every request streams a
    # multi-megabyte PBIO record stream through the reactor's chunked
    # stream route and reads the echo back frame by frame, so the
    # report's RSS series stays flat while streamed-bytes counters climb
    "largemsg": {"mix": {"largemsg": 1.0}, "server": "reactor",
                 "concurrency": 2},
}


def config_for_profile(profile: str, **overrides: Any) -> LoadgenConfig:
    """A :class:`LoadgenConfig` for a named profile plus overrides."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from "
                         f"{sorted(PROFILES)}")
    merged: Dict[str, Any] = {"profile": profile}
    merged.update(PROFILES[profile])
    merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = LoadgenConfig(**merged)
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------

def _build_echo_service(wire: str = "auto"):
    """A quality-managed SOAP-bin echo service for the harness.

    The echo handler returns the request value unchanged, so requests
    drawn from a small ``value_pool`` produce identical responses and the
    content-addressed cache tier can win; the ``server_load`` policy
    degrades the reply format under saturation.
    """
    from ..core import SoapBinService
    registry = FormatRegistry()
    registry.register(ECHO_REQUEST)
    registry.register(ECHO_REPLY_LITE)
    service = SoapBinService(registry, quality_text=QUALITY_FILE,
                             wire=wire)
    service.add_operation("Echo", ECHO_REQUEST, ECHO_REPLY,
                          lambda params: params)
    return service


def _protection(cfg: LoadgenConfig, quality, fleet_view=None):
    from ..serving import AdmissionController, LoadQualityCoupling
    admission = AdmissionController(
        max_concurrency=cfg.admission_concurrency,
        queue_limit=cfg.admission_queue)
    coupling = LoadQualityCoupling(quality, admission,
                                   fleet_view=fleet_view)
    return admission, coupling


class _ServerUnderTest:
    """The in-process reactor or fleet, or an external target.

    Owns everything the coordinator needs afterwards: the app address,
    the scrape address (+ path semantics are identical), and the pids to
    sample from ``/proc``.
    """

    def __init__(self, cfg: LoadgenConfig, port: int = 0) -> None:
        self.cfg = cfg
        self.shape = cfg.server
        self._server = None
        self._fleet = None
        if self.shape == "external":
            host, _, target_port = cfg.target.rpartition(":")
            self.address: Tuple[str, int] = (host or "127.0.0.1",
                                             int(target_port))
            self.scrape_address = self.address
            return
        if self.shape == "fleet":
            from ..serving import FleetServer
            from ..transport import endpoint_http_handler

            def factory(ctx):
                # runs in the forked worker: fresh service per process
                service = _build_echo_service(cfg.wire)
                admission, coupling = _protection(
                    cfg, service.quality, fleet_view=ctx.fleet_view)
                return (endpoint_http_handler(service.endpoint),
                        {"admission": admission, "load_coupling": coupling,
                         "quality_stats": service.quality_stats})

            self._fleet = FleetServer(factory, workers=cfg.workers,
                                      port=port)
            if not self._fleet.wait_ready(20.0):
                self._fleet.close()
                raise RuntimeError("fleet workers never became ready")
            self.address = self._fleet.address
            self.scrape_address = self._fleet.control_address
            return
        from ..transport import serve_endpoint
        service = _build_echo_service(cfg.wire)
        admission, coupling = _protection(cfg, service.quality)
        server_kwargs: Dict[str, Any] = {}
        if cfg.mix.get("largemsg", 0) > 0:
            from ..pbio import pbio_stream_route
            server_kwargs["stream_routes"] = {
                STREAM_ROUTE: pbio_stream_route(_stream_registry(),
                                                wire=cfg.wire)}
        self._server = serve_endpoint(
            service.endpoint, port=port,
            admission=admission, load_coupling=coupling,
            quality_stats=service.quality_stats, backlog=512,
            **server_kwargs)
        self.address = self._server.address
        self.scrape_address = self.address

    def pids(self) -> List[int]:
        if self.shape == "external":
            return []
        if self._fleet is not None:
            return [pid for pid in self._fleet.worker_pids()
                    if pid is not None]
        return [os.getpid()]

    #: metric whose before/after delta counts the app requests the run
    #: pushed through admission (fleet publishes served, not admitted)
    @property
    def induced_counter(self) -> str:
        if self._fleet is not None:
            return "repro_fleet_requests_served_total"
        if self.cfg.mix.get("largemsg", 0) > 0:
            # stream routes run on the owner thread, outside admission
            return "repro_http_chunked_requests_total"
        return "repro_admission_admitted_total"

    def scrape(self) -> Optional[Dict[str, float]]:
        from ..http11 import HttpConnection
        from ..serving.metrics import parse_exposition
        try:
            with HttpConnection(self.scrape_address, timeout=10.0) as conn:
                response = conn.get("/metrics")
            if response.status != 200:
                return None
            return parse_exposition(response.body.decode("utf-8"))
        except Exception:  # noqa: BLE001 - external targets may lack it
            return None

    def close(self) -> None:
        if self._fleet is not None:
            self._fleet.close()
        if self._server is not None:
            self._server.close()


# ----------------------------------------------------------------------
# /proc sampling (server-side RSS + CPU)
# ----------------------------------------------------------------------

def _proc_cpu_ticks(pid: int) -> int:
    """utime+stime clock ticks (fields 14/15 of ``/proc/<pid>/stat``)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
        # the comm field may contain spaces/parens; split after it
        fields = raw.rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])
    except (OSError, IndexError, ValueError):
        return 0


class _ProcSampler(threading.Thread):
    """Samples RSS and CPU% of the server pids once per second."""

    def __init__(self, pids: List[int]) -> None:
        super().__init__(name="loadgen-proc-sampler", daemon=True)
        self.pids = pids
        self.samples: List[Dict[str, float]] = []
        self._halt = threading.Event()
        try:
            self._clk_tck = os.sysconf("SC_CLK_TCK")
        except (ValueError, OSError, AttributeError):
            self._clk_tck = 100

    def run(self) -> None:
        if not self.pids:
            return
        start = time.monotonic()
        last_t = start
        last_ticks = sum(_proc_cpu_ticks(pid) for pid in self.pids)
        while not self._halt.wait(1.0):
            now = time.monotonic()
            ticks = sum(_proc_cpu_ticks(pid) for pid in self.pids)
            dt = max(1e-9, now - last_t)
            cpu_pct = ((ticks - last_ticks) / self._clk_tck) / dt * 100.0
            self.samples.append({
                "t": round(now - start, 3),
                "rss_kb": sum(rss_kb(pid) for pid in self.pids),
                "cpu_pct": round(max(0.0, cpu_pct), 2),
            })
            last_t, last_ticks = now, ticks

    def stop(self) -> List[Dict[str, float]]:
        self._halt.set()
        if self.is_alive():
            self.join(timeout=5.0)
        return self.samples


# ----------------------------------------------------------------------
# generator process
# ----------------------------------------------------------------------

class SheddedError(Exception):
    """Raised by the XML status channel when the server answers 503."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"shed: {reason}")
        self.reason = reason


class _XmlStatusChannel:
    """HttpChannel wrapper turning 503 replies into typed shed errors.

    ``SoapClient`` parses every reply body as XML; a 503 shed reply is
    plain text and would surface as an opaque parse error.  Raising here,
    at the channel boundary, keeps the generator's shed/error
    classification exact for the XML kind too.
    """

    def __init__(self, channel) -> None:
        self._channel = channel

    def call(self, body, content_type, headers=None):
        reply = self._channel.call(body, content_type, headers)
        if reply.status == 503:
            raise SheddedError(
                reply.headers.get("X-Shed-Reason", "overloaded"))
        return reply

    def close(self) -> None:
        self._channel.close()


def _exc_chain(exc: BaseException):
    seen = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        yield current
        current = current.__cause__


def _is_shed(exc: BaseException) -> bool:
    for err in _exc_chain(exc):
        if isinstance(err, SheddedError):
            return True
        text = str(err)
        if "status 503" in text or "overloaded" in text \
                or "shed:" in text:
            return True
    return False


def _shed_reason(exc: BaseException) -> str:
    """The server's ``X-Shed-Reason``, recovered from the error shape.

    The XML channel carries it verbatim on :class:`SheddedError`; the
    binary kinds see the 503 *body* (``overloaded: <reason>``) quoted
    inside the protocol error text, so the reason is parsed back out of
    it.  Anything else — e.g. an injected 503 with a different body —
    classifies as ``unknown`` rather than being dropped.
    """
    for err in _exc_chain(exc):
        if isinstance(err, SheddedError):
            return err.reason
        text = str(err)
        if "overloaded:" in text:
            tail = text.split("overloaded:", 1)[1].strip()
            if tail:
                return tail.split()[0].strip(",.;")
    return "unknown"


class _Recorder:
    """Per-thread run ledger: totals and per-second histogram buckets."""

    def __init__(self) -> None:
        self.by_kind: Dict[str, Dict[str, Any]] = {
            kind: {"requests": 0, "errors": 0, "shed": 0, "retries": 0,
                   "streamed_bytes": 0, "shed_by_reason": {},
                   "hist": LogHistogram(), "max_s": 0.0}
            for kind in KINDS}
        self.seconds: Dict[int, Dict[str, Any]] = {}

    def _second(self, t_rel: float) -> Dict[str, Any]:
        key = int(t_rel)
        bucket = self.seconds.get(key)
        if bucket is None:
            bucket = self.seconds[key] = {
                "requests": 0, "errors": 0, "shed": 0,
                "hist": LogHistogram()}
        return bucket

    def ok(self, kind: str, t_rel: float, latency_s: float,
           count: int = 1, retries: int = 0,
           streamed_bytes: int = 0) -> None:
        entry = self.by_kind[kind]
        entry["requests"] += count
        entry["retries"] += retries
        entry["streamed_bytes"] += streamed_bytes
        entry["max_s"] = max(entry["max_s"], latency_s)
        bucket = self._second(t_rel)
        bucket["requests"] += count
        for _ in range(count):
            entry["hist"].record(latency_s)
            bucket["hist"].record(latency_s)

    def failed(self, kind: str, t_rel: float, shed: bool,
               count: int = 1, reason: Optional[str] = None,
               retries: int = 0) -> None:
        key = "shed" if shed else "errors"
        entry = self.by_kind[kind]
        entry[key] += count
        entry["retries"] += retries
        if shed:
            reason = reason or "unknown"
            by_reason = entry["shed_by_reason"]
            by_reason[reason] = by_reason.get(reason, 0) + count
        self._second(t_rel)[key] += count

    def merge(self, other: "_Recorder") -> None:
        for kind, entry in other.by_kind.items():
            mine = self.by_kind[kind]
            mine["requests"] += entry["requests"]
            mine["errors"] += entry["errors"]
            mine["shed"] += entry["shed"]
            mine["retries"] += entry["retries"]
            mine["streamed_bytes"] += entry["streamed_bytes"]
            for reason, count in entry["shed_by_reason"].items():
                mine["shed_by_reason"][reason] = \
                    mine["shed_by_reason"].get(reason, 0) + count
            mine["max_s"] = max(mine["max_s"], entry["max_s"])
            mine["hist"].merge(entry["hist"])
        for key, bucket in other.seconds.items():
            if key in self.seconds:
                mine = self.seconds[key]
                mine["requests"] += bucket["requests"]
                mine["errors"] += bucket["errors"]
                mine["shed"] += bucket["shed"]
                mine["hist"].merge(bucket["hist"])
            else:
                self.seconds[key] = bucket

    def to_dict(self) -> Dict[str, Any]:
        return {
            "by_kind": {
                kind: {"requests": e["requests"], "errors": e["errors"],
                       "shed": e["shed"], "retries": e["retries"],
                       "streamed_bytes": e["streamed_bytes"],
                       "shed_by_reason": dict(e["shed_by_reason"]),
                       "max_s": e["max_s"],
                       "hist": e["hist"].to_dict()}
                for kind, e in self.by_kind.items()},
            "seconds": {
                str(key): {"requests": b["requests"],
                           "errors": b["errors"], "shed": b["shed"],
                           "hist": b["hist"].to_dict()}
                for key, b in self.seconds.items()},
        }


class _ClientSet:
    """One thread's clients, one per traffic kind actually in the mix."""

    def __init__(self, cfg: LoadgenConfig, address) -> None:
        from ..core import SoapBinClient, XmlQualityClient
        from ..transport import HttpChannel
        self._channels: List[Any] = []
        self.binary = self.xml = self.pipelined = None
        self.largemsg = None
        if cfg.mix.get("largemsg", 0) > 0:
            from ..http11 import HttpConnection
            from ..pbio import PbioSession
            self.largemsg = HttpConnection(address)
            self._channels.append(self.largemsg)
            registry = _stream_registry()
            # one send session and one sink session per thread: format
            # announcements prime on the first request and stay cached
            self._lm_session = PbioSession(registry, wire=cfg.wire)
            self._lm_sink_session = PbioSession(registry, wire=cfg.wire)
            record_bytes = cfg.largemsg_record_elements * 8
            self._lm_records = max(1, cfg.largemsg_bytes // record_bytes)
            self._lm_data = [float(i) % 97.0
                             for i in range(cfg.largemsg_record_elements)]
        if cfg.mix.get("binary", 0) > 0:
            channel = HttpChannel(address)
            self._channels.append(channel)
            self.binary = SoapBinClient(channel, self._client_registry(),
                                        wire=cfg.wire)
        if cfg.mix.get("xml", 0) > 0:
            # XmlQualityClient understands the message-type header, so it
            # keeps decoding when a saturating run degrades the reply
            # format; the status wrapper makes 503 sheds typed instead of
            # surfacing as XML parse errors
            channel = _XmlStatusChannel(HttpChannel(address))
            self._channels.append(channel)
            self.xml = XmlQualityClient(channel, self._client_registry())
        if cfg.mix.get("pipelined", 0) > 0:
            channel = HttpChannel(address, depth=cfg.depth)
            self._channels.append(channel)
            self.pipelined = SoapBinClient(channel,
                                           self._client_registry(),
                                           wire=cfg.wire)

    @staticmethod
    def _client_registry() -> FormatRegistry:
        registry = FormatRegistry()
        registry.register(ECHO_REQUEST)
        registry.register(ECHO_REPLY_LITE)
        return registry

    def warmup(self, values: List[Dict[str, Any]]) -> None:
        """Prime announcements and connections before the gun."""
        value = values[0]
        if self.binary is not None:
            self.binary.call("Echo", value, ECHO_REQUEST, ECHO_REPLY)
        if self.xml is not None:
            self.xml.call("Echo", value, ECHO_REQUEST, ECHO_REPLY)
        if self.pipelined is not None:
            self.pipelined.call_many("Echo", [value, value],
                                     ECHO_REQUEST, ECHO_REPLY)
        if self.largemsg is not None:
            self.largemsg_stream(records=1)
    def largemsg_stream(self, records: Optional[int] = None) -> int:
        """One large-message request: push a PBIO record stream up the
        chunked route and drain the echoed stream frame by frame.

        Neither side ever holds the payload whole — the sender yields
        one frame at a time, the reader decodes per reply chunk.
        Returns the framed bytes sent, which is exactly what the
        server's ``streamed_bytes_in`` counter accounts.
        """
        from ..pbio import RecordStreamReader, iter_frames
        nrecords = self._lm_records if records is None else records
        sent = 0

        def produce():
            for seq in range(nrecords):
                yield STREAM_RECORD, {"seq": seq, "data": self._lm_data}

        def frames():
            nonlocal sent
            for frame in iter_frames(self._lm_session, produce()):
                sent += len(frame)
                yield frame

        response = self.largemsg.stream(
            STREAM_ROUTE, frames(),
            content_type="application/x-pbio-stream")
        if response.status != 200:
            body = response.read()
            raise RuntimeError(f"largemsg stream: status "
                               f"{response.status} {body[:80]!r}")
        sink = RecordStreamReader(self._lm_sink_session)
        echoed = 0
        for chunk in response.iter_chunks():
            echoed += len(sink.feed(chunk))
        sink.finish()
        if echoed != nrecords:
            raise RuntimeError(f"largemsg stream: {echoed}/{nrecords} "
                               "records echoed")
        return sent

    def close(self) -> None:
        for channel in self._channels:
            try:
                channel.close()
            except Exception:  # noqa: BLE001 - teardown
                pass


def _make_values(cfg: LoadgenConfig) -> List[Dict[str, Any]]:
    """The circulating request values.

    ``seq`` is the pool index, NOT a per-call counter: a request must be
    byte-identical on reuse for the server's content-addressed cache to
    see it again, which is the whole point of the ``value_pool`` knob.
    """
    import random
    rng = random.Random(cfg.seed)
    return [{"seq": i,
             "payload": [rng.random() for _ in range(cfg.payload_elements)]}
            for i in range(cfg.value_pool)]


def _generator_thread(cfg: LoadgenConfig, address, gen_index: int,
                      thread_index: int, warm_barrier: threading.Barrier,
                      start_evt, recorder: _Recorder,
                      failures: List[str]) -> None:
    import random
    rng = random.Random(cfg.seed * 1_000_003
                        + gen_index * 1009 + thread_index)
    values = _make_values(cfg)
    kinds = [k for k in KINDS if cfg.mix.get(k, 0) > 0]
    weights = [cfg.mix[k] for k in kinds]
    policy = None
    if cfg.retry_attempts > 1:
        from ..reliability import RetryPolicy, call_with_policy
        policy = RetryPolicy(max_attempts=cfg.retry_attempts,
                             deadline_s=30.0,
                             backoff_initial_s=0.01,
                             backoff_max_s=0.25)
    clients = None
    try:
        clients = _ClientSet(cfg, address)
        clients.warmup(values)
    except Exception as exc:  # noqa: BLE001 - reported to coordinator
        failures.append(f"generator {gen_index} thread {thread_index} "
                        f"warmup failed: {exc!r}")
        if clients is not None:
            clients.close()
        clients = None
    finally:
        try:
            warm_barrier.wait(timeout=60.0)
        except threading.BrokenBarrierError:
            pass
    if clients is None:
        return
    start_evt.wait()
    start = time.perf_counter()
    deadline = start + cfg.duration_s
    # open-loop: this thread owns an equal slice of the aggregate RPS
    thread_rate = cfg.rps / (cfg.generators * cfg.concurrency)
    next_at = start
    consecutive_failures = 0
    try:
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            if cfg.mode == "open":
                if cfg.arrivals == "poisson":
                    gap = rng.expovariate(thread_rate)
                else:
                    gap = 1.0 / thread_rate
                next_at = max(next_at + gap, now - 1.0)  # cap the backlog
                if next_at > now:
                    time.sleep(min(next_at - now, deadline - now))
                    now = time.perf_counter()
                    if now >= deadline:
                        break
            kind = rng.choices(kinds, weights)[0]
            t_rel = now - start
            if kind == "pipelined":
                batch = [values[rng.randrange(len(values))]
                         for _ in range(cfg.batch)]
                begun = time.perf_counter()
                results = clients.pipelined.call_many(
                    "Echo", batch, ECHO_REQUEST, ECHO_REPLY,
                    return_exceptions=True)
                per_call = (time.perf_counter() - begun) / len(batch)
                ok = err = 0
                shed_reasons: Dict[str, int] = {}
                for result in results:
                    if isinstance(result, BaseException):
                        if _is_shed(result):
                            reason = _shed_reason(result)
                            shed_reasons[reason] = \
                                shed_reasons.get(reason, 0) + 1
                        else:
                            err += 1
                    else:
                        ok += 1
                if ok:
                    recorder.ok(kind, t_rel, per_call, count=ok)
                for reason, count in shed_reasons.items():
                    recorder.failed(kind, t_rel, shed=True, count=count,
                                    reason=reason)
                if err:
                    recorder.failed(kind, t_rel, shed=False, count=err)
                consecutive_failures = 0 if ok else consecutive_failures + 1
            else:
                if kind == "largemsg":
                    attempt: Callable[[], Any] = clients.largemsg_stream
                else:
                    value = values[rng.randrange(len(values))]
                    client = (clients.binary if kind == "binary"
                              else clients.xml)
                    attempt = (lambda c=client, v=value:
                               c.call("Echo", v, ECHO_REQUEST, ECHO_REPLY))
                begun = time.perf_counter()
                retries = 0
                result: Any = None
                try:
                    if policy is None:
                        result = attempt()
                    else:
                        result, meta = call_with_policy(attempt, policy,
                                                        idempotent=True)
                        retries = meta.attempts - 1
                except Exception as exc:  # noqa: BLE001 - classified
                    meta = getattr(exc, "meta", None)
                    if meta is not None:
                        retries = meta.attempts - 1
                    shed = _is_shed(exc)
                    recorder.failed(
                        kind, t_rel, shed=shed,
                        reason=_shed_reason(exc) if shed else None,
                        retries=retries)
                    consecutive_failures += 1
                else:
                    recorder.ok(kind, t_rel,
                                time.perf_counter() - begun,
                                retries=retries,
                                streamed_bytes=(result if kind == "largemsg"
                                                else 0))
                    consecutive_failures = 0
            if consecutive_failures >= 50:
                # server gone or breaker-grade failure: back off so a
                # dead target doesn't turn the run into a CPU-bound
                # error loop that drowns the report in noise
                time.sleep(0.05)
                consecutive_failures = 0
    finally:
        clients.close()


def _generator_main(cfg: LoadgenConfig, gen_index: int, address,
                    ready_q, start_evt, out_q) -> None:
    """Body of one forked generator process."""
    recorders = [_Recorder() for _ in range(cfg.concurrency)]
    failures: List[str] = []
    warm_barrier = threading.Barrier(cfg.concurrency + 1)
    threads = [
        threading.Thread(
            target=_generator_thread,
            args=(cfg, address, gen_index, i, warm_barrier, start_evt,
                  recorders[i], failures),
            name=f"loadgen-{gen_index}-{i}", daemon=True)
        for i in range(cfg.concurrency)]
    for thread in threads:
        thread.start()
    try:
        warm_barrier.wait(timeout=60.0)
    except threading.BrokenBarrierError:
        failures.append(f"generator {gen_index}: warmup barrier broke")
    ready_q.put(os.getpid())
    for thread in threads:
        thread.join(timeout=cfg.duration_s + 60.0)
    merged = _Recorder()
    for recorder in recorders:
        merged.merge(recorder)
    doc = merged.to_dict()
    doc["pid"] = os.getpid()
    doc["failures"] = failures
    out_q.put(doc)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------

def _hist_summary(hist: LogHistogram, max_s: float = 0.0) -> Dict[str, Any]:
    return {"count": hist.total,
            "p50_s": hist.percentile(50.0),
            "p95_s": hist.percentile(95.0),
            "p99_s": hist.percentile(99.0),
            "max_s": max_s}


def _merge_generator_docs(docs: List[Dict[str, Any]],
                          duration_s: float) -> Dict[str, Any]:
    """Fold the per-generator ledgers into report totals + time series."""
    by_kind: Dict[str, Dict[str, Any]] = {
        kind: {"requests": 0, "errors": 0, "shed": 0, "retries": 0,
               "streamed_bytes": 0, "shed_by_reason": {},
               "hist": LogHistogram(), "max_s": 0.0}
        for kind in KINDS}
    seconds: Dict[int, Dict[str, Any]] = {}
    for doc in docs:
        for kind, entry in doc["by_kind"].items():
            mine = by_kind[kind]
            mine["requests"] += entry["requests"]
            mine["errors"] += entry["errors"]
            mine["shed"] += entry["shed"]
            mine["retries"] += entry.get("retries", 0)
            mine["streamed_bytes"] += entry.get("streamed_bytes", 0)
            for reason, count in entry.get("shed_by_reason", {}).items():
                mine["shed_by_reason"][reason] = \
                    mine["shed_by_reason"].get(reason, 0) + count
            mine["max_s"] = max(mine["max_s"], entry["max_s"])
            mine["hist"].merge(LogHistogram.from_dict(entry["hist"]))
        for key_s, bucket in doc["seconds"].items():
            key = int(key_s)
            mine = seconds.setdefault(
                key, {"requests": 0, "errors": 0, "shed": 0,
                      "hist": LogHistogram()})
            mine["requests"] += bucket["requests"]
            mine["errors"] += bucket["errors"]
            mine["shed"] += bucket["shed"]
            mine["hist"].merge(LogHistogram.from_dict(bucket["hist"]))
    overall = LogHistogram()
    overall_max = 0.0
    totals: Dict[str, Any] = {"requests": 0, "errors": 0, "shed": 0,
                              "retries": 0, "streamed_bytes": 0}
    shed_by_reason: Dict[str, int] = {}
    for entry in by_kind.values():
        totals["requests"] += entry["requests"]
        totals["errors"] += entry["errors"]
        totals["shed"] += entry["shed"]
        totals["retries"] += entry["retries"]
        totals["streamed_bytes"] += entry["streamed_bytes"]
        for reason, count in entry["shed_by_reason"].items():
            shed_by_reason[reason] = shed_by_reason.get(reason, 0) + count
        overall.merge(entry["hist"])
        overall_max = max(overall_max, entry["max_s"])
    totals["rps"] = totals["requests"] / duration_s if duration_s else 0.0
    totals["shed_by_reason"] = shed_by_reason
    totals["by_kind"] = {
        kind: {"requests": e["requests"], "errors": e["errors"],
               "shed": e["shed"], "retries": e["retries"],
               "streamed_bytes": e["streamed_bytes"],
               "shed_by_reason": dict(e["shed_by_reason"])}
        for kind, e in by_kind.items()}
    per_second = [
        {"t": key,
         "requests": seconds[key]["requests"],
         "errors": seconds[key]["errors"],
         "shed": seconds[key]["shed"],
         "p50_s": seconds[key]["hist"].percentile(50.0),
         "p95_s": seconds[key]["hist"].percentile(95.0),
         "p99_s": seconds[key]["hist"].percentile(99.0)}
        for key in sorted(seconds)]
    latency = {"overall": _hist_summary(overall, overall_max)}
    latency["by_kind"] = {
        kind: _hist_summary(e["hist"], e["max_s"])
        for kind, e in by_kind.items() if e["hist"].total}
    return {"totals": totals, "latency": latency,
            "per_second": per_second}


def _metrics_delta(before: Optional[Dict[str, float]],
                   after: Optional[Dict[str, float]]
                   ) -> Optional[Dict[str, float]]:
    if before is None or after is None:
        return None
    return {name: round(after[name] - before[name], 6)
            for name in sorted(after)
            if name in before and after[name] != before[name]}


def run_loadgen(cfg: LoadgenConfig) -> Dict[str, Any]:
    """Run one load-generation pass; returns the report document."""
    import multiprocessing
    cfg.validate()
    sut = _ServerUnderTest(cfg)
    mp = multiprocessing.get_context("fork")
    ready_q: Any = mp.SimpleQueue()
    out_q: Any = mp.SimpleQueue()
    start_evt = mp.Event()
    procs = [mp.Process(target=_generator_main,
                        args=(cfg, index, sut.address, ready_q, start_evt,
                              out_q),
                        name=f"loadgen-gen-{index}", daemon=True)
             for index in range(cfg.generators)]
    sampler = _ProcSampler(sut.pids())
    started_at = time.time()
    try:
        for proc in procs:
            proc.start()
        for _ in procs:                      # every generator warmed up
            ready_q.get()
        # scrape AFTER warmup: the before/after delta then covers exactly
        # the measurement window, so induced-load assertions are tight
        metrics_before = sut.scrape()
        sampler.start()
        start_evt.set()
        docs = [out_q.get() for _ in procs]
        metrics_after = sut.scrape()
    finally:
        samples = sampler.stop()
        for proc in procs:
            proc.join(timeout=cfg.duration_s + 90.0)
            if proc.is_alive():              # pragma: no cover - hung child
                proc.terminate()
        sut.close()
    report = {
        "schema": SCHEMA_VERSION,
        "kind": "loadgen",
        "started_at_unix": round(started_at, 3),
        "config": asdict(cfg),
        "duration_s": cfg.duration_s,
    }
    report.update(_merge_generator_docs(docs, cfg.duration_s))
    # align /proc samples with the per-second latency series
    for row, sample in zip(report["per_second"], samples):
        row["rss_kb"] = sample["rss_kb"]
        row["cpu_pct"] = sample["cpu_pct"]
    delta = _metrics_delta(metrics_before, metrics_after)
    induced = None
    if delta is not None:
        induced = delta.get(sut.induced_counter)
    report["server"] = {
        "shape": sut.shape,
        "workers": cfg.workers if sut.shape == "fleet" else 1,
        "address": list(sut.address),
        "proc_samples": samples,
        "metrics_before": metrics_before,
        "metrics_after": metrics_after,
        "metrics_delta": delta,
        "induced_counter": sut.induced_counter,
        "induced_requests": induced,
    }
    report["generators"] = [
        {"pid": doc["pid"], "failures": doc["failures"],
         "requests": sum(e["requests"] for e in doc["by_kind"].values())}
        for doc in docs]
    return report


def write_report(cfg: LoadgenConfig, out_base: str) -> Dict[str, Any]:
    """Run and write ``<out_base>.json`` + ``<out_base>.html``."""
    from .loadgen_report import render_html
    report = run_loadgen(cfg)
    json_path = f"{out_base}.json"
    html_path = f"{out_base}.html"
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(html_path, "w") as fh:
        fh.write(render_html(report))
    report["_paths"] = {"json": json_path, "html": html_path}
    return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Loadgen flags, shared by ``python -m`` and ``repro.cli loadgen``."""
    parser.add_argument("--profile", default="mixed",
                        choices=sorted(PROFILES),
                        help="traffic profile (default: %(default)s)")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="S", help="measurement window seconds")
    parser.add_argument("--workers", type=int, default=None,
                        help="fleet worker processes (>1 implies "
                             "--server fleet unless given)")
    parser.add_argument("--generators", type=int, default=None,
                        help="forked load-generator processes")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="client threads per generator")
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="closed (concurrency-bound) or open "
                             "(target-RPS)")
    parser.add_argument("--rps", type=float, default=None,
                        help="aggregate target RPS for open-loop mode")
    parser.add_argument("--arrivals", choices=ARRIVALS, default=None,
                        help="open-loop inter-arrival distribution")
    parser.add_argument("--depth", type=int, default=None,
                        help="pipeline depth for the pipelined kind")
    parser.add_argument("--batch", type=int, default=None,
                        help="sub-calls per call_many batch")
    parser.add_argument("--value-pool", type=int, default=None,
                        dest="value_pool",
                        help="distinct request values (1 = max cache hits)")
    parser.add_argument("--payload-elements", type=int, default=None,
                        dest="payload_elements",
                        help="float64 elements per request payload")
    parser.add_argument("--server", choices=SERVER_SHAPES, default=None,
                        help="server shape under test")
    parser.add_argument("--target", default=None, metavar="HOST:PORT",
                        help="external server address (implies "
                             "--server external)")
    parser.add_argument("--retry-attempts", type=int, default=None,
                        dest="retry_attempts",
                        help="per-call attempts for every kind but "
                             "pipelined (1 = never retry)")
    parser.add_argument("--largemsg-bytes", type=int, default=None,
                        dest="largemsg_bytes",
                        help="payload bytes streamed per largemsg request")
    parser.add_argument("--wire", choices=WIRE_MODES, default=None,
                        help="PBIO wire representation for both the "
                             "server and the generators (default: auto)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="LOADGEN_report",
                        help="output base path; writes <out>.json and "
                             "<out>.html (default: %(default)s)")
    parser.add_argument("--serve-only", action="store_true",
                        dest="serve_only",
                        help="host the loadgen echo service instead of "
                             "driving load — the target for a "
                             "--target run from another process/host")
    parser.add_argument("--port", type=int, default=0,
                        help="port for --serve-only (default: any)")


def config_from_args(args: argparse.Namespace) -> LoadgenConfig:
    overrides = {
        "duration_s": args.duration,
        "workers": args.workers,
        "generators": args.generators,
        "concurrency": args.concurrency,
        "mode": args.mode,
        "rps": args.rps,
        "arrivals": args.arrivals,
        "depth": args.depth,
        "batch": args.batch,
        "value_pool": args.value_pool,
        "payload_elements": args.payload_elements,
        "server": args.server,
        "target": args.target,
        "retry_attempts": args.retry_attempts,
        "largemsg_bytes": args.largemsg_bytes,
        "wire": args.wire,
        "seed": args.seed,
    }
    if args.target and args.server is None:
        overrides["server"] = "external"
    elif args.server is None and args.workers and args.workers > 1:
        # `loadgen --workers 2` means "against a 2-worker fleet"
        overrides["server"] = "fleet"
    return config_for_profile(args.profile, **overrides)


def print_summary(report: Dict[str, Any],
                  out=sys.stdout) -> None:
    totals = report["totals"]
    latency = report["latency"]["overall"]
    server = report["server"]
    print(f"loadgen profile={report['config']['profile']} "
          f"server={server['shape']}"
          + (f" workers={server['workers']}"
             if server["shape"] == "fleet" else ""), file=out)
    print(f"  {totals['requests']} requests in "
          f"{report['duration_s']:g}s ({totals['rps']:,.0f} rps), "
          f"{totals['errors']} errors, {totals['shed']} shed, "
          f"{totals.get('retries', 0)} retries", file=out)
    if totals.get("streamed_bytes"):
        print(f"  {totals['streamed_bytes'] / (1 << 20):,.1f} MiB "
              "streamed through chunked routes", file=out)
    if totals.get("shed_by_reason"):
        breakdown = ", ".join(
            f"{reason}={count}" for reason, count in
            sorted(totals["shed_by_reason"].items()))
        print(f"  shed by reason: {breakdown}", file=out)
    print(f"  latency p50 {latency['p50_s'] * 1e3:.2f} ms, "
          f"p95 {latency['p95_s'] * 1e3:.2f} ms, "
          f"p99 {latency['p99_s'] * 1e3:.2f} ms", file=out)
    if server.get("induced_requests") is not None:
        print(f"  server {server['induced_counter']} delta: "
              f"{server['induced_requests']:,.0f}", file=out)


def print_failures(report: Dict[str, Any], out=sys.stderr) -> bool:
    """Print generator warmup/setup failures; True if there were any."""
    failures = [msg for gen in report["generators"]
                for msg in gen["failures"]]
    for msg in failures:
        print(f"warning: {msg}", file=out)
    return bool(failures)


def serve_echo(cfg: LoadgenConfig, port: int = 0) -> int:
    """Host the loadgen echo service — the target for ``--target`` runs.

    An external target must serve *this* service (the ``LoadEcho``
    formats and quality policy the generators drive); a generic server
    answers every call with a format-mismatch fault.
    """
    import time as _time
    if cfg.server == "external":
        raise ValueError("--serve-only hosts a server; it cannot be "
                         "combined with --target/--server external")
    sut = _ServerUnderTest(cfg, port=port)
    host, bound_port = sut.address
    print(f"loadgen echo service ({cfg.server}"
          + (f", {cfg.workers} workers" if cfg.server == "fleet" else "")
          + f") on {host}:{bound_port} — drive it with "
          f"`python -m repro.cli loadgen --target {host}:{bound_port}`")
    if sut.scrape_address != sut.address:
        chost, cport = sut.scrape_address
        print(f"fleet /metrics on http://{chost}:{cport}/metrics")
    try:
        while True:
            _time.sleep(0.5)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        sut.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="SOAP-binQ distributed load-generation harness")
    add_arguments(parser)
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.serve_only:
        try:
            return serve_echo(cfg, port=args.port)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    report = write_report(cfg, args.out)
    print_summary(report)
    print(f"wrote {report['_paths']['json']} and "
          f"{report['_paths']['html']}")
    return 1 if print_failures(report) else 0


if __name__ == "__main__":
    sys.exit(main())
