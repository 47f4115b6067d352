"""Prometheus-style ``/metrics`` exposition for the serving stack.

The stack already keeps every number an operator (or the
``repro.bench.loadgen`` harness) wants — admission admitted/shed by
reason, reactor buffering, worker-pool utilization, quality level and
transition count, response-cache hits — scattered across
``_ServerCore`` counters, :meth:`AdmissionController.snapshot`,
:meth:`QualityManager.stats` and the fleet's shared-memory slots.  This
module renders them in the Prometheus *text exposition format*
(``text/plain; version=0.0.4``), with no dependency beyond the standard
library, so any scraper — Prometheus itself, ``curl``, or the loadgen
report — reads one endpoint:

* every ``HttpServer`` serves ``GET /metrics`` from the
  ``_ServerCore`` request path, next to
  ``/healthz`` and equally exempt from admission control: a scrape must
  succeed *especially* while the server sheds;
* a :class:`~repro.serving.fleet.FleetServer` aggregates its workers'
  shared-memory slots on the control port's ``/metrics``, exporting both
  per-worker series (labelled ``worker="i"``) and fleet sums computed
  from the *same* one-shot shm read, so a single scrape is internally
  consistent.

Naming follows Prometheus conventions: ``repro_`` prefix, counters end
in ``_total``, seconds-valued gauges end in ``_seconds``.  The full
catalog lives in ``docs/observability.md``.
"""

from __future__ import annotations

import re
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "CONTENT_TYPE", "Metric", "render", "parse_exposition",
    "server_families", "fleet_families", "breaker_families",
    "render_server_metrics", "render_fleet_metrics",
]

#: The Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class Metric:
    """One metric family: a name, a type, help text, and its samples.

    ``type`` is ``"counter"`` or ``"gauge"``; counters MUST be
    monotonically non-decreasing over the life of the process (the test
    suite enforces this across scrapes).
    """

    __slots__ = ("name", "type", "help", "samples")

    def __init__(self, name: str, mtype: str, help_text: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if mtype not in ("counter", "gauge"):
            raise ValueError(f"unsupported metric type {mtype!r}")
        if mtype == "counter" and not name.endswith("_total"):
            raise ValueError(
                f"counter {name!r} must end in _total (Prometheus "
                "naming convention)")
        self.name = name
        self.type = mtype
        self.help = help_text
        self.samples: List[Tuple[Optional[Dict[str, str]], float]] = []

    def sample(self, value: Any,
               labels: Optional[Dict[str, str]] = None) -> "Metric":
        self.samples.append((labels, float(value)))
        return self


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _format_value(value: float) -> str:
    if value != value:                                   # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))


def render(families: List[Metric]) -> bytes:
    """Render metric families as Prometheus text exposition bytes."""
    lines: List[str] = []
    for family in families:
        if not family.samples:
            continue
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.type}")
        for labels, value in family.samples:
            if labels:
                rendered = ",".join(
                    f'{name}="{_escape_label_value(str(val))}"'
                    for name, val in sorted(labels.items()))
                lines.append(
                    f"{family.name}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{family.name} {_format_value(value)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# parsing (tests, the loadgen harness, report correlation)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$")
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return (value.replace(r"\n", "\n").replace(r"\"", '"')
            .replace(r"\\", "\\"))


def parse_exposition(text: str) -> Dict[str, float]:
    """Parse exposition text into ``{'name{a="b"}': value}``.

    Labels are sorted in the key, matching :func:`render`'s output, so a
    value rendered and re-parsed round-trips to the same key.  Raises
    ``ValueError`` on a malformed sample line — the golden-format tests
    lean on this being strict.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        name = match.group("name")
        raw_labels = match.group("labels")
        key = name
        if raw_labels:
            labels = {m.group("name"):
                      _unescape_label_value(m.group("value"))
                      for m in _LABEL_RE.finditer(raw_labels)}
            rendered = ",".join(f'{n}="{_escape_label_value(v)}"'
                                for n, v in sorted(labels.items()))
            key = f"{name}{{{rendered}}}"
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = float("inf")
        elif raw_value == "-Inf":
            value = float("-inf")
        else:
            value = float(raw_value)
        out[key] = value
    return out


# ----------------------------------------------------------------------
# collection: one _ServerCore-based server
# ----------------------------------------------------------------------

def _counter(name: str, help_text: str, value: Any,
             labels: Optional[Dict[str, str]] = None) -> Metric:
    return Metric(name, "counter", help_text).sample(value, labels)


def _gauge(name: str, help_text: str, value: Any,
           labels: Optional[Dict[str, str]] = None) -> Metric:
    return Metric(name, "gauge", help_text).sample(value, labels)


def server_families(server) -> List[Metric]:
    """Collect metric families from a live ``_ServerCore`` server.

    Optional layers contribute only when present: admission metrics need
    an :class:`~repro.serving.admission.AdmissionController`, quality and
    cache metrics a ``quality_stats`` callable, load metrics a
    :class:`~repro.serving.coupling.LoadQualityCoupling`, and the reactor
    gauges the reactor server's ``connection_stats()``.
    """
    families = [
        _gauge("repro_server_info",
               "Constant 1; labels carry the server's static identity.",
               1, {"fleet_index": str(getattr(server, "fleet_index", 0)),
                   "fleet_workers":
                       str(getattr(server, "fleet_workers", 1))}),
        _gauge("repro_server_ready",
               "1 while accepting and not draining, else 0.",
               1 if server.ready else 0),
        _counter("repro_requests_served_total",
                 "Responses sent, including health/metrics/shed replies.",
                 server.requests_served),
        _counter("repro_requests_shed_total",
                 "Requests refused by admission control (503).",
                 server.requests_shed),
        _counter("repro_responses_304_total",
                 "Conditional requests answered header-only (304).",
                 server.responses_304),
        _counter("repro_connections_accepted_total",
                 "Connections accepted by the listener.",
                 server.connections_accepted),
        _counter("repro_connections_rejected_total",
                 "Connections answered 503 at the max_connections cap.",
                 server.connections_rejected),
        _gauge("repro_connections_active",
               "Currently open connections.",
               getattr(server, "_active_connections", 0)),
    ]
    if hasattr(server, "chunked_requests"):
        families.extend([
            _counter("repro_http_chunked_requests_total",
                     "Requests that arrived with a chunked "
                     "transfer-encoding (streamed or buffered).",
                     server.chunked_requests),
            _counter("repro_http_streamed_bytes_in_total",
                     "Decoded chunk payload bytes received on "
                     "incremental stream routes.",
                     getattr(server, "streamed_bytes_in", 0)),
            _counter("repro_http_streamed_bytes_out_total",
                     "Chunk payload bytes produced by stream handlers.",
                     getattr(server, "streamed_bytes_out", 0)),
        ])
    admission = getattr(server, "admission", None)
    if admission is not None:
        snap = admission.snapshot()
        shed = Metric("repro_admission_shed_total",
                      "counter",
                      "Requests shed by admission control, by reason.")
        for reason in sorted(snap["shed"]):
            shed.sample(snap["shed"][reason], {"reason": reason})
        if not snap["shed"]:
            shed.sample(0, {"reason": "none"})
        families.extend([
            _counter("repro_admission_admitted_total",
                     "Requests granted a worker permit.",
                     snap["admitted"]),
            _counter("repro_admission_completed_total",
                     "Admitted requests that finished and released their "
                     "permit.", snap["completed"]),
            shed,
            _gauge("repro_admission_busy",
                   "Worker permits currently held.", snap["busy"]),
            _gauge("repro_admission_queue_depth",
                   "Requests waiting for a permit.", snap["queue_depth"]),
            _gauge("repro_admission_queue_limit",
                   "Wait-queue capacity.", snap["queue_limit"]),
            _gauge("repro_admission_queue_peak",
                   "High-water mark of the wait queue.",
                   snap["queue_peak"]),
            _gauge("repro_admission_max_concurrency",
                   "Worker-pool size (permits).", snap["max_concurrency"]),
            _gauge("repro_admission_utilization",
                   "Busy worker-seconds over the sliding window, "
                   "normalized per worker (0..1).", snap["utilization"]),
            _gauge("repro_admission_service_time_p95_seconds",
                   "p95 of recent admitted service times.",
                   snap["p95_service_s"]),
        ])
    coupling = getattr(server, "load_coupling", None)
    if coupling is not None:
        families.extend([
            _gauge("repro_load_composite",
                   "Composite load last fed to the quality loop "
                   "(utilization + queue pressure; fleet-wide when a "
                   "fleet_view is wired).", coupling.last_load),
            _counter("repro_load_samples_total",
                     "Load observations fed to the quality loop.",
                     coupling.samples_fed),
            _counter("repro_load_penalties_total",
                     "Penalty-RTT injections while load held above "
                     "high_water.", coupling.penalties_fed),
            _gauge("repro_fleet_workers_live",
                   "Live workers contributing to the composite load.",
                   coupling.fleet_workers_live),
        ])
    connection_stats = getattr(server, "connection_stats", None)
    if callable(connection_stats):
        stats = connection_stats()
        families.extend([
            _gauge("repro_reactor_worker_threads",
                   "Reactor handler slots (requests in a handler at once).",
                   getattr(server, "workers", 0)),
            _gauge("repro_reactor_connections",
                   "Connections held by the reactor.", len(stats)),
            _gauge("repro_reactor_buffered_bytes",
                   "Response bytes queued across all connections.",
                   sum(c["buffered_bytes"] for c in stats)),
            _gauge("repro_reactor_pipeline_pending",
                   "Pipeline slots waiting or in flight across all "
                   "connections.", sum(c["pending"] for c in stats)),
            _gauge("repro_reactor_paused_connections",
                   "Connections whose reads are paused by backpressure.",
                   sum(1 for c in stats if c["paused"])),
        ])
    quality_stats = getattr(server, "quality_stats", None)
    if callable(quality_stats):
        try:
            quality = quality_stats()
        except Exception:        # noqa: BLE001 - scrape must never break
            quality = None
        if quality:
            families.extend(_quality_families(quality))
    return families


def _quality_families(quality: Mapping[str, Any]) -> List[Metric]:
    families = [
        _gauge("repro_quality_attribute_value",
               "Current value of the policy's monitored attribute.",
               quality.get("value", 0.0),
               {"attribute": str(quality.get("attribute", ""))}),
        _gauge("repro_quality_rtt_estimate_seconds",
               "Smoothed RTT estimate feeding the policy.",
               quality.get("rtt_estimate") or 0.0),
        _gauge("repro_quality_message_type",
               "Constant 1 on the currently selected message type.",
               1, {"type": str(quality.get("current_message_type", ""))}),
        _counter("repro_quality_switches_total",
                 "Quality-level transitions since startup.",
                 quality.get("switches", 0)),
        _counter("repro_quality_handler_fallbacks_total",
                 "Sandboxed handler failures answered by the trivial "
                 "fallback.", quality.get("handler_fallbacks", 0)),
    ]
    sandbox = quality.get("sandbox")
    if sandbox:
        families.extend([
            _counter("repro_sandbox_errors_total",
                     "Handler exceptions caught by the sandbox.",
                     sandbox.get("errors", 0)),
            _counter("repro_sandbox_timeouts_total",
                     "Handler timeouts caught by the sandbox.",
                     sandbox.get("timeouts", 0)),
            _counter("repro_sandbox_quarantine_skips_total",
                     "Calls skipped because the handler is quarantined.",
                     sandbox.get("quarantine_skips", 0)),
            _gauge("repro_sandbox_quarantined_handlers",
                   "Handlers currently quarantined.",
                   len(sandbox.get("quarantined", ()))),
        ])
    cache = quality.get("cache")
    if cache:
        families.extend([
            _counter("repro_cache_hits_total",
                     "Quality/response cache hits.", cache.get("hits", 0)),
            _counter("repro_cache_misses_total",
                     "Quality/response cache misses.",
                     cache.get("misses", 0)),
            _counter("repro_cache_evictions_total",
                     "Entries evicted by capacity or byte budget.",
                     cache.get("evictions", 0)),
            _counter("repro_cache_expirations_total",
                     "Entries dropped by the idle TTL.",
                     cache.get("expirations", 0)),
            _counter("repro_cache_invalidations_total",
                     "Entries dropped by invalidation.",
                     cache.get("invalidations", 0)),
            _counter("repro_cache_flushes_total",
                     "Whole-cache flushes (format redefinition, foreign "
                     "attribute updates).", cache.get("flushes", 0)),
            _counter("repro_cache_result_hits_total",
                     "Requests to a pure operation answered from its "
                     "memoised handler result.",
                     cache.get("result_hits", 0)),
            _counter("repro_cache_result_misses_total",
                     "Requests to a pure operation that ran its handler.",
                     cache.get("result_misses", 0)),
            _counter("repro_cache_payload_hits_total",
                     "Replies answered from stored encoded bytes (no "
                     "encode), any message type.",
                     cache.get("payload_hits", 0)),
            _gauge("repro_cache_entries",
                   "Entries currently cached.", cache.get("entries", 0)),
            _gauge("repro_cache_bytes",
                   "Estimated resident bytes charged to the cache "
                   "budget.", cache.get("bytes", 0)),
        ])
    wire = quality.get("wire")
    if wire:
        # gauges, not counters: the message totals aggregate over *live*
        # sessions, so values may drop when an idle session is evicted
        families.extend([
            _gauge("repro_wire_mode",
                   "Constant 1; the mode label names the service's "
                   "configured wire policy.",
                   1, {"mode": str(wire.get("mode", ""))}),
            _gauge("repro_wire_sessions",
                   "Live per-client PBIO sessions.",
                   wire.get("sessions", 0)),
            _gauge("repro_wire_compact_sessions",
                   "Live sessions whose send path negotiated the "
                   "compact varint representation.",
                   wire.get("compact_sessions", 0)),
            _gauge("repro_wire_compact_messages_sent",
                   "Compact-encoded messages sent, summed over live "
                   "sessions.", wire.get("compact_messages_sent", 0)),
            _gauge("repro_wire_compact_messages_received",
                   "Compact-encoded messages received, summed over "
                   "live sessions.",
                   wire.get("compact_messages_received", 0)),
        ])
    extract = quality.get("extract")
    if extract:
        families.extend([
            _counter("repro_extract_pages_served_total",
                     "Extraction pages served (computed + replayed).",
                     extract.get("pages_served", 0)),
            _counter("repro_extract_pages_degraded_total",
                     "Extraction pages served at reduced size or "
                     "projection while under load.",
                     extract.get("pages_degraded", 0)),
            _counter("repro_extract_pages_replayed_total",
                     "Retried pages re-served from the dedup window "
                     "instead of recomputed.",
                     extract.get("pages_replayed", 0)),
            _counter("repro_extract_records_served_total",
                     "Records materialized into computed pages.",
                     extract.get("records_served", 0)),
            _gauge("repro_extract_jobs_active",
                   "Extraction jobs with recent activity.",
                   extract.get("jobs_active", 0)),
            _gauge("repro_extract_watermark_lag_records",
                   "Records still ahead of the watermark, summed over "
                   "active jobs.",
                   extract.get("watermark_lag_records", 0)),
        ])
    return families


def breaker_families(breaker,
                     labels: Optional[Dict[str, str]] = None
                     ) -> List[Metric]:
    """Families for a :class:`~repro.reliability.breaker.CircuitBreaker`.

    The breaker lives client-side (channels, couplings), so servers do
    not export it by default; anything holding one — the loadgen
    harness, a client-side exporter — renders it with this helper.
    ``repro_breaker_state`` is a one-hot gauge over the three states.
    """
    state = Metric("repro_breaker_state", "gauge",
                   "One-hot over closed/open/half_open.")
    current = breaker.state
    for name in ("closed", "open", "half_open"):
        state_labels = dict(labels or {})
        state_labels["state"] = name
        state.sample(1 if name == current else 0, state_labels)
    return [
        state,
        _counter("repro_breaker_opened_total",
                 "Transitions into the open state.",
                 breaker.opened_count, labels),
        _counter("repro_breaker_rejected_total",
                 "Calls rejected while open.", breaker.rejected, labels),
    ]


def render_server_metrics(server) -> bytes:
    return render(server_families(server))


# ----------------------------------------------------------------------
# collection: the fleet control port
# ----------------------------------------------------------------------

def fleet_families(fleet) -> List[Metric]:
    """Aggregate + per-worker families for a ``FleetServer`` parent.

    The per-worker series and the fleet sums come from one
    ``read_all()`` pass over the shared-memory segment, so a single
    scrape is internally consistent: summing a per-worker counter over
    its ``worker`` label reproduces the fleet aggregate exactly.
    """
    now = time.monotonic()
    slots = fleet.stats().read_all()
    agg = fleet.stats().aggregate(stale_after_s=fleet.stale_after_s,
                                  slots=slots, now=now)
    families = [
        _gauge("repro_fleet_workers", "Configured fleet size.",
               fleet.workers),
        _gauge("repro_fleet_workers_live",
               "Workers with a fresh heartbeat.", agg["workers_live"]),
        _counter("repro_fleet_respawns_total",
                 "Workers respawned after a crash.", fleet.respawns_total),
        _counter("repro_fleet_requests_served_total",
                 "Responses sent across live workers.",
                 agg["requests_served"]),
        _counter("repro_fleet_requests_shed_total",
                 "Requests shed across live workers.",
                 agg["requests_shed"]),
        _counter("repro_fleet_responses_304_total",
                 "Header-only 304 responses across live workers.",
                 agg["responses_304"]),
        _counter("repro_fleet_connections_accepted_total",
                 "Connections accepted across live workers.",
                 agg["connections_accepted"]),
        _gauge("repro_fleet_connections_active",
               "Open connections across live workers.",
               agg["connections_active"]),
        _gauge("repro_fleet_busy", "Worker permits held across the fleet.",
               agg["busy"]),
        _gauge("repro_fleet_queue_depth",
               "Requests queued across the fleet.", agg["queue_depth"]),
        _gauge("repro_fleet_utilization",
               "Capacity-weighted pool utilization across live workers.",
               agg["utilization"]),
        _gauge("repro_fleet_queue_pressure",
               "Queue depth over queue capacity across live workers.",
               agg["queue_pressure"]),
        _gauge("repro_fleet_load",
               "Composite fleet load (utilization + queue pressure).",
               agg["load"]),
        _counter("repro_fleet_cache_hits_total",
                 "Response-cache hits across live workers.",
                 agg["cache_hits"]),
        _counter("repro_fleet_cache_misses_total",
                 "Response-cache misses across live workers.",
                 agg["cache_misses"]),
        _counter("repro_fleet_cache_evictions_total",
                 "Response-cache evictions across live workers.",
                 agg["cache_evictions"]),
        _counter("repro_fleet_cache_invalidations_total",
                 "Response-cache invalidations across live workers.",
                 agg["cache_invalidations"]),
        _counter("repro_fleet_extract_pages_served_total",
                 "Extraction pages served across live workers.",
                 agg["extract_pages_served"]),
        _counter("repro_fleet_extract_pages_degraded_total",
                 "Degraded extraction pages across live workers.",
                 agg["extract_pages_degraded"]),
        _counter("repro_fleet_extract_pages_replayed_total",
                 "Dedup-window page replays across live workers.",
                 agg["extract_pages_replayed"]),
        _counter("repro_fleet_extract_records_served_total",
                 "Extraction records materialized across live workers.",
                 agg["extract_records_served"]),
        _gauge("repro_fleet_extract_jobs_active",
               "Active extraction jobs across live workers.",
               agg["extract_jobs_active"]),
        _gauge("repro_fleet_extract_watermark_lag_records",
               "Extraction watermark lag summed across live workers.",
               agg["extract_watermark_lag"]),
    ]
    per_worker: Dict[str, Metric] = {}

    def worker_metric(name: str, mtype: str, help_text: str) -> Metric:
        metric = per_worker.get(name)
        if metric is None:
            metric = per_worker[name] = Metric(name, mtype, help_text)
        return metric

    for snap in slots:
        if snap is None:
            continue
        labels = {"worker": str(snap.index)}
        live = snap.is_live(now, fleet.stale_after_s)
        worker_metric("repro_fleet_worker_live", "gauge",
                      "1 while this worker's heartbeat is fresh."
                      ).sample(1 if live else 0, labels)
        worker_metric("repro_fleet_worker_state", "gauge",
                      "Constant 1; the state label names the worker's "
                      "published state.").sample(
            1, {"worker": str(snap.index), "state": snap.state_name})
        if not live:
            continue
        worker_metric("repro_fleet_worker_requests_served_total", "counter",
                      "Responses sent by this worker."
                      ).sample(snap.requests_served, labels)
        worker_metric("repro_fleet_worker_requests_shed_total", "counter",
                      "Requests shed by this worker."
                      ).sample(snap.requests_shed, labels)
        worker_metric("repro_fleet_worker_responses_304_total", "counter",
                      "Header-only 304 responses from this worker."
                      ).sample(snap.responses_304, labels)
        worker_metric("repro_fleet_worker_connections_active", "gauge",
                      "Open connections on this worker."
                      ).sample(snap.connections_active, labels)
        worker_metric("repro_fleet_worker_busy", "gauge",
                      "Worker permits held on this worker."
                      ).sample(snap.busy, labels)
        worker_metric("repro_fleet_worker_queue_depth", "gauge",
                      "Requests queued on this worker."
                      ).sample(snap.queue_depth, labels)
        worker_metric("repro_fleet_worker_utilization", "gauge",
                      "Pool utilization on this worker (0..1)."
                      ).sample(snap.utilization, labels)
        worker_metric("repro_fleet_worker_service_time_p95_seconds",
                      "gauge", "p95 service time on this worker."
                      ).sample(snap.p95_service_s, labels)
        worker_metric("repro_fleet_worker_cache_hits_total", "counter",
                      "Response-cache hits on this worker."
                      ).sample(snap.cache_hits, labels)
        worker_metric("repro_fleet_worker_cache_misses_total", "counter",
                      "Response-cache misses on this worker."
                      ).sample(snap.cache_misses, labels)
        worker_metric("repro_fleet_worker_extract_pages_served_total",
                      "counter",
                      "Extraction pages served by this worker."
                      ).sample(snap.extract_pages_served, labels)
        worker_metric("repro_fleet_worker_extract_pages_degraded_total",
                      "counter",
                      "Degraded extraction pages from this worker."
                      ).sample(snap.extract_pages_degraded, labels)
        worker_metric("repro_fleet_worker_extract_pages_replayed_total",
                      "counter",
                      "Dedup-window page replays on this worker."
                      ).sample(snap.extract_pages_replayed, labels)
        worker_metric("repro_fleet_worker_extract_records_served_total",
                      "counter",
                      "Extraction records materialized by this worker."
                      ).sample(snap.extract_records_served, labels)
        worker_metric("repro_fleet_worker_extract_jobs_active", "gauge",
                      "Active extraction jobs on this worker."
                      ).sample(snap.extract_jobs_active, labels)
        worker_metric("repro_fleet_worker_extract_watermark_lag_records",
                      "gauge",
                      "Extraction watermark lag on this worker."
                      ).sample(snap.extract_watermark_lag, labels)
    families.extend(per_worker.values())
    return families


def render_fleet_metrics(fleet) -> bytes:
    return render(fleet_families(fleet))


#: Convenience: scrape-and-parse callable used by the loadgen harness.
ScrapeFn = Callable[[], Dict[str, float]]
