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
  succeed *especially* while the server sheds.  This module renders it:
  the format, the parser, and the server's own families;
* a :class:`~repro.serving.fleet.FleetServer` aggregates its workers'
  shared-memory slots on the control port's ``/metrics``
  (:mod:`repro.serving.metrics`), exporting both per-worker series
  (labelled ``worker="i"``) and fleet sums computed from the *same*
  one-shot shm read, so a single scrape is internally consistent.

Naming follows Prometheus conventions: ``repro_`` prefix, counters end
in ``_total``, seconds-valued gauges end in ``_seconds``.  The full
catalog lives in ``docs/observability.md``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "CONTENT_TYPE", "Metric", "render", "parse_exposition", "counter",
    "gauge", "server_families", "render_server_metrics",
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

def counter(name: str, help_text: str, value: Any,
            labels: Optional[Dict[str, str]] = None) -> Metric:
    """A counter family holding one sample."""
    return Metric(name, "counter", help_text).sample(value, labels)


def gauge(name: str, help_text: str, value: Any,
          labels: Optional[Dict[str, str]] = None) -> Metric:
    """A gauge family holding one sample."""
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
        gauge("repro_server_info",
               "Constant 1; labels carry the server's static identity.",
               1, {"fleet_index": str(getattr(server, "fleet_index", 0)),
                   "fleet_workers":
                       str(getattr(server, "fleet_workers", 1))}),
        gauge("repro_server_ready",
               "1 while accepting and not draining, else 0.",
               1 if server.ready else 0),
        counter("repro_requests_served_total",
                 "Responses sent, including health/metrics/shed replies.",
                 server.requests_served),
        counter("repro_requests_shed_total",
                 "Requests refused by admission control (503).",
                 server.requests_shed),
        counter("repro_responses_304_total",
                 "Conditional requests answered header-only (304).",
                 server.responses_304),
        counter("repro_connections_accepted_total",
                 "Connections accepted by the listener.",
                 server.connections_accepted),
        counter("repro_connections_rejected_total",
                 "Connections answered 503 at the max_connections cap.",
                 server.connections_rejected),
        gauge("repro_connections_active",
               "Currently open connections.",
               getattr(server, "_active_connections", 0)),
    ]
    if hasattr(server, "chunked_requests"):
        families.extend([
            counter("repro_http_chunked_requests_total",
                     "Requests that arrived with a chunked "
                     "transfer-encoding (streamed or buffered).",
                     server.chunked_requests),
            counter("repro_http_streamed_bytes_in_total",
                     "Decoded chunk payload bytes received on "
                     "incremental stream routes.",
                     getattr(server, "streamed_bytes_in", 0)),
            counter("repro_http_streamed_bytes_out_total",
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
            counter("repro_admission_admitted_total",
                     "Requests granted a worker permit.",
                     snap["admitted"]),
            counter("repro_admission_completed_total",
                     "Admitted requests that finished and released their "
                     "permit.", snap["completed"]),
            shed,
            gauge("repro_admission_busy",
                   "Worker permits currently held.", snap["busy"]),
            gauge("repro_admission_queue_depth",
                   "Requests waiting for a permit.", snap["queue_depth"]),
            gauge("repro_admission_queue_limit",
                   "Wait-queue capacity.", snap["queue_limit"]),
            gauge("repro_admission_queue_peak",
                   "High-water mark of the wait queue.",
                   snap["queue_peak"]),
            gauge("repro_admission_max_concurrency",
                   "Worker-pool size (permits).", snap["max_concurrency"]),
            gauge("repro_admission_utilization",
                   "Busy worker-seconds over the sliding window, "
                   "normalized per worker (0..1).", snap["utilization"]),
            gauge("repro_admission_service_time_p95_seconds",
                   "p95 of recent admitted service times.",
                   snap["p95_service_s"]),
        ])
    coupling = getattr(server, "load_coupling", None)
    if coupling is not None:
        families.extend([
            gauge("repro_load_composite",
                   "Composite load last fed to the quality loop "
                   "(utilization + queue pressure; fleet-wide when a "
                   "fleet_view is wired).", coupling.last_load),
            counter("repro_load_samples_total",
                     "Load observations fed to the quality loop.",
                     coupling.samples_fed),
            counter("repro_load_penalties_total",
                     "Penalty-RTT injections while load held above "
                     "high_water.", coupling.penalties_fed),
            gauge("repro_fleet_workers_live",
                   "Live workers contributing to the composite load.",
                   coupling.fleet_workers_live),
        ])
    connection_stats = getattr(server, "connection_stats", None)
    if callable(connection_stats):
        stats = connection_stats()
        families.extend([
            gauge("repro_reactor_worker_threads",
                   "Reactor handler slots (requests in a handler at once).",
                   getattr(server, "workers", 0)),
            gauge("repro_reactor_connections",
                   "Connections held by the reactor.", len(stats)),
            gauge("repro_reactor_buffered_bytes",
                   "Response bytes queued across all connections.",
                   sum(c["buffered_bytes"] for c in stats)),
            gauge("repro_reactor_pipeline_pending",
                   "Pipeline slots waiting or in flight across all "
                   "connections.", sum(c["pending"] for c in stats)),
            gauge("repro_reactor_paused_connections",
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
        gauge("repro_quality_attribute_value",
               "Current value of the policy's monitored attribute.",
               quality.get("value", 0.0),
               {"attribute": str(quality.get("attribute", ""))}),
        gauge("repro_quality_rtt_estimate_seconds",
               "Smoothed RTT estimate feeding the policy.",
               quality.get("rtt_estimate") or 0.0),
        gauge("repro_quality_message_type",
               "Constant 1 on the currently selected message type.",
               1, {"type": str(quality.get("current_message_type", ""))}),
        counter("repro_quality_switches_total",
                 "Quality-level transitions since startup.",
                 quality.get("switches", 0)),
        counter("repro_quality_handler_fallbacks_total",
                 "Sandboxed handler failures answered by the trivial "
                 "fallback.", quality.get("handler_fallbacks", 0)),
    ]
    sandbox = quality.get("sandbox")
    if sandbox:
        families.extend([
            counter("repro_sandbox_errors_total",
                     "Handler exceptions caught by the sandbox.",
                     sandbox.get("errors", 0)),
            counter("repro_sandbox_timeouts_total",
                     "Handler timeouts caught by the sandbox.",
                     sandbox.get("timeouts", 0)),
            counter("repro_sandbox_quarantine_skips_total",
                     "Calls skipped because the handler is quarantined.",
                     sandbox.get("quarantine_skips", 0)),
            gauge("repro_sandbox_quarantined_handlers",
                   "Handlers currently quarantined.",
                   len(sandbox.get("quarantined", ()))),
        ])
    cache = quality.get("cache")
    if cache:
        families.extend([
            counter("repro_cache_hits_total",
                     "Quality/response cache hits.", cache.get("hits", 0)),
            counter("repro_cache_misses_total",
                     "Quality/response cache misses.",
                     cache.get("misses", 0)),
            counter("repro_cache_evictions_total",
                     "Entries evicted by capacity or byte budget.",
                     cache.get("evictions", 0)),
            counter("repro_cache_expirations_total",
                     "Entries dropped by the idle TTL.",
                     cache.get("expirations", 0)),
            counter("repro_cache_invalidations_total",
                     "Entries dropped by invalidation.",
                     cache.get("invalidations", 0)),
            counter("repro_cache_flushes_total",
                     "Whole-cache flushes (format redefinition, foreign "
                     "attribute updates).", cache.get("flushes", 0)),
            counter("repro_cache_result_hits_total",
                     "Requests to a pure operation answered from its "
                     "memoised handler result.",
                     cache.get("result_hits", 0)),
            counter("repro_cache_result_misses_total",
                     "Requests to a pure operation that ran its handler.",
                     cache.get("result_misses", 0)),
            counter("repro_cache_payload_hits_total",
                     "Replies answered from stored encoded bytes (no "
                     "encode), any message type.",
                     cache.get("payload_hits", 0)),
            gauge("repro_cache_entries",
                   "Entries currently cached.", cache.get("entries", 0)),
            gauge("repro_cache_bytes",
                   "Estimated resident bytes charged to the cache "
                   "budget.", cache.get("bytes", 0)),
        ])
    wire = quality.get("wire")
    if wire:
        # gauges, not counters: the message totals aggregate over *live*
        # sessions, so values may drop when an idle session is evicted
        families.extend([
            gauge("repro_wire_mode",
                   "Constant 1; the mode label names the service's "
                   "configured wire policy.",
                   1, {"mode": str(wire.get("mode", ""))}),
            gauge("repro_wire_sessions",
                   "Live per-client PBIO sessions.",
                   wire.get("sessions", 0)),
            gauge("repro_wire_compact_sessions",
                   "Live sessions whose send path negotiated the "
                   "compact varint representation.",
                   wire.get("compact_sessions", 0)),
            gauge("repro_wire_compact_messages_sent",
                   "Compact-encoded messages sent, summed over live "
                   "sessions.", wire.get("compact_messages_sent", 0)),
            gauge("repro_wire_compact_messages_received",
                   "Compact-encoded messages received, summed over "
                   "live sessions.",
                   wire.get("compact_messages_received", 0)),
        ])
    return families


def render_server_metrics(server) -> bytes:
    return render(server_families(server))
