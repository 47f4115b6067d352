"""Server-side overload protection for the SOAP-binQ stack.

PR 3 made the *client* survive a misbehaving server; this package makes
the *server* survive its clients, by treating overload as a first-class
quality attribute:

* :mod:`~repro.serving.admission` — bounded worker pool + bounded,
  sheddable wait queue (LIFO / deadline-aware shed policies) with live
  load metrics (queue depth, per-worker utilization, p95 service time);
* :mod:`~repro.serving.deadline` — the ``X-Deadline-Ms`` header contract
  propagating PR 3's client deadline budgets to the server, which then
  refuses work the client will discard;
* :mod:`~repro.serving.coupling` — :class:`LoadQualityCoupling` feeds
  admission load into the quality manager, so an overloaded server sheds
  *bytes* (reduced reply formats) before it sheds *requests*;
* :mod:`~repro.serving.sandbox` — :class:`HandlerSandbox` puts a
  timeout + exception boundary + strike-based quarantine around user
  quality handlers, so a faulty handler degrades quality, not uptime;
* :mod:`~repro.serving.endpoint` — :class:`ProtectedEndpoint` composes
  all of the above around any transport endpoint;
* :mod:`~repro.serving.fleet` / :mod:`~repro.serving.shm_stats` —
  :class:`FleetServer` preforks N reactor workers on one
  ``SO_REUSEPORT`` port with a supervising parent, and
  :class:`FleetStats` publishes per-worker load through a
  seqlock shared-memory segment so both the control-port ``/healthz``
  and every worker's :class:`LoadQualityCoupling` see *fleet* load;
* :mod:`~repro.serving.metrics` — Prometheus text exposition for all of
  the above: every server answers ``GET /metrics`` and the fleet
  control port aggregates per-worker series (``docs/observability.md``).

Graceful drain and the ``/healthz`` readiness hook live on
:class:`~repro.http11.HttpServer` itself (``close(drain_s=...)``).

See ``docs/overload.md`` for the full contract.
"""

from .admission import (SHED_DEADLINE_EXPIRED, SHED_DISPLACED,
                        SHED_QUEUE_FULL, SHED_SATURATED,
                        AdmissionController, AdmissionMetrics, Decision,
                        Ticket)
from .coupling import SERVER_LOAD, LoadQualityCoupling
from .deadline import (HEADER_DEADLINE_MS, HEADER_SHED_REASON,
                       deadline_from_headers, deadline_header_value,
                       with_deadline_header)
from .endpoint import ProtectedEndpoint, shed_reply
from .fleet import FleetServer, WorkerContext
from .metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from .metrics import render as render_metrics
from .metrics import (Metric, fleet_families, parse_exposition,
                      render_fleet_metrics, render_server_metrics,
                      server_families)
from .sandbox import HandlerSandbox
from .shm_stats import (STATE_DRAINING, STATE_EMPTY, STATE_READY,
                        STATE_STOPPED, FleetStats, WorkerStats)

__all__ = [
    "AdmissionController", "AdmissionMetrics", "Decision", "Ticket",
    "SHED_DEADLINE_EXPIRED", "SHED_DISPLACED", "SHED_QUEUE_FULL",
    "SHED_SATURATED",
    "HEADER_DEADLINE_MS", "HEADER_SHED_REASON",
    "deadline_from_headers", "deadline_header_value", "with_deadline_header",
    "LoadQualityCoupling", "SERVER_LOAD",
    "HandlerSandbox",
    "ProtectedEndpoint", "shed_reply",
    "FleetServer", "WorkerContext",
    "FleetStats", "WorkerStats",
    "STATE_EMPTY", "STATE_READY", "STATE_DRAINING", "STATE_STOPPED",
    "METRICS_CONTENT_TYPE", "Metric", "parse_exposition", "render_metrics",
    "server_families", "fleet_families",
    "render_server_metrics", "render_fleet_metrics",
]
