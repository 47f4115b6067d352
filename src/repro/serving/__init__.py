"""Server-side overload protection for the SOAP-binQ stack.

PR 3 made the *client* survive a misbehaving server; this package makes
the *server* survive its clients, by treating overload as a first-class
quality attribute:

* :mod:`~repro.serving.admission` — bounded worker pool + bounded,
  sheddable wait queue (earliest-deadline-first service and shedding)
  with live load metrics (queue depth, per-worker utilization, p95
  service time);
* :mod:`~repro.serving.coupling` — :class:`LoadQualityCoupling` feeds
  admission load into the quality manager, so an overloaded server sheds
  *bytes* (reduced reply formats) before it sheds *requests*;
* :mod:`~repro.serving.fleet` / :mod:`~repro.serving.shm_stats` —
  :class:`FleetServer` preforks N reactor workers on one
  ``SO_REUSEPORT`` port with a supervising parent, and
  :class:`FleetStats` publishes per-worker load through a
  seqlock shared-memory segment so both the control-port ``/healthz``
  and every worker's :class:`LoadQualityCoupling` see *fleet* load;
* :mod:`~repro.serving.metrics` — Prometheus text exposition for all of
  the above: every server answers ``GET /metrics``
  (:mod:`repro.http11.metrics`) and the fleet control port aggregates
  per-worker series (``docs/observability.md``).

Both plug into the one admission gate, ``_ServerCore._respond`` in
:mod:`repro.http11.server`: pass ``admission=`` / ``load_coupling=`` to
:func:`~repro.http11.HttpServer`.  The ``X-Deadline-Ms`` contract it
reads is :mod:`repro.http11.deadline`, and the quality-handler sandbox
is :mod:`repro.core.sandbox`.  Graceful drain and the ``/healthz``
readiness hook live on the server too (``close(drain_s=...)``).

See ``docs/overload.md`` for the full contract.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "admission": ["AdmissionController", "AdmissionMetrics", "Decision",
                  "Ticket", "SHED_DEADLINE_EXPIRED", "SHED_DISPLACED",
                  "SHED_QUEUE_FULL"],
    "coupling": ["LoadQualityCoupling", "SERVER_LOAD"],
    "fleet": ["FleetServer", "WorkerContext"],
    "metrics": ["Metric", "parse_exposition", "server_families",
                "fleet_families", "render_server_metrics",
                "render_fleet_metrics"],
    "shm_stats": ["FleetStats", "WorkerStats", "STATE_EMPTY", "STATE_READY",
                  "STATE_DRAINING", "STATE_STOPPED"],
}, aliases={
    "METRICS_CONTENT_TYPE": ("metrics", "CONTENT_TYPE"),
    "render_metrics": ("metrics", "render"),
})
