"""Fleet families for the ``/metrics`` exposition.

The exposition format, its parser and every server's own families live
in :mod:`repro.http11.metrics`, because the HTTP server answers
``GET /metrics`` itself; this module adds what only the fleet renders:
a :class:`~repro.serving.fleet.FleetServer` control port's aggregate
view.  It re-exports the format's names so ``repro.serving.metrics``
keeps offering them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from ..http11.metrics import (CONTENT_TYPE, Metric, counter, gauge,
                              parse_exposition, render,
                              render_server_metrics, server_families)

__all__ = [
    "CONTENT_TYPE", "Metric", "render", "parse_exposition",
    "server_families", "fleet_families",
    "render_server_metrics", "render_fleet_metrics",
]


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
        gauge("repro_fleet_workers", "Configured fleet size.",
               fleet.workers),
        gauge("repro_fleet_workers_live",
               "Workers with a fresh heartbeat.", agg["workers_live"]),
        counter("repro_fleet_respawns_total",
                 "Workers respawned after a crash.", fleet.respawns_total),
        counter("repro_fleet_requests_served_total",
                 "Responses sent across live workers.",
                 agg["requests_served"]),
        counter("repro_fleet_requests_shed_total",
                 "Requests shed across live workers.",
                 agg["requests_shed"]),
        counter("repro_fleet_responses_304_total",
                 "Header-only 304 responses across live workers.",
                 agg["responses_304"]),
        counter("repro_fleet_connections_accepted_total",
                 "Connections accepted across live workers.",
                 agg["connections_accepted"]),
        gauge("repro_fleet_connections_active",
               "Open connections across live workers.",
               agg["connections_active"]),
        gauge("repro_fleet_busy", "Worker permits held across the fleet.",
               agg["busy"]),
        gauge("repro_fleet_queue_depth",
               "Requests queued across the fleet.", agg["queue_depth"]),
        gauge("repro_fleet_utilization",
               "Capacity-weighted pool utilization across live workers.",
               agg["utilization"]),
        gauge("repro_fleet_queue_pressure",
               "Queue depth over queue capacity across live workers.",
               agg["queue_pressure"]),
        gauge("repro_fleet_load",
               "Composite fleet load (utilization + queue pressure).",
               agg["load"]),
        counter("repro_fleet_cache_hits_total",
                 "Response-cache hits across live workers.",
                 agg["cache_hits"]),
        counter("repro_fleet_cache_misses_total",
                 "Response-cache misses across live workers.",
                 agg["cache_misses"]),
        counter("repro_fleet_cache_evictions_total",
                 "Response-cache evictions across live workers.",
                 agg["cache_evictions"]),
        counter("repro_fleet_cache_invalidations_total",
                 "Response-cache invalidations across live workers.",
                 agg["cache_invalidations"]),
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
    families.extend(per_worker.values())
    return families


def render_fleet_metrics(fleet) -> bytes:
    return render(fleet_families(fleet))


#: Convenience: scrape-and-parse callable used by the loadgen harness.
ScrapeFn = Callable[[], Dict[str, float]]
