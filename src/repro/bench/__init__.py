"""Benchmark harness: workload generators, timers, tables and the
figure/table computations behind ``benchmarks/``.

Heavier machinery lives in submodules imported on demand (they pull in
transport/serving):

* :mod:`~repro.bench.regress` — the regression harness behind CI's
  ``bench-smoke`` (what ``perf/`` does not measure);
* :mod:`~repro.bench.gates` — the CI gate logic judging its reports;
* :mod:`~repro.bench.loadgen` — the multi-process load generator
  (``python -m repro.cli loadgen``) and its JSON/HTML reports.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "tables": ["render_table", "print_table", "human_bytes", "human_time"],
    "timers": ["measure", "mean", "stdev", "percentile", "jitter_stats",
               "LogHistogram"],
}, submodules=("datagen", "figures"))
