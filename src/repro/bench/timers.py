"""Timing and statistics helpers for the benchmark harness.

The paper reports averages over 10-1000 runs after discarding the first set
(cold-start elimination); :func:`measure` mirrors that protocol.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Union


def measure(fn: Callable[[], object], repeat: int = 5,
            warmup: int = 1) -> float:
    """Average seconds per call over ``repeat`` runs after ``warmup``.

    "Measurements are derived from sets of 10-1000 experiments, reporting
    the averages over all readings, after discarding the first set (to
    eliminate cold start effects)." (§IV-B)
    """
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return sum(samples) / len(samples)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


class LogHistogram:
    """Streaming latency histogram over geometric (log-spaced) buckets.

    A t-digest-style compromise for the loadgen harness: recording is
    O(1) with a fixed ~900-byte footprint regardless of sample count, the
    counts of two histograms (from different generator processes, or from
    different seconds of the run) merge by plain addition, and percentile
    queries interpolate within the matched bucket.  Bucket boundaries grow
    by ``2**0.25`` (~19%) per step from ``min_value`` — so a reported
    quantile is within ~±10% of the true one, plenty for p50/p95/p99 over
    RPC latencies spanning microseconds to seconds.

    Values below ``min_value`` land in bucket 0; values beyond the top
    boundary clamp into the last bucket (its upper edge is reported).
    """

    #: one bucket per quarter-octave
    GROWTH = 2 ** 0.25

    def __init__(self, min_value: float = 1e-6, max_value: float = 64.0,
                 counts: Optional[List[int]] = None) -> None:
        if min_value <= 0 or max_value <= min_value:
            raise ValueError("need 0 < min_value < max_value")
        self.min_value = min_value
        self.max_value = max_value
        self._log_min = math.log(min_value)
        self._log_growth = math.log(self.GROWTH)
        nbuckets = int(math.ceil(
            (math.log(max_value) - self._log_min) / self._log_growth)) + 1
        if counts is not None:
            if len(counts) != nbuckets:
                raise ValueError(
                    f"counts length {len(counts)} does not match the "
                    f"{nbuckets} buckets of [{min_value}, {max_value}]")
            self.counts = list(counts)
        else:
            self.counts = [0] * nbuckets
        self.total = sum(self.counts)

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        idx = int((math.log(value) - self._log_min) / self._log_growth)
        return min(idx, len(self.counts) - 1)

    def _upper_edge(self, index: int) -> float:
        return self.min_value * (self.GROWTH ** (index + 1))

    def record(self, value: float) -> None:
        self.counts[self._index(value)] += 1
        self.total += 1

    def merge(self, other: "LogHistogram") -> None:
        if len(other.counts) != len(self.counts):
            raise ValueError("cannot merge histograms with different "
                             "bucket layouts")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total

    def percentile(self, q: float) -> float:
        """Estimated value at percentile ``q`` (0..100)."""
        if self.total == 0:
            return 0.0
        rank = (q / 100.0) * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= rank:
                lower = (self.min_value * (self.GROWTH ** i)
                         if i > 0 else 0.0)
                upper = self._upper_edge(i)
                frac = (rank - seen) / count
                return lower + (upper - lower) * min(1.0, max(0.0, frac))
            seen += count
        return self._upper_edge(len(self.counts) - 1)

    def summary(self) -> Dict[str, float]:
        return {"count": self.total,
                "p50": self.percentile(50.0),
                "p95": self.percentile(95.0),
                "p99": self.percentile(99.0)}

    # serialization across the generator -> coordinator process boundary
    def to_dict(self) -> Dict[str, object]:
        return {"min_value": self.min_value, "max_value": self.max_value,
                "counts": list(self.counts)}

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "LogHistogram":
        return cls(min_value=float(doc["min_value"]),
                   max_value=float(doc["max_value"]),
                   counts=list(doc["counts"]))  # type: ignore[arg-type]


def rss_kb(pid: Union[int, str] = "self") -> int:
    """Resident set size of process ``pid`` (default: this one) in KiB,
    from Linux ``/proc``; 0 where it cannot be read."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def jitter_stats(response_times: Sequence[float]) -> Dict[str, float]:
    """Summary used for the Figs. 8/9 jitter discussion."""
    return {
        "mean": mean(response_times),
        "stdev": stdev(response_times),
        "p5": percentile(response_times, 5),
        "p95": percentile(response_times, 95),
        "max": max(response_times) if response_times else 0.0,
        "min": min(response_times) if response_times else 0.0,
    }
