"""The measuring half: the server child, the closed-loop timed window and
the statistics taken over it.

Closed loop, one client: the single load thread sends its next call only
when the previous reply is back, as a SOAP caller does, so a slower server
receives less load.  Latency is what that client observes.
"""

from __future__ import annotations

import json
import os
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.http11 import HttpConnection
from repro.serving import parse_exposition

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
_TICK_US = 1e6 / os.sysconf("SC_CLK_TCK")


def cleared_environment() -> Tuple[Dict[str, str], Dict[str, str]]:
    """The child's environment with every ``REPRO_*`` variable removed
    (so defaults are measured), and what was removed."""
    observed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env = {k: v for k, v in os.environ.items() if k not in observed}
    return env, observed


class ServerProcess:
    """``perf/server.py`` running as a child; a context manager that
    always stops it and waits for it to end."""

    def __init__(self, kind: str, spans_path: Optional[str] = None) -> None:
        command = [sys.executable, str(PERF_DIR / "server.py"), kind]
        if spans_path:
            command += ["--spans", spans_path]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     env=cleared_environment()[0])
        try:
            line = self.proc.stdout.readline()
            self.address = ("127.0.0.1", json.loads(line)["port"])
        except Exception:
            self.stop()
            raise RuntimeError(f"server child {kind!r} did not start")
        self.pid = self.proc.pid
        #: scrapes use their own keep-alive connection, opened before the
        #: load's, so the load's connection count is the server's minus one
        self.scraper = HttpConnection(self.address)

    def scrape(self) -> Dict[str, float]:
        """One ``/metrics`` scrape, parsed."""
        return parse_exposition(
            self.scraper.get("/metrics").body.decode("utf-8"))

    def cpu_us(self) -> float:
        """utime + stime of the child so far."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * _TICK_US

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        scraper = getattr(self, "scraper", None)
        if scraper is not None:
            scraper.close()
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation."""
    centre = statistics.median(values)
    return statistics.median(abs(v - centre) for v in values)


def over_slices(values: List[float]) -> Dict[str, Any]:
    return {"value": statistics.median(values), "slices": values,
            "mad": mad(values)}


# ----------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------
#: share of the time inside calls that is spent again on calibration
CALIBRATION_SHARE = 0.05
#: a calibration unit takes this long on the reference machine
NOMINAL_UNIT_NS = 1_000_000
_PACK = struct.Struct("<iBhd")


def calibration_unit() -> int:
    """Time one unit of fixed pure-Python work that uses nothing of the
    library; returns ns.

    The shared hosts this runs on change speed by up to 2x for minutes at
    a time, for every process alike and without showing as steal.  Units
    are interleaved with the calls, and every reported time is divided by
    (observed unit time / nominal unit time): times read as on a machine
    where a unit takes 1 ms.  The raw values stay in the diagnostics.
    """
    start = time.perf_counter_ns()
    total = 0
    for i in range(2000):
        record = {"a": i, "b": i * 2, "c": str(i)}
        total += len(_PACK.pack(i, i & 1, i & 0x7FFF, i * 0.5)) \
            + record["a"] + len(record["c"])
    return time.perf_counter_ns() - start


def calibrate(units: int) -> List[int]:
    """Time ``units`` calibration units back to back."""
    return [calibration_unit() for _ in range(units)]


def speed_factors(units_ns: Sequence[int]) -> Tuple[float, float]:
    """(typical, average) slowdown against the reference machine: medians
    of latency are divided by the first, totals and tails by the second,
    because a burst of interference moves the mean of both the calls and
    the units but the median of neither."""
    return (statistics.median(units_ns) / NOMINAL_UNIT_NS,
            statistics.fmean(units_ns) / NOMINAL_UNIT_NS)


# ----------------------------------------------------------------------
# the timed window
# ----------------------------------------------------------------------
@dataclass
class Slice:
    latencies_ns: List[int]
    calls: int                     # sub-calls counted singly
    client_cpu_us: float           # calibration excluded
    server_cpu_us: float
    units_ns: List[int]


class Window:
    """What one timed window observed."""

    def __init__(self) -> None:
        self.slices: List[Slice] = []
        self.attempted = 0
        self.failed = 0

    @property
    def calls(self) -> int:
        return sum(piece.calls for piece in self.slices)

    def p50_us(self) -> float:
        """Raw median latency over the pooled calls."""
        return statistics.median(
            ns for piece in self.slices for ns in piece.latencies_ns) / 1e3

    def factors(self) -> Tuple[float, float]:
        """:func:`speed_factors` over the whole window."""
        return speed_factors(
            [ns for piece in self.slices for ns in piece.units_ns])


def run_window(workload, server: ServerProcess, seconds: float,
               slices: int, traced: bool = False) -> Window:
    """Drive ``workload`` for about ``seconds`` seconds in ``slices`` slices.

    A slice ends at the first whole cycle after its share of the time, so
    every slice holds the same mix of values and levels.  Calibration
    units run between calls, and replies are checked between slices:
    both outside every timed and CPU-accounted region.
    """
    window = Window()
    call = workload.traced_call if traced else workload.call
    slice_ns = int(seconds / slices * 1e9)
    measured_ns = 0
    while measured_ns < seconds * 1e9 - slice_ns // 2:
        latencies: List[int] = []
        units: List[int] = []
        outcomes: List[Any] = []
        in_calls = in_units = units_cpu = 0
        server_cpu = server.cpu_us()
        client_cpu = time.process_time_ns()
        slice_start = time.perf_counter_ns()
        while True:
            start = time.perf_counter_ns()
            try:
                outcome = call()
            except Exception as exc:  # noqa: BLE001 - a failed call, counted
                outcome = exc
            end = time.perf_counter_ns()
            latencies.append(end - start)
            outcomes.append(outcome)
            in_calls += end - start
            if in_units < CALIBRATION_SHARE * in_calls:
                cpu = time.process_time_ns()
                while in_units < CALIBRATION_SHARE * in_calls:
                    units.append(calibration_unit())
                    in_units += units[-1]
                units_cpu += time.process_time_ns() - cpu
            if end - slice_start >= slice_ns \
                    and len(latencies) % workload.cycle == 0:
                break
        client_cpu = time.process_time_ns() - client_cpu - units_cpu
        server_cpu = server.cpu_us() - server_cpu
        measured_ns += end - slice_start
        calls = len(latencies) * workload.batch
        window.slices.append(Slice(latencies, calls, client_cpu / 1e3,
                                   server_cpu, units))
        window.attempted += calls
        for outcome in outcomes:
            window.failed += (workload.batch
                              if isinstance(outcome, Exception)
                              else workload.check(outcome))
    return window


def warm_up(workload, calls: int) -> int:
    """Issue ``calls`` verified calls; returns how many replies were wrong."""
    return sum(workload.check(workload.call()) for _ in range(calls))


def end_to_end(window: Window, body_bytes: float, setup_s: float,
               peak_rss_mb: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The end-to-end metrics of a window, with every time scaled to the
    reference machine, and the ungated diagnostics (raw values among
    them)."""
    factors = [speed_factors(piece.units_ns) for piece in window.slices]
    raw = sorted(ns for piece in window.slices for ns in piece.latencies_ns)
    by_typical = sorted(ns / typical for piece, (typical, _) in
                        zip(window.slices, factors)
                        for ns in piece.latencies_ns)
    by_average = sorted(ns / average for piece, (_, average) in
                        zip(window.slices, factors)
                        for ns in piece.latencies_ns)
    rates = [piece.calls / (sum(piece.latencies_ns) / 1e9)
             for piece in window.slices]
    metrics = {
        "setup_s": {"value": setup_s},
        "calls_per_s": over_slices(
            [rate * average for rate, (_, average) in zip(rates, factors)]),
        "call_p50_us": over_slices(
            [statistics.median(piece.latencies_ns) / typical / 1e3
             for piece, (typical, _) in zip(window.slices, factors)]),
        "call_p90_us": over_slices(
            [percentile(sorted(piece.latencies_ns), 0.90) / average / 1e3
             for piece, (_, average) in zip(window.slices, factors)]),
        "body_bytes_per_call": {"value": body_bytes / window.calls},
        "server_cpu_us_per_call": over_slices(
            [piece.server_cpu_us / piece.calls / average
             for piece, (_, average) in zip(window.slices, factors)]),
        "client_cpu_us_per_call": over_slices(
            [piece.client_cpu_us / piece.calls / average
             for piece, (_, average) in zip(window.slices, factors)]),
        "server_peak_rss_mb": {"value": peak_rss_mb},
    }
    # percentiles are over the pooled calls; the slices show the spread
    metrics["call_p50_us"]["value"] = percentile(by_typical, 0.50) / 1e3
    metrics["call_p90_us"]["value"] = percentile(by_average, 0.90) / 1e3
    diagnostics = {
        "n": len(raw),
        "raw_call_p50_us": percentile(raw, 0.50) / 1e3,
        "raw_call_p90_us": percentile(raw, 0.90) / 1e3,
        "raw_call_p99_us": percentile(raw, 0.99) / 1e3,
        "raw_call_max_us": raw[-1] / 1e3,
        "raw_calls_per_s": statistics.median(rates),
        "speed_factors_typical": [typical for typical, _ in factors],
        "speed_factors_average": [average for _, average in factors],
        "failed_share": window.failed / window.attempted,
        "slice_calls": [piece.calls for piece in window.slices],
    }
    return metrics, diagnostics


def time_stage(fn: Callable[[int], Any], budget_s: float,
               period: int = 1, enough: int = 1000) -> float:
    """Median µs of ``fn(i)`` over ``enough`` iterations or ``budget_s``
    seconds, whichever comes first — but always whole passes over the
    ``period`` samples ``fn`` cycles through, so a mix of sizes keeps its
    proportions (and at least three iterations)."""
    samples: List[int] = []
    deadline = time.perf_counter() + budget_s
    i = 0
    while i < 3 or i % period or (
            i < enough and time.perf_counter() < deadline):
        start = time.perf_counter_ns()
        fn(i)
        samples.append(time.perf_counter_ns() - start)
        i += 1
    return statistics.median(samples) / 1e3
