"""The repo's benchmark: end-to-end and per-layer metrics on five workloads.

    python3 perf/run.py [--seed N] [--seconds S] [--smoke]
        every workload, untraced then traced; prints every metric by name
        with its unit and writes perf/out/report.json plus one span file
        per workload

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload, one mode; the last line of standard output is one
        JSON object {"correct", "attempted", "failed", "metrics"} holding
        the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)

Metric names, units and bounds come from BENCHMARK.json.  The run exits
non-zero, and reports ``correct: false``, when a reply fails its check, a
response is not 2xx, the load opened a connection it should not have, or
anything was retried or shed.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import layers  # noqa: E402
from measure import (ServerProcess, calibrate,  # noqa: E402
                     cleared_environment, end_to_end, run_window,
                     speed_factors, warm_up)
from spans import SpanLog, layer_times_us, load_spans, spans_as_dicts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
SLICES = 5
#: calibration units timed before, and again after, each set-up
SETUP_UNITS = 20
FULL_SECONDS = 20.0
SMOKE_SECONDS = 5.0


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# one workload, one mode
# ----------------------------------------------------------------------
def set_up(workload, spans_path=None) -> Tuple[ServerProcess, float, float]:
    """Start the server child and bring a client to its first verified
    warm call: interpreter start, imports, format registration, codec
    compile and format announcements (first call), then one steady call.
    Returns the server and the time taken, scaled to the reference machine
    by calibration units run just before and after, and raw."""
    units = calibrate(SETUP_UNITS)
    start = time.perf_counter()
    server = ServerProcess(workload.service_kind, spans_path)
    try:
        workload.open(workload.make_channel(server.address))
        if warm_up(workload, 2):
            raise RuntimeError(f"{workload.name}: wrong reply during set-up")
    except BaseException:
        workload.close()
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    units += calibrate(SETUP_UNITS)
    return server, elapsed / speed_factors(units)[1], elapsed


def finish_warm_up(workload, seconds: float) -> None:
    """At least one whole schedule cycle and ``seconds / 20`` of calls,
    ending on a cycle boundary, so caches are filled and every window
    starts at the same point of the schedule."""
    deadline = time.perf_counter() + seconds / 20
    while (workload.sent < workload.cycle or workload.sent % workload.cycle
           or time.perf_counter() < deadline):
        if warm_up(workload, 1):
            raise RuntimeError(f"{workload.name}: wrong reply in warm-up")


def server_counters(server: ServerProcess) -> Dict[str, float]:
    scraped = server.scrape()
    return {
        "served": scraped["repro_requests_served_total"],
        "connections": scraped["repro_connections_accepted_total"] - 1,
        "admitted": scraped["repro_admission_admitted_total"],
        "shed": scraped["repro_requests_shed_total"],
        "queue_peak": scraped["repro_admission_queue_peak"],
        "cache_hits": scraped.get("repro_cache_hits_total", 0.0),
        "cache_misses": scraped.get("repro_cache_misses_total", 0.0),
        "switches": scraped.get("repro_quality_switches_total", 0.0),
        "fallbacks": scraped.get(
            "repro_quality_handler_fallbacks_total", 0.0),
    }


def counted_window(workload, server, seconds, slices, traced=False):
    """A window with the client's and the server's counters read around
    it; returns the window and the counter deltas."""
    before = {**workload.counters(), **server_counters(server)}
    window = run_window(workload, server, seconds, slices, traced)
    after = {**workload.counters(), **server_counters(server)}
    delta = {key: after[key] - before[key] for key in after}
    delta["connections"] = after["connections"]   # since server start
    delta["queue_peak"] = after["queue_peak"]
    delta["served"] -= 1                          # the scrape in between
    return window, delta


def problems(workload, window, delta) -> List[str]:
    """Why this window may not be reported; empty when it may."""
    found = []
    if window.failed:
        found.append(f"{window.failed} of {window.attempted} calls failed")
    if delta["non_2xx"]:
        found.append(f"{delta['non_2xx']:.0f} non-2xx responses")
    if delta["connections"] != workload.load_connections:
        found.append(f"load opened {delta['connections']:.0f} connections, "
                     f"expected {workload.load_connections}")
    if delta["retries"] or delta["shed"]:
        found.append(f"{delta['retries']:.0f} retries, "
                     f"{delta['shed']:.0f} shed")
    return found


def run_untraced(workload_cls, seed: int, seconds: float) -> Dict[str, Any]:
    workload = workload_cls(seed)
    setups, raw_setups = [], []
    for repeat in range(SETUP_REPEATS):
        server, setup_s, raw_setup_s = set_up(workload)
        setups.append(setup_s)
        raw_setups.append(raw_setup_s)
        if repeat < SETUP_REPEATS - 1:
            workload.close()
            server.stop()
    with server:
        try:
            finish_warm_up(workload, seconds)
            window, delta = counted_window(workload, server, seconds, SLICES)
            metrics, diagnostics = end_to_end(
                window, delta["request_bytes"] + delta["response_bytes"],
                statistics.median(setups), server.peak_rss_mb())
        finally:
            workload.close()
    metrics["setup_s"]["repeats"] = setups
    diagnostics["raw_setup_s"] = raw_setups
    return {"attempted": window.attempted, "failed": window.failed,
            "problems": problems(workload, window, delta),
            "metrics": metrics, "diagnostics": diagnostics}


def run_traced(workload_cls, seed: int, seconds: float,
               out_dir: Path) -> Dict[str, Any]:
    """An untraced reference window, a traced window on the same server,
    then the staged replay; each gets three tenths of ``seconds``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workload_cls(seed)
    server_spans = out_dir / f"server_spans_{workload.name}.json"
    log = SpanLog()
    server, _, _ = set_up(workload, str(server_spans))
    try:
        with server:
            finish_warm_up(workload, seconds)
            reference = run_window(workload, server, 0.3 * seconds, 2)
            workload.channel.log = log
            window, delta = counted_window(workload, server, 0.3 * seconds,
                                           2, traced=True)
        units = calibrate(SETUP_UNITS)
        staged = layers.staged(workload, workload_cls, seed, seconds / 50)
        units += calibrate(SETUP_UNITS)
    finally:
        workload.close()
    spans = log.spans + load_spans(str(server_spans))
    server_spans.unlink()
    trace_file = out_dir / f"trace_{workload.name}.json"
    with open(trace_file, "w") as fh:
        json.dump(spans_as_dicts(spans), fh)

    times = layer_times_us(spans)
    # each window's p50 scaled by the machine speed it saw, so drift
    # between windows reads neither as overhead nor as missing time
    reference_p50 = reference.p50_us()
    scaled_reference_p50 = reference_p50 / reference.factors()[0]
    traced_factors = window.factors()
    calls, cycles = window.calls, window.calls / workload.cycle
    looked_up = delta["cache_hits"] + delta["cache_misses"]
    binary = delta["pbio_messages"] > 0
    metrics = {name: times[name] for name in times if name.endswith("_us")}
    metrics.pop("root_us")
    metrics.update(staged)
    metrics.update({
        "http11.requests_per_call": delta["served"] / calls,
        "http11.connections_accepted": delta["connections"],
        "serving.admitted": delta["admitted"] / calls,
        "serving.shed": delta["shed"],
        "serving.queue_peak": delta["queue_peak"],
        "transport.pool_reused": delta["pool_reused"] / calls,
        "transport.retries": delta["retries"],
        "pbio.compact_share": (delta["pbio_compact"] / delta["pbio_messages"]
                               if binary else 0.0),
        "pbio.request_bytes": delta["request_bytes"] / calls if binary else 0.0,
        "pbio.response_bytes": (delta["response_bytes"] / calls
                                if binary else 0.0),
        "core.cache_hit_ratio": (delta["cache_hits"] / looked_up
                                 if looked_up else 0.0),
        "core.quality_switches": delta["switches"] / cycles,
        "core.handler_fallbacks": delta["fallbacks"],
        "core.level_share.ImageFull": delta["level_full"] / calls,
        "core.level_share.ImageHalf": delta["level_half"] / calls,
        "budget.coverage": (staged["budget.staged_sum_us"]
                            / speed_factors(units)[0]) / scaled_reference_p50,
        "trace.overhead_us": (window.p50_us() / traced_factors[0]
                              - scaled_reference_p50),
        "machine.speed_factor": traced_factors[1],
    })
    return {"attempted": window.attempted + reference.attempted,
            "failed": window.failed + reference.failed,
            "problems": problems(workload, window, delta)
            + ([f"{reference.failed} reference calls failed"]
               if reference.failed else []),
            "metrics": {name: {"value": value}
                        for name, value in metrics.items()},
            "diagnostics": {
                "traced_calls": times["calls"],
                "traced_root_p50_us": times["root_us"],
                "reference_p50_us": reference_p50,
                "trace_file": str(trace_file)}}


def contract_metrics(result: Dict[str, Any],
                     declared: List[Dict[str, str]]) -> Dict[str, Any]:
    """Exactly the metrics BENCHMARK.json declares, each with its unit."""
    out = {}
    for entry in declared:
        value = result["metrics"][entry["name"]]["value"]
        if not math.isfinite(value):
            raise RuntimeError(f"{entry['name']} is not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if set(result["metrics"]) != set(out):
        raise RuntimeError("measured and declared metrics differ: "
                           f"{sorted(set(result['metrics']) ^ set(out))}")
    return out


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def environment(cpu: int) -> Dict[str, Any]:
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "pinned_to_cpu": cpu,
        "load_average_before": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit or None,
        "cleared_variables": cleared_environment()[1],
        "loop": "closed", "clients": 1,
        "link": "loopback", "server_processes": 1,
    }


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def full_run(args, contract) -> int:
    report = {"schema": 1, "environment": environment(args.cpu),
              "settings": {"seed": args.seed, "window_s": args.seconds,
                           "slices": SLICES, "traced_window_s":
                           0.3 * args.seconds, "smoke": args.smoke,
                           "setup_repeats": SETUP_REPEATS},
              "workloads": {}}
    bad = False
    for entry in contract["workloads"]:
        name = entry["name"]
        untraced = run_untraced(WORKLOADS[name], args.seed, args.seconds)
        traced = run_traced(WORKLOADS[name], args.seed, args.seconds,
                            args.out)
        found = untraced["problems"] + traced["problems"]
        end = contract_metrics(untraced, contract["end_to_end"])
        for metric, value in end.items():          # keep slices and MAD
            value.update(untraced["metrics"][metric])
        report["workloads"][name] = {
            "why": entry["why"], "problems": found,
            "attempted": untraced["attempted"], "failed": untraced["failed"],
            "end_to_end": end,
            "per_layer": contract_metrics(traced, contract["per_layer"]),
            "diagnostics": {**untraced["diagnostics"],
                            **traced["diagnostics"]},
        }
        print(f"\n== {name}: {untraced['attempted']} calls, "
              f"{untraced['failed']} failed")
        for section in ("end_to_end", "per_layer"):
            for metric, value in report["workloads"][name][section].items():
                print(f"  {metric:36s} {value['value']:14.4f} "
                      f"{value['unit']}")
        for problem in found:
            bad = True
            print(f"  INVALID: {problem}")
    report["environment"]["load_average_after"] = os.getloadavg()
    if bad:
        print("\nrun is invalid; no report written", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwrote {args.out / 'report.json'}")
    return 0


def single_run(args, contract) -> int:
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(workload_cls, args.seed, args.seconds, args.out)
        declared = contract["per_layer"]
    else:
        result = run_untraced(workload_cls, args.seed, args.seconds)
        declared = contract["end_to_end"]
    for problem in result["problems"]:
        print(f"INVALID: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": contract_metrics(result, declared)}))
    return 1 if result["problems"] else 0


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU.

    In a closed loop with one client the two processes take turns, so
    one CPU loses nothing; on two, each hand-off wakes an idle virtual
    CPU, which on the VMs this runs on costs 50-300 us, varies with the
    host, and swamps a 350 us call.  Sharing a CPU turns the hand-off
    into a context switch and the measurement into the program's own cost.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s windows")
    parser.add_argument("--out", type=Path, default=ROOT / "perf" / "out")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else FULL_SECONDS
    contract = load_contract()
    args.cpu = pin_to_one_cpu()
    if args.workload:
        return single_run(args, contract)
    return full_run(args, contract)


if __name__ == "__main__":
    sys.exit(main())
