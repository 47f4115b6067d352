"""CI benchmark gates: the judgment logic of two CI jobs.

* ``python -m repro.bench.gates BENCH_fresh.json`` judges one fresh
  :mod:`repro.bench.regress` report on its own.  Every gate reads a
  ratio of two things timed in that same run, a count, or a byte bound
  — never a time recorded on another machine — so the verdict holds on
  any runner;
* ``python -m repro.bench.gates --loadgen LOADGEN_report.json``
  validates a load-generator report (schema, zero transport errors,
  p99 bound) for the ``loadgen-smoke`` job.

Every gate prints the numbers it judged and raises :class:`GateFailure`
with an actionable message on violation, so the unit tests in
``tests/bench/test_gates.py`` can exercise both sides of every
threshold without a workflow run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

#: the SOAP-bin echo p50 may be at most this many times the Sun RPC
#: null-call p50 (median of interleaved per-slice ratios, one pinned
#: CPU).  44 smoke runs on a 2-vCPU Xeon VM (CPython 3.11) read
#: 3.54-4.42; a busy-wait of one echo p50 (100 us) in the echo path read
#: 6.77-7.81 over five runs, of 200 us 7.02-11.2
RPC_MAX_OVER_SUNRPC_NULL = 5.5
#: pipelined depth-8 must beat serial calls on one connection by this
#: factor (both timed in one run); a pipeline fallen back to serial
#: reads ~1
PIPELINED_DEPTH8_MIN_SPEEDUP = 1.5
#: default p99 ceiling for the loadgen smoke gate — deliberately
#: generous: it catches pathologies (stalls, retry storms), not noise
LOADGEN_P99_MAX_S = 5.0
#: compact encoding must shrink the small-int-heavy shape at least 2x
WIRE_COMPACT_MIN_SHRINK = 2.0
#: the compact int-array block kernels must beat the scalar loop they
#: replaced by this factor, encode and decode (both timed in one run)
WIRE_COMPACT_MIN_SPEEDUP_VS_SCALAR = 8.0
#: compact encode of the small-int shape may be at most 3x slower than
#: native encode (the ROADMAP's "within 3x of native")
WIRE_COMPACT_ENCODE_MAX_SLOWDOWN = 3.0
#: compact encode and decode of the depth-8 nested struct may each be at
#: most this many times slower than native, timed in the same run
WIRE_COMPACT_STRUCT_MAX_SLOWDOWN = 6.0
#: compact decode of the small-int-heavy shape may be at most this many
#: times slower than native's zero-copy view, timed in the same run: the
#: bit-packing kernels measure ~10x, a per-element decode ~460x
WIRE_COMPACT_INT_DECODE_MAX_SLOWDOWN = 40.0
#: streaming 64 MiB may grow RSS by at most 25% of the payload
STREAM_RSS_MAX_RATIO = 0.25
#: the compiled XML parser must read ``int32[1000]`` at least this many
#: times as fast as the pull parser, in the same run.  Smoke runs on a
#: 2-vCPU Xeon VM (CPython 3.11, NumPy 2.4) read 136-237 with integer
#: runs read by NumPy's C parser, 43-75 with that step switched off
XLATE_FROM_XML_MIN_SPEEDUP_VS_PULL = 100.0


class GateFailure(Exception):
    """A CI gate judged the numbers and said no."""


def require_section(doc: Dict[str, Any], name: str) -> Dict[str, Any]:
    """The one missing-section helper all gates share.

    Raises :class:`GateFailure` pointing at the exact regenerate
    command, instead of each gate inventing its own KeyError.
    """
    if name not in doc:
        raise GateFailure(
            f"BENCH_fresh.json lacks the {name!r} section: regenerate with "
            f"`python -m repro.bench.regress --smoke --out BENCH_fresh.json "
            f"--sections {name}`")
    return doc[name]


def gate_rpc_vs_sunrpc(fresh: Dict[str, Any]) -> None:
    """Fail if the SOAP-bin echo p50 exceeds
    :data:`RPC_MAX_OVER_SUNRPC_NULL` times the Sun RPC null call's.

    The paper's Fig. 4 reference: both calls run on the same host, in
    alternating slices of one run, so the host's speed cancels out of
    the ratio."""
    rpc = require_section(fresh, "rpc")
    ratio = rpc["p50_over_sunrpc_null"]
    print(f"rpc: echo p50 {rpc['p50_call_latency_s'] * 1e6:.1f}us, "
          f"Sun RPC null p50 {rpc['sunrpc_null_p50_s'] * 1e6:.1f}us, "
          f"per-slice ratio {ratio:.2f}x (max {RPC_MAX_OVER_SUNRPC_NULL}x)")
    if ratio > RPC_MAX_OVER_SUNRPC_NULL:
        raise GateFailure(
            f"rpc p50 is {ratio:.2f}x a Sun RPC null call "
            f"(> {RPC_MAX_OVER_SUNRPC_NULL}x)")


def gate_pipelined_speedup(fresh: Dict[str, Any]) -> None:
    """Fail if depth-8 pipelining beats serial calls by less than
    :data:`PIPELINED_DEPTH8_MIN_SPEEDUP`."""
    speedup = require_section(
        fresh, "concurrency")["pipelined_depth8_speedup_vs_serial"]
    print(f"pipelined depth-8: {speedup:.2f}x serial "
          f"(min {PIPELINED_DEPTH8_MIN_SPEEDUP}x)")
    if speedup < PIPELINED_DEPTH8_MIN_SPEEDUP:
        raise GateFailure(
            f"pipelined depth-8 is only {speedup:.2f}x serial "
            f"(< {PIPELINED_DEPTH8_MIN_SPEEDUP}x)")


def gate_cache_counts(fresh: Dict[str, Any]) -> None:
    """Both cache wins, judged by the work skipped rather than by a clock
    (a hit and a 304 each save well under the spread of a p50):

    * with the cache off every call ran the pure ``GetData`` handler;
      with it on the handler ran once and the rest were result hits, and
      the quality layer hit its cache on all but the first two calls;
    * every conditional request was answered ``304 Not Modified``.
    """
    cache = require_section(fresh, "cache")
    calls = cache["calls"]
    hits = cache["cache_stats"]["hits"]
    print(f"cache: {calls} calls; handler ran {cache['cold_handler_runs']}x "
          f"cold, {cache['hit_handler_runs']}x with the cache "
          f"({cache['hit_result_hits']} result hits, {hits} cache hits); "
          f"{cache['responses_304']} responses 304")
    if (cache["cold_handler_runs"] < calls or cache["hit_handler_runs"] != 1
            or cache["hit_result_hits"] < calls - 1 or hits < calls - 2):
        raise GateFailure("cache counts do not show a hit-path win")
    if cache["responses_304"] != calls:
        raise GateFailure(
            f"cache counts do not show a 304 win: {cache['responses_304']} "
            f"of {calls} conditional requests were answered 304")


def gate_wire_fresh(fresh: Dict[str, Any]) -> None:
    """The compact codec and the streaming path (``wire.shapes`` times
    native and compact of each shape in interleaved rounds, so the host's
    speed cancels out of every ratio):

    * compact encoding shrinks the small-int-heavy shape by at least
      :data:`WIRE_COMPACT_MIN_SHRINK` — the negotiation exists to buy it;
    * on that shape the int-array kernels beat the scalar loop by
      :data:`WIRE_COMPACT_MIN_SPEEDUP_VS_SCALAR` both ways, and compact
      stays within :data:`WIRE_COMPACT_ENCODE_MAX_SLOWDOWN` of native
      encode and :data:`WIRE_COMPACT_INT_DECODE_MAX_SLOWDOWN` of native's
      zero-copy decode, so a kernel fallen back to per-element work fails;
    * ``nested_struct_d8``, sent compact on every small ``wire=auto``
      call, stays within :data:`WIRE_COMPACT_STRUCT_MAX_SLOWDOWN` of
      native both ways, so a per-field compact plan shows here first;
    * 64 MiB streamed through the reactor's chunked route grew RSS by
      under :data:`STREAM_RSS_MAX_RATIO` of the payload — the
      constant-memory contract of the large-message path.
    """
    wire = require_section(fresh, "wire")
    shapes = wire["shapes"]
    small = shapes["small_int_heavy"]
    stream = wire["streaming"]
    print(f"wire: small-int compact shrink {small['compact_shrink']:.2f}x "
          f"({small['native_bytes']:,} -> {small['compact_bytes']:,} "
          f"bytes); streamed {stream['payload_bytes'] >> 20} MiB with "
          f"+{stream['rss_growth_kb']} KiB RSS "
          f"({stream['rss_growth_ratio']:.3f} of payload)")
    if small["compact_shrink"] < WIRE_COMPACT_MIN_SHRINK:
        raise GateFailure(
            f"compact encoding shrinks the small-int shape only "
            f"{small['compact_shrink']:.2f}x "
            f"(< {WIRE_COMPACT_MIN_SHRINK}x)")
    for direction in ("encode", "decode"):
        speedup = small[f"compact_{direction}_speedup_vs_scalar"]
        print(f"wire: compact int-array {direction} "
              f"{speedup:.1f}x the scalar loop")
        if speedup < WIRE_COMPACT_MIN_SPEEDUP_VS_SCALAR:
            raise GateFailure(
                f"vectorised compact {direction} is only {speedup:.1f}x "
                f"the scalar loop "
                f"(< {WIRE_COMPACT_MIN_SPEEDUP_VS_SCALAR}x)")
    for name, direction, bound in (
            ("small_int_heavy", "encode", WIRE_COMPACT_ENCODE_MAX_SLOWDOWN),
            ("nested_struct_d8", "encode", WIRE_COMPACT_STRUCT_MAX_SLOWDOWN),
            ("nested_struct_d8", "decode", WIRE_COMPACT_STRUCT_MAX_SLOWDOWN),
            ("small_int_heavy", "decode",
             WIRE_COMPACT_INT_DECODE_MAX_SLOWDOWN)):
        shape = shapes[name]
        slowdown = (shape[f"native_{direction}_ops_s"]
                    / shape[f"compact_{direction}_ops_s"])
        print(f"wire: {name} compact {direction} "
              f"{slowdown:.2f}x slower than native (max {bound}x)")
        if slowdown > bound:
            raise GateFailure(
                f"compact {direction} of {name} is {slowdown:.2f}x slower "
                f"than native (> {bound}x)")
    if stream["rss_growth_ratio"] >= STREAM_RSS_MAX_RATIO:
        raise GateFailure(
            f"streaming RSS growth {stream['rss_growth_ratio']:.3f} of "
            f"payload breaches the {STREAM_RSS_MAX_RATIO} constant-memory "
            f"bound")


def gate_xlate_fresh(fresh: Dict[str, Any]) -> None:
    """Fail if the compiled XML parser reads ``int32[1000]`` less than
    :data:`XLATE_FROM_XML_MIN_SPEEDUP_VS_PULL` times as fast as the pull
    parser (``xlate.int32_array_1k``, both timed in one run), so an
    integer run that no longer takes NumPy's C parser fails."""
    speedup = require_section(
        fresh, "xlate")["int32_array_1k"]["from_xml_speedup_vs_pull"]
    print(f"xlate: int32[1000] from_xml {speedup:.1f}x the pull parser "
          f"(min {XLATE_FROM_XML_MIN_SPEEDUP_VS_PULL}x)")
    if speedup < XLATE_FROM_XML_MIN_SPEEDUP_VS_PULL:
        raise GateFailure(
            f"compiled from_xml of int32[1000] is only {speedup:.1f}x the "
            f"pull parser (< {XLATE_FROM_XML_MIN_SPEEDUP_VS_PULL}x)")


def run_bench_gates(fresh: Dict[str, Any]) -> None:
    """All regression gates, over one fresh report."""
    gate_rpc_vs_sunrpc(fresh)
    gate_pipelined_speedup(fresh)
    gate_cache_counts(fresh)
    gate_wire_fresh(fresh)
    gate_xlate_fresh(fresh)


def gate_loadgen(report: Dict[str, Any],
                 p99_max_s: float = LOADGEN_P99_MAX_S) -> None:
    """The loadgen-smoke judgment: valid, error-free, sane tail.

    * the report must validate against the loadgen schema;
    * zero transport errors (sheds are fine — that is the server
      working — but a connection reset or protocol error is not);
    * at least one request completed;
    * overall p99 under ``p99_max_s``.
    """
    from .loadgen_report import validate_report

    problems = validate_report(report)
    if problems:
        raise GateFailure("loadgen report failed schema validation:\n  "
                          + "\n  ".join(problems))
    totals = report["totals"]
    p99 = report["latency"]["overall"]["p99_s"]
    print(f"loadgen: {totals['requests']} requests, "
          f"{totals['errors']} errors, {totals['shed']} shed, "
          f"p99 {p99 * 1e3:.2f} ms (max {p99_max_s * 1e3:.0f} ms)")
    if totals["requests"] == 0:
        raise GateFailure("loadgen completed zero requests")
    if totals["errors"] != 0:
        raise GateFailure(
            f"loadgen saw {totals['errors']} transport errors "
            f"(sheds: {totals['shed']})")
    if p99 > p99_max_s:
        raise GateFailure(
            f"loadgen overall p99 {p99:.3f}s exceeds the "
            f"{p99_max_s:.3f}s bound")
    failures = [gen for gen in report.get("generators", [])
                if gen.get("failures")]
    if failures:
        raise GateFailure(
            "generator processes reported warmup/setup failures: "
            + "; ".join(str(gen["failures"]) for gen in failures))


def _load(path: str) -> Dict[str, Any]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise GateFailure(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise GateFailure(f"{path} is not valid JSON: {exc}") from exc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gates",
        description="CI benchmark gates (see module docstring)")
    parser.add_argument("fresh", nargs="?",
                        help="freshly generated BENCH_fresh.json")
    parser.add_argument("--loadgen", metavar="REPORT",
                        help="gate a LOADGEN_report.json instead")
    parser.add_argument("--p99-max", type=float, default=LOADGEN_P99_MAX_S,
                        help="loadgen p99 ceiling in seconds "
                             "(default %(default)s)")
    args = parser.parse_args(argv)

    try:
        if args.loadgen:
            if args.fresh:
                parser.error("--loadgen does not take a FRESH report")
            gate_loadgen(_load(args.loadgen), p99_max_s=args.p99_max)
        else:
            if not args.fresh:
                parser.error("need a FRESH report path (or --loadgen REPORT)")
            run_bench_gates(_load(args.fresh))
    except GateFailure as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
