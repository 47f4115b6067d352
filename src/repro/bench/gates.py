"""CI benchmark gates, extracted from inline ``python - <<EOF`` steps.

CI used to carry four copy-pasted heredoc gate scripts inside
``ci.yml`` — unreviewable, untestable, and each with its own slightly
different missing-section error.  This module is the single home for
that judgment logic:

* ``python -m repro.bench.gates BENCH_headline.json BENCH_fresh.json``
  runs the regression gates (rpc p50 budget, pipelined throughput
  floor, scaleout/cache/wire baseline sanity) with the exact thresholds
  the inline steps enforced, plus the same-run small-struct codec ratio
  of the fresh report;
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

#: rpc p50 may grow at most 10% over the committed baseline
RPC_P50_BUDGET_RATIO = 1.10
#: pipelined depth-8 throughput may shrink at most 20% (floor = base/1.25)
PIPELINED_FLOOR_DIVISOR = 1.25
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
#: streaming a large payload may grow RSS by at most 25% of the payload
STREAM_RSS_MAX_RATIO = 0.25


class GateFailure(Exception):
    """A CI gate judged the numbers and said no."""


def require_section(doc: Dict[str, Any], name: str,
                    path: str = "BENCH_headline.json") -> Dict[str, Any]:
    """The one missing-section helper all gates share.

    Raises :class:`GateFailure` pointing at the exact regenerate
    command, instead of each gate inventing its own KeyError.
    """
    if name not in doc:
        raise GateFailure(
            f"{path} lacks the {name!r} section: regenerate with "
            f"`python -m repro.bench.regress --sections {name}`")
    return doc[name]


def gate_rpc_p50(baseline: Dict[str, Any], fresh: Dict[str, Any]) -> None:
    """Fail if fresh rpc p50 exceeds 1.10x the committed baseline."""
    base_p50 = require_section(baseline, "rpc")["p50_call_latency_s"]
    new_p50 = require_section(fresh, "rpc",
                              "BENCH_fresh.json")["p50_call_latency_s"]
    budget = RPC_P50_BUDGET_RATIO * base_p50
    print(f"rpc p50: baseline {base_p50 * 1e6:.1f}us, "
          f"fresh {new_p50 * 1e6:.1f}us, budget {budget * 1e6:.1f}us")
    if new_p50 > budget:
        raise GateFailure(
            f"rpc p50 regressed >10%: {new_p50} > {budget}")


def gate_pipelined_depth8(baseline: Dict[str, Any],
                          fresh: Dict[str, Any]) -> None:
    """Fail if pipelined depth-8 throughput drops below 80% of baseline."""
    key = "pipelined_depth8_ops_s"
    base = require_section(baseline, "concurrency")[key]
    new = require_section(fresh, "concurrency", "BENCH_fresh.json")[key]
    floor = base / PIPELINED_FLOOR_DIVISOR
    print(f"{key}: baseline {base:.0f}, fresh {new:.0f}, "
          f"floor {floor:.0f}")
    if new < floor:
        raise GateFailure(
            f"pipelined depth-8 throughput regressed >20%: "
            f"{new:.0f} < {floor:.0f}")


def gate_scaleout_baseline(baseline: Dict[str, Any]) -> None:
    """The committed baseline must carry a plausible scaleout section."""
    scale = require_section(baseline, "scaleout")
    print(f"scaleout baseline: {scale['workers']} workers on "
          f"{scale['cores']} cores ({scale['mode']}), "
          f"efficiency {scale['scaling_efficiency']:.2f}, "
          f"depth-8 speedup "
          f"{scale['fleet_pipelined_depth8_speedup_vs_serial']:.2f}x")


def gate_cache_baseline(baseline: Dict[str, Any]) -> None:
    """The committed baseline must show both cache wins."""
    cache = require_section(baseline, "cache")
    print(f"cache baseline: hit p50 "
          f"{cache['hit_p50_call_latency_s'] * 1e3:.3f} ms vs cold "
          f"{cache['cold_p50_call_latency_s'] * 1e3:.3f} ms "
          f"({cache['hit_speedup_vs_cold']:.2f}x), 304 p50 "
          f"{cache['not_modified_p50_s'] * 1e3:.3f} ms "
          f"({cache['not_modified_speedup_vs_full']:.2f}x over full)")
    if cache["hit_p50_call_latency_s"] >= cache["cold_p50_call_latency_s"]:
        raise GateFailure("cache baseline does not show a hit-path win")
    if cache["not_modified_p50_s"] >= cache["full_response_p50_s"]:
        raise GateFailure("cache baseline does not show a 304 win")


def gate_wire_baseline(baseline: Dict[str, Any]) -> None:
    """The committed baseline must show both wire-format wins.

    * compact varint encoding shrinks the small-int-heavy shape by at
      least :data:`WIRE_COMPACT_MIN_SHRINK` — the negotiation exists to
      buy this, so a baseline without the win means the codec regressed;
    * the shrink is affordable: on that shape the vectorised int-array
      codec is at least :data:`WIRE_COMPACT_MIN_SPEEDUP_VS_SCALAR` times
      the scalar loop in both directions, and compact encode is within
      :data:`WIRE_COMPACT_ENCODE_MAX_SLOWDOWN` of native encode.  Native
      *decode* of an int array is a zero-copy ``np.frombuffer`` view —
      no per-element work at all — so no decoder that reads varints can
      be held to a multiple of it: the ROADMAP's "within 3x both
      directions" is gated on encode only, and decode against the
      scalar path;
    * the full-mode streaming pass (64 MiB through the reactor's chunked
      route) grew RSS by under :data:`STREAM_RSS_MAX_RATIO` of the
      payload — the constant-memory contract of the large-message path.
    """
    wire = require_section(baseline, "wire")
    small = wire["shapes"]["small_int_heavy"]
    stream = wire["streaming"]
    print(f"wire baseline: small-int compact shrink "
          f"{small['compact_shrink']:.2f}x "
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
        print(f"wire baseline: compact int-array {direction} "
              f"{speedup:.1f}x the scalar loop")
        if speedup < WIRE_COMPACT_MIN_SPEEDUP_VS_SCALAR:
            raise GateFailure(
                f"vectorised compact {direction} is only {speedup:.1f}x "
                f"the scalar loop "
                f"(< {WIRE_COMPACT_MIN_SPEEDUP_VS_SCALAR}x)")
    slowdown = small["native_encode_ops_s"] / small["compact_encode_ops_s"]
    print(f"wire baseline: compact encode {slowdown:.2f}x slower than "
          f"native on the small-int shape")
    if slowdown > WIRE_COMPACT_ENCODE_MAX_SLOWDOWN:
        raise GateFailure(
            f"compact encode is {slowdown:.2f}x slower than native on the "
            f"small-int shape (> {WIRE_COMPACT_ENCODE_MAX_SLOWDOWN}x)")
    if stream["rss_growth_ratio"] >= STREAM_RSS_MAX_RATIO:
        raise GateFailure(
            f"streaming RSS growth {stream['rss_growth_ratio']:.3f} of "
            f"payload breaches the {STREAM_RSS_MAX_RATIO} constant-memory "
            f"bound")


def gate_wire_fresh(fresh: Dict[str, Any]) -> None:
    """The compact codec, judged as same-run ratios.

    ``wire.shapes`` times native and compact encode and decode of each
    shape back to back, so the host's speed cancels out of
    ``native / compact`` and the gate can demand it of any fresh run:

    * ``nested_struct_d8``, the 69-byte depth-8 struct ``wire=auto``
      sends compact on every small call: each direction at no less than
      1/:data:`WIRE_COMPACT_STRUCT_MAX_SLOWDOWN` of native ops/s, so a
      compact plan that falls back to per-field calls shows here first;
    * ``small_int_heavy``, two 5000-element int arrays: decode at no less
      than 1/:data:`WIRE_COMPACT_INT_DECODE_MAX_SLOWDOWN` of native, so a
      bit-packed kernel that falls back to per-element work fails.
    """
    shapes = require_section(fresh, "wire", "BENCH_fresh.json")["shapes"]
    for name, direction, bound in (
            ("nested_struct_d8", "encode", WIRE_COMPACT_STRUCT_MAX_SLOWDOWN),
            ("nested_struct_d8", "decode", WIRE_COMPACT_STRUCT_MAX_SLOWDOWN),
            ("small_int_heavy", "decode",
             WIRE_COMPACT_INT_DECODE_MAX_SLOWDOWN)):
        shape = shapes[name]
        slowdown = (shape[f"native_{direction}_ops_s"]
                    / shape[f"compact_{direction}_ops_s"])
        print(f"wire fresh: {name} compact {direction} "
              f"{slowdown:.2f}x slower than native (max {bound}x)")
        if slowdown > bound:
            raise GateFailure(
                f"compact {direction} of {name} is {slowdown:.2f}x slower "
                f"than native (> {bound}x)")


def run_bench_gates(baseline: Dict[str, Any],
                    fresh: Dict[str, Any]) -> None:
    """All regression gates, in the order ci.yml ran them."""
    gate_rpc_p50(baseline, fresh)
    gate_pipelined_depth8(baseline, fresh)
    gate_scaleout_baseline(baseline)
    gate_cache_baseline(baseline)
    gate_wire_baseline(baseline)
    gate_wire_fresh(fresh)


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
    parser.add_argument("baseline", nargs="?",
                        help="committed BENCH_headline.json")
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
            if args.baseline or args.fresh:
                parser.error("--loadgen does not take baseline/fresh")
            gate_loadgen(_load(args.loadgen), p99_max_s=args.p99_max)
        else:
            if not (args.baseline and args.fresh):
                parser.error("need BASELINE and FRESH report paths "
                             "(or --loadgen REPORT)")
            run_bench_gates(_load(args.baseline), _load(args.fresh))
    except GateFailure as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
