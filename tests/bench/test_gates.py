"""Unit tests for the CI gate logic (``repro.bench.gates``) — both
sides of every threshold, without a workflow run."""

import copy
import json

import pytest

from repro.bench import gates
from repro.bench.gates import GateFailure

#: a passing fresh report: every figure inside its gate
FRESH = {
    "rpc": {"p50_call_latency_s": 200e-6, "sunrpc_null_p50_s": 65e-6,
            "p50_over_sunrpc_null": 3.1},
    "concurrency": {"pipelined_depth8_speedup_vs_serial": 2.8},
    "cache": {
        "calls": 60,
        "cold_handler_runs": 70,
        "hit_handler_runs": 1,
        "hit_result_hits": 69,
        "cache_stats": {"hits": 69, "misses": 1},
        "responses_304": 60,
    },
    "wire": {
        "shapes": {
            "small_int_heavy": {
                "native_bytes": 60000,
                "compact_bytes": 12000,
                "compact_shrink": 5.0,
                "native_encode_ops_s": 10000.0,
                "compact_encode_ops_s": 5000.0,
                "compact_encode_speedup_vs_scalar": 9.0,
                "compact_decode_speedup_vs_scalar": 20.0,
                "native_decode_ops_s": 240000.0,
                "compact_decode_ops_s": 16000.0,
            },
            "nested_struct_d8": {
                "native_encode_ops_s": 240000.0,
                "compact_encode_ops_s": 70000.0,
                "native_decode_ops_s": 460000.0,
                "compact_decode_ops_s": 110000.0,
            },
        },
        "streaming": {
            "payload_bytes": 64 << 20,
            "rss_growth_kb": 4700,
            "rss_growth_ratio": 0.07,
        },
    },
}

LOADGEN_REPORT = {
    "schema": 1,
    "kind": "loadgen",
    "config": {"profile": "mixed"},
    "duration_s": 10.0,
    "totals": {"requests": 100, "errors": 0, "shed": 5, "rps": 10.0,
               "by_kind": {"binary": {"requests": 100, "errors": 0,
                                      "shed": 5}}},
    "latency": {
        "overall": {"count": 100, "p50_s": 0.001, "p95_s": 0.004,
                    "p99_s": 0.009, "max_s": 0.02},
        "by_kind": {},
    },
    "per_second": [{"t": 0, "requests": 100, "errors": 0, "shed": 5,
                    "p50_s": 0.001, "p95_s": 0.004, "p99_s": 0.009}],
    "server": {"shape": "reactor"},
    "generators": [{"pid": 1, "failures": [], "requests": 100}],
}


class TestRequireSection:
    def test_present(self):
        assert gates.require_section(FRESH, "rpc") == FRESH["rpc"]

    def test_missing_points_at_regenerate_command(self):
        with pytest.raises(GateFailure) as err:
            gates.require_section({}, "cache")
        assert "--sections cache" in str(err.value)
        assert "BENCH_fresh.json" in str(err.value)


def with_value(section, key, value):
    """A copy of :data:`FRESH` with ``section[key]`` replaced."""
    fresh = copy.deepcopy(FRESH)
    fresh[section][key] = value
    return fresh


class TestRpcGate:
    """The echo p50 over the Sun RPC null call of the same run."""

    def test_within_budget(self):
        gates.gate_rpc_vs_sunrpc(with_value(
            "rpc", "p50_over_sunrpc_null", gates.RPC_MAX_OVER_SUNRPC_NULL))

    def test_over_budget(self):
        with pytest.raises(GateFailure, match="Sun RPC null call"):
            gates.gate_rpc_vs_sunrpc(with_value(
                "rpc", "p50_over_sunrpc_null",
                gates.RPC_MAX_OVER_SUNRPC_NULL + 0.01))

    def test_section_missing(self):
        with pytest.raises(GateFailure, match="--sections rpc"):
            gates.gate_rpc_vs_sunrpc({})


class TestPipelinedGate:
    """Depth-8 pipelining over serial calls, both timed in one run."""

    def test_above_floor(self):
        gates.gate_pipelined_speedup(with_value(
            "concurrency", "pipelined_depth8_speedup_vs_serial",
            gates.PIPELINED_DEPTH8_MIN_SPEEDUP))

    def test_below_floor(self):
        # a pipeline fallen back to one request in flight reads ~1x
        with pytest.raises(GateFailure, match="pipelined depth-8"):
            gates.gate_pipelined_speedup(with_value(
                "concurrency", "pipelined_depth8_speedup_vs_serial", 1.0))


class TestBaselineGates:
    """The cache counts and the wire ratios of a fresh report."""

    def test_cache_ok(self):
        gates.gate_cache_counts(FRESH)

    def test_cache_no_hit_win(self):
        # the pure handler ran twice: a result the cache should have held
        with pytest.raises(GateFailure, match="hit-path win"):
            gates.gate_cache_counts(with_value("cache", "hit_handler_runs",
                                               2))

    @pytest.mark.parametrize("key,value", [
        ("cold_handler_runs", 59), ("hit_result_hits", 58)])
    def test_cache_other_hit_counts(self, key, value):
        with pytest.raises(GateFailure, match="hit-path win"):
            gates.gate_cache_counts(with_value("cache", key, value))

    def test_cache_quality_misses_fail(self):
        broken = copy.deepcopy(FRESH)
        broken["cache"]["cache_stats"]["hits"] = 57
        with pytest.raises(GateFailure, match="hit-path win"):
            gates.gate_cache_counts(broken)

    def test_cache_no_304_win(self):
        # one conditional request got the full body back
        with pytest.raises(GateFailure, match="304 win"):
            gates.gate_cache_counts(with_value("cache", "responses_304", 59))

    def test_wire_ok(self):
        gates.gate_wire_fresh(FRESH)

    def test_wire_shrink_below_floor(self):
        broken = copy.deepcopy(FRESH)
        shape = broken["wire"]["shapes"]["small_int_heavy"]
        shape["compact_shrink"] = 1.9
        with pytest.raises(GateFailure, match="small-int shape"):
            gates.gate_wire_fresh(broken)

    @pytest.mark.parametrize("direction", ["encode", "decode"])
    def test_wire_vectorised_codec_too_close_to_scalar(self, direction):
        broken = copy.deepcopy(FRESH)
        shape = broken["wire"]["shapes"]["small_int_heavy"]
        shape[f"compact_{direction}_speedup_vs_scalar"] = 7.9
        with pytest.raises(GateFailure, match=f"compact {direction}"):
            gates.gate_wire_fresh(broken)

    def test_wire_compact_encode_too_far_from_native(self):
        broken = copy.deepcopy(FRESH)
        shape = broken["wire"]["shapes"]["small_int_heavy"]
        shape["compact_encode_ops_s"] = shape["native_encode_ops_s"] / 3.1
        with pytest.raises(GateFailure, match="slower than native"):
            gates.gate_wire_fresh(broken)

    def test_wire_rss_over_bound(self):
        broken = copy.deepcopy(FRESH)
        broken["wire"]["streaming"]["rss_growth_ratio"] = 0.25
        with pytest.raises(GateFailure, match="constant-memory"):
            gates.gate_wire_fresh(broken)

    def test_wire_section_missing(self):
        broken = {k: v for k, v in FRESH.items() if k != "wire"}
        with pytest.raises(GateFailure, match="--sections wire"):
            gates.gate_wire_fresh(broken)


def nested_d8(native_encode, compact_encode, native_decode, compact_decode):
    fresh = copy.deepcopy(FRESH)
    fresh["wire"]["shapes"]["nested_struct_d8"] = {
        "native_encode_ops_s": native_encode,
        "compact_encode_ops_s": compact_encode,
        "native_decode_ops_s": native_decode,
        "compact_decode_ops_s": compact_decode,
    }
    return fresh


class TestWireFreshGate:
    def test_ratio_within_bound(self):
        # 3.5x / 4.3x slower than native: the inlined compact plan
        gates.gate_wire_fresh(nested_d8(240e3, 240e3 / 3.5,
                                        460e3, 460e3 / 4.3))

    def test_exactly_at_the_bound(self):
        gates.gate_wire_fresh(nested_d8(240e3, 40e3, 480e3, 80e3))

    @pytest.mark.parametrize("direction", ["encode", "decode"])
    def test_just_past_the_bound(self, direction):
        fresh = nested_d8(240e3, 240e3 / 5.9, 480e3, 480e3 / 5.9)
        shape = fresh["wire"]["shapes"]["nested_struct_d8"]
        shape[f"compact_{direction}_ops_s"] = (
            shape[f"native_{direction}_ops_s"] / 6.1)
        with pytest.raises(GateFailure, match=f"compact {direction}"):
            gates.gate_wire_fresh(fresh)

    def test_committed_per_field_plan_fails(self):
        # the figures BENCH_headline.json recorded for the per-field plan
        # (6.4x encode, 10.0x decode)
        fresh = nested_d8(242459.2, 38096.2, 466375.8, 46512.1)
        with pytest.raises(GateFailure, match="6.36x slower"):
            gates.gate_wire_fresh(fresh)

    def test_judges_the_fresh_report(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(nested_d8(240e3, 20e3, 460e3, 460e3)))
        assert gates.main([str(fresh)]) == 1
        assert "compact encode of nested_struct_d8" in \
            capsys.readouterr().err

    def test_section_missing(self):
        fresh = {k: v for k, v in FRESH.items() if k != "wire"}
        with pytest.raises(GateFailure, match="BENCH_fresh.json lacks"):
            gates.gate_wire_fresh(fresh)

    @pytest.mark.parametrize("slowdown,passes", [
        (15.0, True), (gates.WIRE_COMPACT_INT_DECODE_MAX_SLOWDOWN, True),
        (gates.WIRE_COMPACT_INT_DECODE_MAX_SLOWDOWN + 0.1, False),
        (500.0, False)])
    def test_small_int_decode_ratio(self, slowdown, passes):
        fresh = copy.deepcopy(FRESH)
        shape = fresh["wire"]["shapes"]["small_int_heavy"]
        shape["compact_decode_ops_s"] = shape["native_decode_ops_s"] / slowdown
        if passes:
            gates.gate_wire_fresh(fresh)
        else:
            with pytest.raises(GateFailure,
                               match="compact decode of small_int_heavy"):
                gates.gate_wire_fresh(fresh)


class TestLoadgenGate:
    def test_clean_report_passes(self):
        gates.gate_loadgen(copy.deepcopy(LOADGEN_REPORT))

    def test_sheds_are_not_errors(self):
        report = copy.deepcopy(LOADGEN_REPORT)
        report["totals"]["shed"] = 50
        report["totals"]["by_kind"]["binary"]["shed"] = 50
        gates.gate_loadgen(report)

    def test_transport_errors_fail(self):
        report = copy.deepcopy(LOADGEN_REPORT)
        report["totals"]["errors"] = 1
        report["totals"]["by_kind"]["binary"]["errors"] = 1
        with pytest.raises(GateFailure, match="transport errors"):
            gates.gate_loadgen(report)

    def test_p99_bound(self):
        report = copy.deepcopy(LOADGEN_REPORT)
        report["latency"]["overall"]["p99_s"] = 6.0
        with pytest.raises(GateFailure, match="p99"):
            gates.gate_loadgen(report, p99_max_s=5.0)

    def test_zero_requests_fail(self):
        report = copy.deepcopy(LOADGEN_REPORT)
        report["totals"]["requests"] = 0
        report["totals"]["by_kind"]["binary"]["requests"] = 0
        report["per_second"][0]["requests"] = 0
        with pytest.raises(GateFailure, match="zero requests"):
            gates.gate_loadgen(report)

    def test_generator_failures_fail(self):
        report = copy.deepcopy(LOADGEN_REPORT)
        report["generators"][0]["failures"] = ["warmup: refused"]
        with pytest.raises(GateFailure, match="warmup"):
            gates.gate_loadgen(report)

    def test_schema_violation_fails(self):
        report = copy.deepcopy(LOADGEN_REPORT)
        del report["latency"]
        with pytest.raises(GateFailure, match="schema"):
            gates.gate_loadgen(report)


class TestMain:
    def test_bench_mode(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(FRESH))
        assert gates.main([str(fresh)]) == 0
        assert "all gates passed" in capsys.readouterr().out

    def test_bench_mode_failure_exit_code(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(with_value(
            "rpc", "p50_over_sunrpc_null", 10.0)))
        assert gates.main([str(fresh)]) == 1
        assert "GATE FAILED" in capsys.readouterr().err

    def test_baseline_argument_is_gone(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(FRESH))
        with pytest.raises(SystemExit) as excinfo:
            gates.main([str(fresh), str(fresh)])
        assert excinfo.value.code == 2

    def test_loadgen_mode(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(LOADGEN_REPORT))
        assert gates.main(["--loadgen", str(report)]) == 0

    def test_missing_file(self, tmp_path, capsys):
        assert gates.main([str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err
