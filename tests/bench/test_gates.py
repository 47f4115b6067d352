"""Unit tests for the CI gate logic (``repro.bench.gates``) — both
sides of every threshold, without a workflow run."""

import copy
import json

import pytest

from repro.bench import gates
from repro.bench.gates import GateFailure

BASELINE = {
    "rpc": {"p50_call_latency_s": 200e-6},
    "concurrency": {"pipelined_depth8_ops_s": 30000.0},
    "scaleout": {
        "workers": 2, "cores": 2, "mode": "reuseport",
        "scaling_efficiency": 0.9,
        "fleet_pipelined_depth8_speedup_vs_serial": 1.7,
    },
    "cache": {
        "hit_p50_call_latency_s": 0.5e-3,
        "cold_p50_call_latency_s": 0.7e-3,
        "hit_speedup_vs_cold": 1.4,
        "not_modified_p50_s": 0.4e-3,
        "full_response_p50_s": 0.45e-3,
        "not_modified_speedup_vs_full": 1.1,
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
        assert gates.require_section(BASELINE, "rpc") == BASELINE["rpc"]

    def test_missing_points_at_regenerate_command(self):
        with pytest.raises(GateFailure) as err:
            gates.require_section({}, "scaleout")
        assert "--sections scaleout" in str(err.value)
        assert "BENCH_headline.json" in str(err.value)


class TestRpcGate:
    def test_within_budget(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rpc"]["p50_call_latency_s"] = 200e-6 * 1.09
        gates.gate_rpc_p50(BASELINE, fresh)

    def test_over_budget(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rpc"]["p50_call_latency_s"] = 200e-6 * 1.11
        with pytest.raises(GateFailure, match="rpc p50 regressed"):
            gates.gate_rpc_p50(BASELINE, fresh)


class TestPipelinedGate:
    def test_above_floor(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["concurrency"]["pipelined_depth8_ops_s"] = 30000.0 / 1.2
        gates.gate_pipelined_depth8(BASELINE, fresh)

    def test_below_floor(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["concurrency"]["pipelined_depth8_ops_s"] = 30000.0 / 1.3
        with pytest.raises(GateFailure, match="pipelined depth-8"):
            gates.gate_pipelined_depth8(BASELINE, fresh)


class TestBaselineGates:
    def test_scaleout_ok(self):
        gates.gate_scaleout_baseline(BASELINE)

    def test_cache_ok(self):
        gates.gate_cache_baseline(BASELINE)

    def test_cache_no_hit_win(self):
        broken = copy.deepcopy(BASELINE)
        broken["cache"]["hit_p50_call_latency_s"] = 0.8e-3
        with pytest.raises(GateFailure, match="hit-path win"):
            gates.gate_cache_baseline(broken)

    def test_cache_no_304_win(self):
        broken = copy.deepcopy(BASELINE)
        broken["cache"]["not_modified_p50_s"] = 0.5e-3
        with pytest.raises(GateFailure, match="304 win"):
            gates.gate_cache_baseline(broken)

    def test_wire_ok(self):
        gates.gate_wire_baseline(BASELINE)

    def test_wire_shrink_below_floor(self):
        broken = copy.deepcopy(BASELINE)
        shape = broken["wire"]["shapes"]["small_int_heavy"]
        shape["compact_shrink"] = 1.9
        with pytest.raises(GateFailure, match="small-int shape"):
            gates.gate_wire_baseline(broken)

    @pytest.mark.parametrize("direction", ["encode", "decode"])
    def test_wire_vectorised_codec_too_close_to_scalar(self, direction):
        broken = copy.deepcopy(BASELINE)
        shape = broken["wire"]["shapes"]["small_int_heavy"]
        shape[f"compact_{direction}_speedup_vs_scalar"] = 7.9
        with pytest.raises(GateFailure, match=f"compact {direction}"):
            gates.gate_wire_baseline(broken)

    def test_wire_compact_encode_too_far_from_native(self):
        broken = copy.deepcopy(BASELINE)
        shape = broken["wire"]["shapes"]["small_int_heavy"]
        shape["compact_encode_ops_s"] = shape["native_encode_ops_s"] / 3.1
        with pytest.raises(GateFailure, match="slower than native"):
            gates.gate_wire_baseline(broken)

    def test_wire_rss_over_bound(self):
        broken = copy.deepcopy(BASELINE)
        broken["wire"]["streaming"]["rss_growth_ratio"] = 0.25
        with pytest.raises(GateFailure, match="constant-memory"):
            gates.gate_wire_baseline(broken)

    def test_wire_section_missing(self):
        broken = {k: v for k, v in BASELINE.items() if k != "wire"}
        with pytest.raises(GateFailure, match="--sections wire"):
            gates.gate_wire_baseline(broken)


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
        base = tmp_path / "base.json"
        base.write_text(json.dumps(BASELINE))
        assert gates.main([str(base), str(base)]) == 0
        assert "all gates passed" in capsys.readouterr().out

    def test_bench_mode_failure_exit_code(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(BASELINE))
        fresh_doc = copy.deepcopy(BASELINE)
        fresh_doc["rpc"]["p50_call_latency_s"] = 1.0
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(fresh_doc))
        assert gates.main([str(base), str(fresh)]) == 1
        assert "GATE FAILED" in capsys.readouterr().err

    def test_loadgen_mode(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(LOADGEN_REPORT))
        assert gates.main(["--loadgen", str(report)]) == 0

    def test_missing_file(self, tmp_path, capsys):
        assert gates.main([str(tmp_path / "nope.json"),
                           str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err
