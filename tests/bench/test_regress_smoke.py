"""Tier-1 smoke run of the performance-regression harness.

Runs :func:`repro.bench.regress.write_report` in smoke mode (a few
seconds) so every test run exercises the full measurement path — compiled
codecs, interpreted slow path, zero-copy wire framing, a real pooled
loopback RPC against a Sun RPC null call, and a 64 MiB record stream.
The report is written to a pytest temp dir: the committed
``BENCH_headline.json`` at the repo root is a full-mode record, and must
never be overwritten by a smoke run.
"""

import json
import os

import pytest

from repro.bench import regress


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bench") / "BENCH_smoke.json"


@pytest.fixture(scope="module")
def report(report_path):
    return regress.write_report(str(report_path), smoke=True)


@pytest.mark.bench_smoke
def test_smoke_writes_report_json(report, report_path):
    assert report_path.exists()
    on_disk = json.loads(report_path.read_text())
    assert on_disk["schema"] == regress.SCHEMA_VERSION
    env = on_disk["environment"]
    assert env["mode"] == "smoke"
    assert env["cpu_count"] >= 1
    assert env["cpu_model"] and env["python"] and env["platform"]
    assert set(on_disk) - {"schema", "environment"} == set(regress.SECTIONS)


@pytest.mark.bench_smoke
def test_smoke_compiled_speedup_on_float_array(report):
    # The PR's acceptance bar: the compiled fast path must beat the
    # interpreted field walk by >=3x on a 10k-element float64 list.
    codec = report["codec"]["float64_array_10k_list"]
    assert codec["encode_speedup_vs_interp"] >= 3.0
    assert codec["decode_speedup_vs_interp"] >= 3.0
    assert codec["payload_bytes"] == 4 + 10_000 * 8


@pytest.mark.bench_smoke
def test_smoke_rpc_used_pooled_keepalive(report):
    rpc = report["rpc"]
    assert rpc["p50_call_latency_s"] > 0.0
    assert rpc["p95_call_latency_s"] >= rpc["p50_call_latency_s"]
    assert rpc["sunrpc_null_p50_s"] > 0.0
    assert rpc["p50_over_sunrpc_null"] > 0.0
    # One socket, reused across every call: keep-alive pooling at work.
    calls = rpc["slices"] * rpc["calls_per_slice"]
    assert rpc["pooled_connections_created"] <= 2
    assert rpc["pooled_connections_reused"] >= calls - 2


@pytest.mark.bench_smoke
def test_smoke_rpc_measured_with_reliability_enabled(report):
    # The echo runs in the *production* shape: a ReliableChannel around
    # the socket channel.  On loopback the policy must never fire — zero
    # retries prove the happy path pays only the per-call bookkeeping,
    # not backoff sleeps.
    assert report["rpc"]["retries"] == 0


@pytest.mark.bench_smoke
def test_smoke_rpc_gives_back_the_cpus_it_pinned():
    cpus = os.sched_getaffinity(0)
    regress.run(smoke=True, sections=["rpc"])
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.bench_smoke
def test_smoke_cache_hit_beats_cold_and_304_beats_full(report):
    cache = report["cache"]
    # Counts, not clocks: a hit "beats" cold by the work it skips, and on
    # a shared host that is the only ordering that repeats.  The
    # hit_speedup_vs_cold ratio stays in the report as a same-run figure
    # and is asserted nowhere.
    calls = cache["calls"]
    # with the cache off, pure does nothing: every call ran the handler
    assert cache["cold_handler_runs"] >= calls
    # with it on, the pure GetData handler ran once for the whole pass ...
    assert cache["hit_handler_runs"] == 1
    assert cache["hit_result_hits"] >= calls - 1
    # ... and so did the quality handler: the rest were cache hits
    stats = cache["cache_stats"]
    assert stats["hits"] >= calls - 2
    # every conditional request was answered header-only
    assert cache["responses_304"] == calls
    assert cache["hit_speedup_vs_cold"] > 0.0


@pytest.mark.bench_smoke
class TestSectionsFlag:
    def test_unknown_section_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown section"):
            regress.run(smoke=True, sections=["codec", "bogus"])

    def test_argparse_rejects_unknown_choice(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            regress.main(["--smoke", "--sections", "bogus",
                          "--out", str(tmp_path / "r.json")])
        assert excinfo.value.code == 2
        assert "--sections" in capsys.readouterr().err

    def test_single_section_runs_alone(self):
        result = regress.run(smoke=True, sections=["wire"])
        assert "wire" in result
        # no other benchmark sections sneak in
        assert set(result) & set(regress.SECTIONS) == {"wire"}

    def test_rerun_merges_into_an_existing_report(self, tmp_path):
        path = tmp_path / "merge.json"
        regress.write_report(str(path), smoke=True, sections=["wire"])
        first = json.loads(path.read_text())
        assert set(first) & set(regress.SECTIONS) == {"wire"}
        # a later partial run must carry the earlier sections over
        regress.write_report(str(path), smoke=True, sections=["codec"])
        merged = json.loads(path.read_text())
        assert set(merged) & set(regress.SECTIONS) == {"wire", "codec"}
        assert merged["wire"] == first["wire"]
