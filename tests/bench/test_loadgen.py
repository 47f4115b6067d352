"""The load-generation harness: histogram math, report schema, and one
short end-to-end run (fork generators vs a real reactor server) shared
by the assertions via a module-scoped fixture."""

import json

import pytest

from repro.bench.loadgen import (PROFILES, LoadgenConfig,
                                 config_for_profile, write_report)
from repro.bench.loadgen_report import render_html, validate_report
from repro.bench.timers import LogHistogram


class TestLogHistogram:
    def test_percentiles_within_bucket_error(self):
        hist = LogHistogram()
        for value in (0.001, 0.002, 0.004, 0.008, 0.1):
            hist.record(value)
        # quarter-octave buckets: ~±19% worst-case per boundary
        assert hist.percentile(50) == pytest.approx(0.004, rel=0.25)
        assert hist.percentile(99) == pytest.approx(0.1, rel=0.25)
        assert hist.total == 5

    def test_merge_equals_union(self):
        a, b, union = LogHistogram(), LogHistogram(), LogHistogram()
        for i in range(100):
            value = 1e-4 * (i + 1)
            (a if i % 2 else b).record(value)
            union.record(value)
        a.merge(b)
        assert a.counts == union.counts
        assert a.percentile(95) == union.percentile(95)

    def test_clamping_and_empty(self):
        hist = LogHistogram(min_value=1e-3, max_value=1.0)
        assert hist.percentile(50) == 0.0
        hist.record(1e-9)   # below range -> bucket 0
        hist.record(100.0)  # above range -> last bucket
        assert hist.total == 2
        assert hist.percentile(1) <= 2e-3
        assert hist.percentile(99) >= 1.0

    def test_roundtrip_dict(self):
        hist = LogHistogram()
        hist.record(0.5)
        clone = LogHistogram.from_dict(hist.to_dict())
        assert clone.counts == hist.counts
        with pytest.raises(ValueError):
            LogHistogram(counts=[1, 2, 3])


class TestConfig:
    def test_profiles_validate(self):
        for profile in PROFILES:
            config_for_profile(profile).validate()

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            config_for_profile("nope")

    def test_overrides(self):
        cfg = config_for_profile("mixed", duration_s=1.0, workers=4)
        assert cfg.duration_s == 1.0 and cfg.workers == 4

    def test_bad_mix_rejected(self):
        cfg = LoadgenConfig(mix={"binary": 0.0})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_largemsg_cannot_mix_with_other_kinds(self):
        cfg = LoadgenConfig(mix={"largemsg": 0.5, "binary": 0.5})
        with pytest.raises(ValueError, match="largemsg"):
            cfg.validate()

    def test_largemsg_requires_stream_capable_server(self):
        cfg = LoadgenConfig(mix={"largemsg": 1.0}, server="fleet")
        with pytest.raises(ValueError, match="stream routes"):
            cfg.validate()


class TestValidateReport:
    def test_rejects_non_dict(self):
        assert validate_report([]) != []

    def test_reports_every_missing_key(self):
        problems = validate_report({"schema": 1, "kind": "loadgen"})
        joined = "\n".join(problems)
        for key in ("totals", "latency", "per_second", "server"):
            assert key in joined

    def test_catches_wrong_schema_version(self):
        problems = validate_report({"schema": 99, "kind": "loadgen"})
        assert any("schema" in p for p in problems)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    cfg = config_for_profile(
        "mixed", duration_s=2.0, generators=1, concurrency=2,
        server="reactor", payload_elements=32)
    out = tmp_path_factory.mktemp("loadgen") / "LOADGEN_report"
    return write_report(cfg, str(out))


@pytest.mark.bench_smoke
class TestEndToEnd:
    def test_report_is_schema_valid(self, run):
        assert validate_report(run) == []

    def test_json_written_and_loadable(self, run):
        doc = json.load(open(run["_paths"]["json"]))
        assert validate_report(doc) == []
        assert doc["totals"]["requests"] > 0

    def test_no_errors_and_all_kinds_flowed(self, run):
        totals = run["totals"]
        assert totals["errors"] == 0
        assert not any(gen["failures"] for gen in run["generators"])
        for kind in ("binary", "xml", "pipelined"):
            assert totals["by_kind"][kind]["requests"] > 0, kind

    def test_server_counter_delta_matches_request_count(self, run):
        # the /metrics scrape pair brackets the measurement window:
        # admitted-counter delta == requests the generators counted
        server = run["server"]
        assert server["induced_counter"] == "repro_admission_admitted_total"
        assert server["induced_requests"] == run["totals"]["requests"]

    def test_proc_samples_fold_into_per_second(self, run):
        assert any("rss_kb" in row for row in run["per_second"])

    def test_html_is_self_contained(self, run):
        html = open(run["_paths"]["html"]).read()
        assert html.count("<svg") >= 2
        assert "<script" not in html and "http://" not in html \
            and "https://" not in html
        assert render_html(run) == html


class TestErrorBreakdownSchema:
    """The report's retry/shed-breakdown fields: optional (old reports
    stay valid) but type- and invariant-checked when present."""

    def base_report(self):
        return {
            "schema": 1, "kind": "loadgen", "config": {},
            "duration_s": 1.0, "generators": [], "server": {},
            "per_second": [],
            "latency": {"overall": {"count": 0, "p50_s": 0.0,
                                    "p95_s": 0.0, "p99_s": 0.0,
                                    "max_s": 0.0}, "by_kind": {}},
            "totals": {"requests": 0, "errors": 0, "shed": 0,
                       "rps": 0.0, "by_kind": {}},
        }

    def test_retries_must_be_non_negative(self):
        doc = self.base_report()
        doc["totals"]["retries"] = -1
        assert any("retries" in e for e in validate_report(doc))

    def test_shed_by_reason_must_sum_to_shed(self):
        doc = self.base_report()
        doc["totals"]["shed"] = 3
        doc["totals"]["shed_by_reason"] = {"queue_full": 1}
        assert any("shed_by_reason" in e for e in validate_report(doc))
        doc["totals"]["shed_by_reason"] = {"queue_full": 2, "deadline": 1}
        assert not any("shed_by_reason" in e for e in validate_report(doc))

    def test_by_kind_breakdown_fields_checked(self):
        doc = self.base_report()
        doc["totals"]["by_kind"]["binary"] = {
            "requests": 1, "errors": 0, "shed": 0, "bytes_out": 8,
            "bytes_in": 8, "retries": "many", "shed_by_reason": []}
        errors = validate_report(doc)
        assert any("retries" in e for e in errors)
        assert any("shed_by_reason" in e for e in errors)


@pytest.fixture(scope="module")
def extract_run(tmp_path_factory):
    cfg = config_for_profile(
        "extract", duration_s=2.0, generators=1, concurrency=2,
        server="reactor", extract_records=5_000)
    out = tmp_path_factory.mktemp("loadgen") / "EXTRACT_report"
    return write_report(cfg, str(out))


@pytest.mark.bench_smoke
class TestExtractProfile:
    def test_report_is_schema_valid_and_gated(self, extract_run):
        from repro.bench.gates import gate_loadgen
        assert validate_report(extract_run) == []
        gate_loadgen(extract_run)      # raises GateFailure on a bad run

    def test_extract_kind_flowed_with_retry_accounting(self, extract_run):
        totals = extract_run["totals"]
        by_kind = totals["by_kind"]
        assert by_kind["extract"]["requests"] > 0
        assert totals["errors"] == 0
        # the breakdown fields are present even when nothing was shed
        assert "retries" in totals
        assert isinstance(totals["shed_by_reason"], dict)
        assert "retries" in by_kind["extract"]

    def test_server_saw_extract_pages(self, extract_run):
        scrape = extract_run["server"].get("metrics_after", {})
        # loadgen brackets the run with /metrics scrapes; the extract
        # families must be visible on the server under test
        assert scrape.get("repro_extract_pages_served_total", 0) > 0


@pytest.fixture(scope="module")
def largemsg_run(tmp_path_factory):
    cfg = config_for_profile(
        "largemsg", duration_s=1.5, generators=1, concurrency=2,
        largemsg_bytes=256 * 1024)
    out = tmp_path_factory.mktemp("loadgen") / "LARGEMSG_report"
    return write_report(cfg, str(out))


@pytest.mark.bench_smoke
class TestLargemsgProfile:
    def test_report_is_schema_valid(self, largemsg_run):
        assert validate_report(largemsg_run) == []

    def test_streamed_bytes_accounted(self, largemsg_run):
        totals = largemsg_run["totals"]
        entry = totals["by_kind"]["largemsg"]
        assert entry["requests"] > 0
        assert entry["errors"] == 0
        assert not any(g["failures"] for g in largemsg_run["generators"])
        # framed bytes >= payload bytes per request
        assert totals["streamed_bytes"] >= entry["requests"] * 256 * 1024

    def test_induced_counter_is_chunked_requests(self, largemsg_run):
        # stream routes bypass admission, so the bracketed delta the
        # report asserts against is the server's chunked-request counter
        server = largemsg_run["server"]
        assert server["induced_counter"] == \
            "repro_http_chunked_requests_total"
        assert server["induced_requests"] == \
            largemsg_run["totals"]["requests"]

    def test_server_streaming_counters_visible(self, largemsg_run):
        scrape = largemsg_run["server"].get("metrics_after", {})
        streamed = largemsg_run["totals"]["streamed_bytes"]
        assert scrape.get("repro_http_streamed_bytes_in_total", 0) \
            >= streamed
        assert scrape.get("repro_http_streamed_bytes_out_total", 0) > 0
