"""``/metrics`` Prometheus exposition: golden-format checks, counter
monotonicity, scrape-under-load, and
fleet-aggregate consistency against the per-worker series."""

import threading

import pytest

from repro.core import SoapBinClient, SoapBinService
from repro.http11 import HttpConnection
from repro.pbio import Format, FormatRegistry
from repro.serving import (METRICS_CONTENT_TYPE, AdmissionController,
                           FleetServer, LoadQualityCoupling, Metric,
                           parse_exposition, render_metrics)
from repro.transport import (HttpChannel, endpoint_http_handler,
                             serve_endpoint)

ECHO_FMT = Format.from_dict("MetricsEcho", {"seq": "int32",
                                            "payload": "float64[]"})

# a load-coupled policy that never degrades — enough to light up the
# quality/coupling metric families without changing reply formats
QUALITY = "attribute server_load\nhistory 2\n0.0 inf - MetricsEcho"


def _echo_service():
    registry = FormatRegistry()
    registry.register(ECHO_FMT)
    service = SoapBinService(registry, quality_text=QUALITY)
    service.add_operation("Echo", ECHO_FMT, ECHO_FMT, lambda p: p)
    return service


def _client(address):
    registry = FormatRegistry()
    registry.register(ECHO_FMT)
    return SoapBinClient(HttpChannel(address), registry)


def _scrape(address):
    conn = HttpConnection(address, timeout=5.0)
    try:
        response = conn.get("/metrics")
    finally:
        conn.close()
    assert response.status == 200
    assert response.headers.get("content-type") == METRICS_CONTENT_TYPE
    return response.body.decode()


# ----------------------------------------------------------------------
# exposition format (golden)
# ----------------------------------------------------------------------

class TestExpositionFormat:
    def test_render_and_parse_roundtrip(self):
        metric = Metric("repro_test_total", "counter", "A counter.")
        metric.sample(3)
        gauge = Metric("repro_test_gauge", "gauge", 'Has "quotes" \\ too')
        gauge.sample(1.5, {"kind": 'x"y\\z', "other": "a\nb"})
        text = render_metrics([metric, gauge]).decode()
        parsed = parse_exposition(text)
        assert parsed["repro_test_total"] == 3
        key = [k for k in parsed if k.startswith("repro_test_gauge")][0]
        assert parsed[key] == 1.5

    def test_counter_names_must_end_in_total(self):
        with pytest.raises(ValueError):
            Metric("repro_bad_counter", "counter", "no _total suffix")

    def test_every_line_is_well_formed(self):
        service = _echo_service()
        server = serve_endpoint(service.endpoint)
        try:
            client = _client(server.address)
            for i in range(3):
                client.call("Echo", {"seq": i, "payload": [1.0]},
                            ECHO_FMT, ECHO_FMT)
            client.channel.close()
            text = _scrape(server.address)
        finally:
            server.close()
        helps, types, samples = 0, 0, 0
        seen_types = {}
        for line in text.splitlines():
            assert line == line.strip(), f"stray whitespace: {line!r}"
            if line.startswith("# HELP "):
                helps += 1
            elif line.startswith("# TYPE "):
                _, _, name, mtype = line.split(" ", 3)
                assert mtype in ("counter", "gauge"), line
                assert name not in seen_types, f"duplicate TYPE: {name}"
                seen_types[name] = mtype
                types += 1
            else:
                assert not line.startswith("#"), line
                name = line.split("{", 1)[0].split(" ", 1)[0]
                float(line.rsplit(" ", 1)[1])  # value must parse
                base = name
                assert base in seen_types, f"sample before TYPE: {line}"
                if seen_types[base] == "counter":
                    assert base.endswith("_total"), line
                samples += 1
        assert helps == types and samples >= types
        # every sample is parseable by our own strict parser
        parsed = parse_exposition(text)
        assert parsed["repro_requests_served_total"] == 3.0

    def test_metrics_path_exempt_from_admission(self):
        # a saturated admission controller must not block scrapes
        service = _echo_service()
        admission = AdmissionController(max_concurrency=1, queue_limit=1)
        release = threading.Event()
        service.add_operation(
            "Block", ECHO_FMT, ECHO_FMT,
            lambda p: (release.wait(5.0), p)[1])
        server = serve_endpoint(service.endpoint, admission=admission)
        try:
            client = _client(server.address)
            worker = threading.Thread(
                target=lambda: client.call(
                    "Block", {"seq": 0, "payload": []},
                    ECHO_FMT, ECHO_FMT))
            worker.start()
            try:
                parsed = {}
                for _ in range(100):  # wait for the call to occupy the slot
                    parsed = parse_exposition(_scrape(server.address))
                    if parsed.get("repro_admission_busy", 0.0) >= 1.0:
                        break
                    threading.Event().wait(0.02)
                assert parsed["repro_admission_busy"] >= 1.0
            finally:
                release.set()
                worker.join(5.0)
            client.channel.close()
        finally:
            server.close()


# ----------------------------------------------------------------------
# result-memo families (pure operations)
# ----------------------------------------------------------------------

class TestResultMemoFamilies:
    def test_pure_operation_scrape_counts_memo_hits_and_misses(self):
        service = _echo_service()
        service.add_operation("Echo", ECHO_FMT, ECHO_FMT, lambda p: p,
                              pure=True)
        server = serve_endpoint(service.endpoint,
                                quality_stats=service.quality_stats)
        try:
            client = _client(server.address)
            for seq in (1, 1, 1, 2):
                client.call("Echo", {"seq": seq, "payload": [1.0]},
                            ECHO_FMT, ECHO_FMT)
            client.channel.close()
            parsed = parse_exposition(_scrape(server.address))
        finally:
            server.close()
        assert parsed["repro_cache_result_hits_total"] == 2.0
        assert parsed["repro_cache_result_misses_total"] == 2.0
        # the two repeats were also sent from the stored encoding
        assert parsed["repro_cache_payload_hits_total"] == 2.0
        # the memos are entries of the one LRU the old families describe
        assert parsed["repro_cache_entries"] >= 2.0
        assert service.quality_stats()["cache"]["result_entries"] == 2


# ----------------------------------------------------------------------
# wire-negotiation and HTTP streaming families
# ----------------------------------------------------------------------

class TestWireAndStreamingFamilies:
    def test_quality_scrape_carries_wire_block(self):
        service = _echo_service()
        server = serve_endpoint(service.endpoint,
                                quality_stats=service.quality_stats)
        try:
            client = _client(server.address)
            for i in range(3):
                client.call("Echo", {"seq": i, "payload": [1.0]},
                            ECHO_FMT, ECHO_FMT)
            client.channel.close()
            parsed = parse_exposition(_scrape(server.address))
        finally:
            server.close()
        assert parsed['repro_wire_mode{mode="auto"}'] == 1.0
        assert parsed["repro_wire_sessions"] >= 1.0
        # the default auto client advertises compact capability, so the
        # service's reply path negotiates compact for this session
        assert parsed["repro_wire_compact_sessions"] >= 1.0
        assert parsed["repro_wire_compact_messages_sent"] >= 1.0
        # streaming counters are always present, zero without traffic
        assert parsed["repro_http_chunked_requests_total"] == 0.0
        assert parsed["repro_http_streamed_bytes_in_total"] == 0.0

    def test_stream_route_traffic_flows_into_counters(self):
        from repro.http11 import HttpServer, Response

        class Echo:
            content_type = "text/plain"

            def on_chunk(self, data):
                return data

            def finish(self):
                return None

        with HttpServer(lambda request: Response(body=b"ok"),
                        stream_routes={"/s": lambda r: Echo()}) as server:
            with HttpConnection(server.address) as conn:
                assert conn.stream("/s", [b"abcd"]).read() == b"abcd"
            parsed = parse_exposition(_scrape(server.address))
        assert parsed["repro_http_chunked_requests_total"] == 1.0
        assert parsed["repro_http_streamed_bytes_in_total"] == 4.0
        assert parsed["repro_http_streamed_bytes_out_total"] >= 4.0


# ----------------------------------------------------------------------
# counters under load
# ----------------------------------------------------------------------

class TestScrapeUnderLoad:
    def test_counters_monotonic_and_match_load(self):
        service = _echo_service()
        admission = AdmissionController(max_concurrency=4, queue_limit=16)
        coupling = LoadQualityCoupling(service.quality, admission)
        server = serve_endpoint(service.endpoint, admission=admission,
                                load_coupling=coupling,
                                quality_stats=service.quality_stats)
        try:
            client = _client(server.address)
            before = parse_exposition(_scrape(server.address))
            stop = threading.Event()
            counts = [0] * 4
            snapshots = []

            def drive(slot):
                mine = _client(server.address)
                while not stop.is_set():
                    mine.call("Echo", {"seq": slot, "payload": [1.0, 2.0]},
                              ECHO_FMT, ECHO_FMT)
                    counts[slot] += 1
                mine.channel.close()

            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            # scrape repeatedly while traffic flows
            for _ in range(5):
                snapshots.append(parse_exposition(_scrape(server.address)))
            stop.set()
            for t in threads:
                t.join(10.0)
            after = parse_exposition(_scrape(server.address))
            client.channel.close()
        finally:
            server.close()

        key = "repro_admission_admitted_total"
        series = [before[key]] + [s[key] for s in snapshots] + [after[key]]
        assert series == sorted(series), "counter went backwards"
        assert after[key] - before[key] == sum(counts)
        assert after["repro_requests_served_total"] >= sum(counts)
        assert "repro_reactor_worker_threads" in after
        assert after["repro_load_samples_total"] > 0


# ----------------------------------------------------------------------
# fleet aggregation
# ----------------------------------------------------------------------

def _fleet_factory(ctx):
    service = _echo_service()
    admission = AdmissionController(max_concurrency=4, queue_limit=16)
    coupling = LoadQualityCoupling(service.quality, admission)
    return (endpoint_http_handler(service.endpoint),
            {"admission": admission, "load_coupling": coupling,
             "quality_stats": service.quality_stats})


@pytest.mark.bench_smoke
class TestFleetMetrics:
    def test_control_port_aggregates_workers(self):
        fleet = FleetServer(_fleet_factory, workers=2)
        try:
            assert fleet.wait_ready(15.0)
            client = _client(fleet.address)
            for i in range(24):
                client.call("Echo", {"seq": i, "payload": [1.0]},
                            ECHO_FMT, ECHO_FMT)
            client.channel.close()
            # worker stats publish on a heartbeat: poll until the fleet
            # counter reflects all 24 calls (or time out and fail below)
            deadline = threading.Event()
            for _ in range(100):
                parsed = parse_exposition(_scrape(fleet.control_address))
                if parsed.get(
                        "repro_fleet_requests_served_total", 0.0) >= 24.0:
                    break
                deadline.wait(0.05)
        finally:
            fleet.close()

        assert parsed["repro_fleet_workers"] == 2.0
        assert parsed["repro_fleet_workers_live"] == 2.0
        assert parsed["repro_fleet_requests_served_total"] == 24.0
        # per-worker series must sum to the aggregate (same snapshot)
        per_worker = [v for k, v in parsed.items()
                      if k.startswith(
                          "repro_fleet_worker_requests_served_total{")]
        assert len(per_worker) == 2
        assert sum(per_worker) == 24.0
        live = [v for k, v in parsed.items()
                if k.startswith("repro_fleet_worker_live{")]
        assert sum(live) == 2.0

    def test_worker_port_still_serves_own_metrics(self):
        fleet = FleetServer(_fleet_factory, workers=2)
        try:
            assert fleet.wait_ready(15.0)
            parsed = parse_exposition(_scrape(fleet.address))
        finally:
            fleet.close()
        # the data port reaches ONE worker: per-process families, not
        # the fleet aggregate
        assert "repro_requests_served_total" in parsed
        assert "repro_fleet_requests_served_total" not in parsed
