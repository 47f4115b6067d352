"""Tests for dproc-style monitoring and runtime handler installation."""

import pytest

from repro.core import (AttributeStore, BandwidthMonitor,
                        ExchangeObservation, MarshallingCostMonitor,
                        MonitorHub, NetworkTimeMonitor, QualityHandlerError,
                        ServerTimeMonitor, SoapBinClient, SoapBinService,
                        compile_quality_handler)
from repro.netsim import LinkModel, VirtualClock
from repro.pbio import Format, FormatRegistry
from repro.transport import DirectChannel, SimChannel


def obs(elapsed=0.1, req=100, resp=1000, server=0.0, marshal=0.0,
        unmarshal=0.0):
    return ExchangeObservation(elapsed_s=elapsed, request_bytes=req,
                               response_bytes=resp, server_time_s=server,
                               marshal_s=marshal, unmarshal_s=unmarshal)


class TestObservation:
    def test_network_time_subtracts_server(self):
        assert obs(elapsed=0.5, server=0.2).network_s == pytest.approx(0.3)

    def test_network_time_clamped(self):
        assert obs(elapsed=0.1, server=0.5).network_s == 0.0

    def test_total_bytes(self):
        assert obs(req=10, resp=20).total_bytes == 30


class TestMonitors:
    def test_network_time_monitor(self):
        store = AttributeStore()
        monitor = NetworkTimeMonitor()
        monitor.observe(obs(elapsed=0.4, server=0.1), store)
        assert store.get("network_time") == pytest.approx(0.3)

    def test_server_time_monitor(self):
        store = AttributeStore()
        ServerTimeMonitor().observe(obs(server=0.25), store)
        assert store.get("server_time") == pytest.approx(0.25)

    def test_bandwidth_monitor(self):
        store = AttributeStore()
        BandwidthMonitor().observe(obs(elapsed=1.0, req=0, resp=125_000),
                                   store)
        assert store.get("bandwidth") == pytest.approx(1e6)  # 1 Mbps

    def test_bandwidth_monitor_skips_zero_time(self):
        store = AttributeStore()
        BandwidthMonitor().observe(obs(elapsed=0.0), store)
        assert not store.has("bandwidth")

    def test_marshalling_cost_monitor(self):
        store = AttributeStore()
        MarshallingCostMonitor().observe(obs(marshal=0.01, unmarshal=0.02),
                                         store)
        assert store.get("marshalling_cost") == pytest.approx(0.03)

    def test_monitors_smooth(self):
        store = AttributeStore()
        monitor = NetworkTimeMonitor(alpha=0.5)
        monitor.observe(obs(elapsed=1.0), store)
        monitor.observe(obs(elapsed=0.0), store)
        assert store.get("network_time") == pytest.approx(0.5)


class TestMonitorHub:
    def test_standard_hub_fans_out(self):
        hub = MonitorHub.standard()
        hub.observe(obs(elapsed=0.4, server=0.1, marshal=0.01))
        for attr in ("network_time", "server_time", "bandwidth",
                     "marshalling_cost"):
            assert hub.attributes.has(attr)
        assert hub.observations == 1
        assert hub.last.elapsed_s == 0.4

    def test_diagnose_network(self):
        hub = MonitorHub.standard()
        hub.observe(obs(elapsed=1.0, server=0.1))
        assert hub.diagnose() == "network"

    def test_diagnose_server(self):
        """The paper's confound: slow responses caused by the application
        preparing data, not by congestion."""
        hub = MonitorHub.standard()
        hub.observe(obs(elapsed=1.0, server=0.9))
        assert hub.diagnose() == "server"

    def test_diagnose_ok_when_quiet(self):
        assert MonitorHub.standard().diagnose() == "ok"

    def test_shared_attribute_store_feeds_policies(self):
        """A quality policy can monitor an attribute the hub publishes."""
        from repro.core import QualityManager
        registry = FormatRegistry()
        registry.register(Format.from_dict("Big", {"d": "float64[4]"}))
        registry.register(Format.from_dict("Small", {"d": "float64[1]"}))
        store = AttributeStore()
        hub = MonitorHub(store, [BandwidthMonitor()])
        qm = QualityManager.from_text(
            "attribute bandwidth\nhistory 1\n"
            "0 1e6 - Small\n1e6 1e12 - Big\n",
            registry, attributes=store)
        hub.observe(obs(elapsed=1.0, req=0, resp=10_000_000))  # fast link
        assert qm.choose_message_type() == "Big"
        for _ in range(40):  # starved link (alpha=0.875 decays slowly)
            hub.observe(obs(elapsed=1.0, req=0, resp=100))
        assert qm.choose_message_type() == "Small"

    def test_client_integration(self):
        registry = FormatRegistry()
        req = Format.from_dict("R", {"n": "int32"})
        res = Format.from_dict("S", {"data": "float64[]"})
        registry.register(req)
        registry.register(res)
        service = SoapBinService(registry)
        service.add_operation("Get", req, res,
                              lambda p: {"data": [0.0] * p["n"]})
        clock = VirtualClock()
        channel = SimChannel(service.endpoint, LinkModel(1e6, 0.01), clock)
        hub = MonitorHub.standard()
        client = SoapBinClient(channel, registry, clock=clock,
                               monitor_hub=hub)
        client.call("Get", {"n": 500}, req, res)
        assert hub.observations == 1
        assert hub.attributes.get("network_time") > 0.02
        assert hub.attributes.get("bandwidth") > 0


HANDLER_SOURCE = """\
kept = value['data'][:len(value['data']) // 2]
return {'data': kept, 'note': value['note']}
"""


class TestDynamicHandlers:
    @pytest.fixture()
    def registry(self):
        reg = FormatRegistry()
        reg.register(Format.from_dict("Full", {"data": "float64[]",
                                               "note": "string"}))
        reg.register(Format.from_dict("Half", {"data": "float64[]"}))
        return reg

    def test_compile_and_run(self, registry):
        handler = compile_quality_handler(HANDLER_SOURCE, "halve")
        out = handler({"data": [1.0, 2.0, 3.0, 4.0], "note": "x"},
                      registry.by_name("Full"), registry.by_name("Half"),
                      registry, AttributeStore())
        # handler halves, projection then drops fields not in Half
        assert out == {"data": [1.0, 2.0]}

    def test_handler_sees_attrs_snapshot(self, registry):
        handler = compile_quality_handler(
            "n = int(attrs['budget'])\n"
            "return {'data': value['data'][:n]}", "budgeted")
        attrs = AttributeStore({"budget": 1})
        out = handler({"data": [1.0, 2.0, 3.0], "note": ""},
                      registry.by_name("Full"), registry.by_name("Half"),
                      registry, attrs)
        assert out == {"data": [1.0]}

    def test_bad_source_rejected(self):
        with pytest.raises(QualityHandlerError):
            compile_quality_handler("import os\nreturn value")
        with pytest.raises(QualityHandlerError):
            compile_quality_handler("return ((((")

    def test_runtime_error_wrapped(self, registry):
        handler = compile_quality_handler("return {'data': 1 / 0}")
        with pytest.raises(QualityHandlerError):
            handler({"data": [], "note": ""}, registry.by_name("Full"),
                    registry.by_name("Half"), registry, AttributeStore())

    def test_non_dict_rejected(self, registry):
        handler = compile_quality_handler("return 7")
        with pytest.raises(QualityHandlerError):
            handler({"data": [], "note": ""}, registry.by_name("Full"),
                    registry.by_name("Half"), registry, AttributeStore())

    def test_runtime_install_on_live_service(self, registry):
        """§V future work: redefine quality management on a running
        service — new handler source + new policy, no restart."""
        service = SoapBinService(registry)
        service.add_operation(
            "Get", Format.from_dict("GetRequest", {"n": "int32"}),
            registry.by_name("Full"),
            lambda p: {"data": [1.0] * p["n"], "note": "full"})
        client = SoapBinClient(DirectChannel(service.endpoint), registry)
        req = registry.by_name("GetRequest")
        full = registry.by_name("Full")

        out = client.call("Get", {"n": 4}, req, full)
        assert len(out["data"]) == 4

        # hot-install a handler and a policy that uses it
        service.install_handler_source("halve", HANDLER_SOURCE)
        service.install_quality(
            "history 1\n0 1e-9 - Full\n1e-9 inf - Half\n"
            "handler Half halve\n")
        client.estimator.update(1.0)  # any positive RTT selects Half
        out = client.call("Get", {"n": 4}, req, full)
        assert len(out["data"]) == 2   # halved by the dynamic handler
        assert out["note"] == ""       # dropped by Half, padded back
