"""End-to-end SOAP service/client tests over direct, simulated and real
socket transports, including compression and fault propagation."""

import pytest

from repro.netsim import LinkModel, VirtualClock
from repro.pbio import Format, FormatRegistry
from repro.soap import SoapClient, SoapFault, SoapService
from repro.transport import (DirectChannel, HttpChannel, SimChannel,
                             serve_endpoint)


@pytest.fixture()
def registry():
    return FormatRegistry()


@pytest.fixture()
def formats():
    return {
        "req": Format.from_dict("StatsRequest",
                                {"data": "float64[]", "label": "string"}),
        "res": Format.from_dict("StatsResponse",
                                {"mean": "float64", "count": "int32",
                                 "label": "string"}),
    }


@pytest.fixture()
def service(registry, formats):
    svc = SoapService(registry)

    def stats(params):
        data = params["data"]
        mean = sum(data) / len(data) if data else 0.0
        return {"mean": mean, "count": len(data), "label": params["label"]}

    svc.add_operation("Stats", formats["req"], formats["res"], stats)

    def fail(params):
        raise SoapFault("Server", "deliberate failure", detail="teapot")

    svc.add_operation("Fail", formats["req"], formats["res"], fail)

    def crash(params):
        raise RuntimeError("unexpected crash")

    svc.add_operation("Crash", formats["req"], formats["res"], crash)
    return svc


class TestDirect:
    def test_roundtrip(self, service, registry, formats):
        client = SoapClient(DirectChannel(service.endpoint), registry)
        out = client.call("Stats", {"data": [1.0, 2.0, 3.0], "label": "t"},
                          formats["req"], formats["res"])
        assert out == {"mean": 2.0, "count": 3, "label": "t"}

    def test_declared_fault_propagates(self, service, registry, formats):
        client = SoapClient(DirectChannel(service.endpoint), registry)
        with pytest.raises(SoapFault) as ei:
            client.call("Fail", {"data": [], "label": ""},
                        formats["req"], formats["res"])
        assert ei.value.faultcode == "Server"
        assert ei.value.detail == "teapot"

    def test_handler_crash_becomes_server_fault(self, service, registry,
                                                formats):
        client = SoapClient(DirectChannel(service.endpoint), registry)
        with pytest.raises(SoapFault) as ei:
            client.call("Crash", {"data": [], "label": ""},
                        formats["req"], formats["res"])
        assert "unexpected crash" in ei.value.faultstring

    def test_unknown_operation_client_fault(self, service, registry, formats):
        client = SoapClient(DirectChannel(service.endpoint), registry)
        with pytest.raises(SoapFault) as ei:
            client.call("Ghost", {"data": [], "label": ""},
                        formats["req"], formats["res"])
        assert ei.value.faultcode == "Client"

    def test_malformed_request_fault(self, service):
        reply = service.endpoint(b"<notsoap/>", "text/xml", {})
        assert reply.status == 500

    def test_bad_params_client_fault(self, service, registry, formats):
        client = SoapClient(DirectChannel(service.endpoint), registry)
        wrong = Format.from_dict("StatsRequest2", {"oops": "int32"})
        with pytest.raises(SoapFault) as ei:
            client.call("Stats", {"oops": 1}, wrong, formats["res"])
        assert ei.value.faultcode == "Client"


class TestCompressed:
    def test_compressed_roundtrip(self, service, registry, formats):
        client = SoapClient(DirectChannel(service.endpoint), registry,
                            compress=True)
        out = client.call("Stats", {"data": [5.0] * 100, "label": "c"},
                          formats["req"], formats["res"])
        assert out["count"] == 100

    def test_reply_compressed_iff_request_was(self, service, registry,
                                              formats):
        channel = DirectChannel(service.endpoint)
        compressed = SoapClient(channel, registry, compress=True)
        payload = compressed.build_request(
            "Stats", {"data": [1.0], "label": "x"}, formats["req"])
        from repro.compress import get_codec
        reply = service.endpoint(get_codec("zlib").compress(payload),
                                 "text/xml",
                                 {"Content-Encoding": "deflate"})
        assert reply.headers.get("Content-Encoding") == "deflate"
        plain_reply = service.endpoint(payload, "text/xml", {})
        assert "Content-Encoding" not in plain_reply.headers

    def test_compressed_fault(self, service, registry, formats):
        client = SoapClient(DirectChannel(service.endpoint), registry,
                            compress=True)
        with pytest.raises(SoapFault):
            client.call("Fail", {"data": [], "label": ""},
                        formats["req"], formats["res"])

    def test_inflation_bomb_is_a_client_fault(self, service, monkeypatch):
        from repro.compress import errors, get_codec
        from tests.compress.test_codecs import zlib_bomb
        monkeypatch.setattr(errors, "MAX_OUTPUT_BYTES", 1 << 20)
        reply = service.endpoint(zlib_bomb(8 << 20), "text/xml",
                                 {"Content-Encoding": "deflate"})
        assert reply.status == 500
        fault = get_codec("zlib").decompress(reply.body)
        assert b"Client" in fault and b"inflates past" in fault

    def test_compression_shrinks_large_messages(self, service, registry,
                                                formats):
        client = SoapClient(DirectChannel(service.endpoint), registry)
        payload = client.build_request(
            "Stats", {"data": [float(i) for i in range(1000)], "label": "z"},
            formats["req"])
        from repro.compress import get_codec
        assert len(get_codec("zlib").compress(payload)) < len(payload) / 3


class TestOverSimulatedLink:
    def test_latency_accounted(self, service, registry, formats):
        clock = VirtualClock()
        channel = SimChannel(service.endpoint, LinkModel(1e6, 0.01), clock)
        client = SoapClient(channel, registry)
        out = client.call("Stats", {"data": [1.0] * 500, "label": "sim"},
                          formats["req"], formats["res"])
        assert out["count"] == 500
        assert clock.now() > 0.02  # at least two latencies
        assert channel.log[0].request_bytes > 5000  # XML is bulky


class TestOverRealSockets:
    def test_roundtrip(self, service, registry, formats):
        with serve_endpoint(service.endpoint) as server:
            with HttpChannel(server.address) as channel:
                client = SoapClient(channel, registry)
                out = client.call("Stats",
                                  {"data": [2.0, 4.0], "label": "sock"},
                                  formats["req"], formats["res"])
                assert out["mean"] == 3.0

    def test_fault_over_sockets(self, service, registry, formats):
        with serve_endpoint(service.endpoint) as server:
            with HttpChannel(server.address) as channel:
                client = SoapClient(channel, registry)
                with pytest.raises(SoapFault):
                    client.call("Fail", {"data": [], "label": ""},
                                formats["req"], formats["res"])

    def test_wants_headers_handler(self, registry, formats):
        svc = SoapService(registry)

        def handler(params, headers):
            return {"mean": 0.0, "count": 0,
                    "label": headers.get("X-Quality", "none")}

        svc.add_operation("Stats", formats["req"], formats["res"], handler,
                          wants_headers=True)
        with serve_endpoint(svc.endpoint) as server:
            with HttpChannel(server.address) as channel:
                client = SoapClient(channel, registry)
                # HttpChannel forwards extra channel headers end to end
                payload = client.build_request(
                    "Stats", {"data": [], "label": ""}, formats["req"])
                reply = channel.call(payload, "text/xml",
                                     {"X-Quality": "rtt=0.5"})
                out = client.parse_response("Stats", reply.body,
                                            formats["res"])
                assert out["label"] == "rtt=0.5"
