"""SoapBinService session table: LRU bound, idle TTL, eviction counters."""

import pytest

from repro.core import (HEADER_CLIENT_ID, HEADER_RTT, HEADER_TIMESTAMP,
                        HEADER_TIMESTAMP_ECHO, PBIO_CONTENT_TYPE,
                        SoapBinClient, SoapBinService)
from repro.http11 import HttpConnection, Headers
from repro.pbio import Format, FormatRegistry, PbioSession
from repro.transport import DirectChannel, serve_endpoint


@pytest.fixture()
def registry():
    reg = FormatRegistry()
    reg.register(Format.from_dict("EchoRequest",
                                  {"data": "float64[]", "tag": "string"}))
    reg.register(Format.from_dict("EchoResponse",
                                  {"data": "float64[]", "tag": "string",
                                   "count": "int32"}))
    return reg


def echo_handler(params):
    return {"data": params["data"], "tag": params["tag"],
            "count": len(params["data"])}


class FakeTime:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestLruBound:
    def test_a_million_clients_do_not_retain_a_million_sessions(self, registry):
        service = SoapBinService(registry, max_sessions=1024)
        for i in range(1_000_000):
            service._session_for(f"client-{i}")
        assert service.session_count == 1024
        assert service.sessions_evicted == 1_000_000 - 1024

    def test_recently_used_sessions_survive(self, registry):
        service = SoapBinService(registry, max_sessions=2)
        a = service._session_for("a")
        service._session_for("b")
        service._session_for("a")        # touch: a is now most recent
        service._session_for("c")        # evicts b, the coldest
        assert service._session_for("a") is a
        assert service.sessions_evicted == 1
        assert service.session_count == 2

    def test_max_sessions_validation(self, registry):
        with pytest.raises(ValueError):
            SoapBinService(registry, max_sessions=0)


class TestIdleTtl:
    def test_idle_sessions_expire(self, registry):
        fake = FakeTime()
        service = SoapBinService(registry, session_idle_ttl_s=10.0,
                                 prep_time_fn=fake)
        service._session_for("early")
        fake.t = 5.0
        service._session_for("mid")
        fake.t = 16.0                    # "early" idle 16s, "mid" 11s
        service._session_for("late")
        assert service.session_count == 1
        assert service.sessions_evicted == 2

    def test_activity_refreshes_the_ttl(self, registry):
        fake = FakeTime()
        service = SoapBinService(registry, session_idle_ttl_s=10.0,
                                 prep_time_fn=fake)
        keeper = service._session_for("keeper")
        fake.t = 8.0
        service._session_for("keeper")   # touched at t=8
        fake.t = 15.0                    # idle only 7s since touch
        service._session_for("other")
        assert service._session_for("keeper") is keeper
        assert service.sessions_evicted == 0

    def test_no_ttl_means_no_idle_eviction(self, registry):
        fake = FakeTime()
        service = SoapBinService(registry, prep_time_fn=fake)
        service._session_for("old")
        fake.t = 1e9
        service._session_for("new")
        assert service.session_count == 2


class TestEndToEnd:
    def test_eviction_is_invisible_to_persistent_clients(self, registry):
        """The one client that keeps calling is the most recently used:
        its session survives a churn of drive-by clients."""
        service = SoapBinService(registry, max_sessions=8)
        service.add_operation("Echo", registry.by_name("EchoRequest"),
                              registry.by_name("EchoResponse"), echo_handler)
        regular = SoapBinClient(DirectChannel(service.endpoint), registry,
                                client_id="regular")
        for wave in range(5):
            out = regular.call("Echo", {"data": [1.0], "tag": "r"},
                               registry.by_name("EchoRequest"),
                               registry.by_name("EchoResponse"))
            assert out["count"] == 1
            for i in range(6):           # drive-by churn below the cap
                drive_by = SoapBinClient(DirectChannel(service.endpoint),
                                         registry,
                                         client_id=f"w{wave}-{i}")
                drive_by.call("Echo", {"data": [], "tag": "d"},
                              registry.by_name("EchoRequest"),
                              registry.by_name("EchoResponse"))
        assert service.session_count <= 8
        assert service.sessions_evicted > 0


QUALITY = """
attribute rtt
history 1
0.0 inf - EchoResponse
"""


class TestHeaderNamesInAnyCase:
    """HTTP header names are case-insensitive: a client that sends the
    PBIO/BinQ headers in lower case keeps its own session, has its RTT
    report ingested and gets its timestamp echoed."""

    def quality_service(self, registry):
        service = SoapBinService(registry, quality_text=QUALITY)
        service.add_operation("Echo", registry.by_name("EchoRequest"),
                              registry.by_name("EchoResponse"), echo_handler)
        return service

    def test_lower_case_client_through_the_endpoint(self, registry):
        service = self.quality_service(registry)
        exchanges = []

        def lower_cased(body, content_type, headers):
            sent = {name.lower(): value for name, value in headers.items()}
            reply = service.endpoint(body, content_type, sent)
            exchanges.append((sent, reply))
            return reply

        client = SoapBinClient(DirectChannel(lower_cased), registry,
                               client_id="alice")
        for _ in range(2):               # the second call reports an RTT
            client.call("Echo", {"data": [1.0], "tag": "a"},
                        registry.by_name("EchoRequest"),
                        registry.by_name("EchoResponse"))
        assert "alice" in service._sessions
        assert "anon" not in service._sessions
        sent, reply = exchanges[-1]
        assert reply.headers[HEADER_TIMESTAMP_ECHO] == \
            sent[HEADER_TIMESTAMP.lower()]
        assert service.quality.attributes.get("rtt") == \
            float(sent[HEADER_RTT.lower()])

    def test_lower_case_client_over_http(self, registry):
        service = self.quality_service(registry)
        server = serve_endpoint(service.endpoint,
                                quality_stats=service.quality_stats)
        body = PbioSession(registry).pack_bytes(
            "EchoRequest", {"data": [2.0], "tag": "b"})
        headers = Headers([(HEADER_CLIENT_ID.lower(), "bob"),
                           (HEADER_TIMESTAMP.lower(), "123.5"),
                           (HEADER_RTT.lower(), "0.25")])
        try:
            with HttpConnection(server.address) as conn:
                reply = conn.post("/", body, PBIO_CONTENT_TYPE,
                                  headers=headers)
        finally:
            server.close()
        assert reply.status == 200
        assert reply.headers.get(HEADER_TIMESTAMP_ECHO) == "123.5"
        assert "bob" in service._sessions
        assert "anon" not in service._sessions
        assert service.quality.attributes.get("rtt") == 0.25
