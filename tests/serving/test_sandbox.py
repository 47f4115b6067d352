"""HandlerSandbox: strikes, quarantine, timeouts, and never-500 fallback."""

import pytest

from repro.core import SoapBinClient, SoapBinService
from repro.core.manager import QualityManager
from repro.core.quality_handlers import HandlerRegistry
from repro.core.sandbox import HandlerSandbox
from repro.netsim import VirtualClock
from repro.pbio import Format, FormatRegistry
from repro.transport import DirectChannel


def ok_handler(*args):
    return {"count": 7}


class TestStrikes:
    def test_error_strikes_lead_to_quarantine(self):
        sandbox = HandlerSandbox(max_strikes=3)

        def bad(*args):
            raise RuntimeError("boom")

        for _ in range(3):
            ok, result = sandbox.run("bad", bad)
            assert not ok and result is None
        assert sandbox.is_quarantined("bad")
        # quarantined: the handler is not even invoked any more
        ok, _ = sandbox.run("bad", bad)
        assert not ok
        stats = sandbox.stats()
        assert stats["errors"] == 3
        assert stats["quarantine_skips"] == 1
        assert stats["quarantined"] == ["bad"]

    def test_good_handler_passes_through(self):
        sandbox = HandlerSandbox()
        ok, result = sandbox.run("good", ok_handler)
        assert ok
        assert result == {"count": 7}
        assert sandbox.stats()["errors"] == 0

    def test_strikes_are_per_handler(self):
        sandbox = HandlerSandbox(max_strikes=2)

        def bad(*args):
            raise ValueError("no")

        sandbox.run("bad", bad)
        sandbox.run("bad", bad)
        assert sandbox.is_quarantined("bad")
        assert not sandbox.is_quarantined("good")
        ok, _ = sandbox.run("good", ok_handler)
        assert ok

    def test_pardon_restores_a_handler(self):
        sandbox = HandlerSandbox(max_strikes=1)

        def bad(*args):
            raise ValueError("no")

        sandbox.run("bad", bad)
        assert sandbox.is_quarantined("bad")
        sandbox.pardon("bad")
        assert not sandbox.is_quarantined("bad")
        assert sandbox.stats()["strikes"] == {}


class TestTimeouts:
    def test_slow_handler_result_is_discarded(self):
        clock = VirtualClock()
        sandbox = HandlerSandbox(timeout_s=0.1, max_strikes=2, clock=clock)

        def slow(*args):
            clock.advance(0.5)           # five times the budget
            return {"stale": True}

        ok, result = sandbox.run("slow", slow)
        assert not ok and result is None
        assert sandbox.stats()["timeouts"] == 1
        sandbox.run("slow", slow)
        assert sandbox.is_quarantined("slow")

    def test_fast_handler_keeps_its_result(self):
        clock = VirtualClock()
        sandbox = HandlerSandbox(timeout_s=0.1, clock=clock)

        def fast(*args):
            clock.advance(0.01)
            return {"fresh": True}

        ok, result = sandbox.run("fast", fast)
        assert ok and result == {"fresh": True}

    def test_thread_mode_requires_timeout(self):
        with pytest.raises(ValueError):
            HandlerSandbox(use_thread=True)

    def test_thread_mode_interrupts_a_stall(self):
        import threading
        release = threading.Event()
        sandbox = HandlerSandbox(timeout_s=0.05, use_thread=True,
                                 max_strikes=1)

        def stall(*args):
            release.wait(5.0)
            return {"late": True}

        try:
            ok, result = sandbox.run("stall", stall)
            assert not ok and result is None
            assert sandbox.is_quarantined("stall")
        finally:
            release.set()
            sandbox.close()


QUALITY = """
attribute rtt
history 1
0.0  0.05 - Full
0.05 inf  - Small
handler Small squeeze
"""


@pytest.fixture()
def registry():
    reg = FormatRegistry()
    reg.register(Format.from_dict(
        "Full", {"data": "float64[]", "tag": "string", "count": "int32"}))
    reg.register(Format.from_dict("Small", {"count": "int32"}))
    return reg


class TestManagerFallback:
    def test_raising_handler_falls_back_to_trivial(self, registry):
        handlers = HandlerRegistry()

        @handlers.handler("squeeze")
        def squeeze(*args):
            raise RuntimeError("deployed broken")

        sandbox = HandlerSandbox(max_strikes=2)
        manager = QualityManager.from_text(QUALITY, registry,
                                           handlers=handlers,
                                           sandbox=sandbox)
        manager.update_attribute("rtt", 1.0)   # force the degraded tier
        value = {"data": [1.0, 2.0], "tag": "t", "count": 2}
        wire_format, wire_value = manager.outgoing(
            value, registry.by_name("Full"))
        # the reduced format still goes out -- via the trivial projection
        assert wire_format.name == "Small"
        assert wire_value == {"count": 2}
        assert manager.handler_fallbacks == 1
        assert manager.stats()["sandbox"]["errors"] == 1

    def test_quarantined_handler_never_runs_again(self, registry):
        calls = []
        handlers = HandlerRegistry()

        @handlers.handler("squeeze")
        def squeeze(*args):
            calls.append(1)
            raise RuntimeError("boom")

        sandbox = HandlerSandbox(max_strikes=2)
        manager = QualityManager.from_text(QUALITY, registry,
                                           handlers=handlers,
                                           sandbox=sandbox)
        manager.update_attribute("rtt", 1.0)
        value = {"data": [], "tag": "", "count": 0}
        for _ in range(5):
            wire_format, _ = manager.outgoing(value, registry.by_name("Full"))
            assert wire_format.name == "Small"
        assert len(calls) == 2            # quarantine stopped invocations
        assert manager.handler_fallbacks == 5

    def test_without_sandbox_handler_errors_propagate(self, registry):
        handlers = HandlerRegistry()

        @handlers.handler("squeeze")
        def squeeze(*args):
            raise RuntimeError("boom")

        manager = QualityManager.from_text(QUALITY, registry,
                                           handlers=handlers)
        manager.update_attribute("rtt", 1.0)
        with pytest.raises(RuntimeError):
            manager.outgoing({"data": [], "tag": "", "count": 0},
                             registry.by_name("Full"))


def echo_handler(params):
    return {"data": params["data"], "tag": params["tag"],
            "count": len(params["data"])}


class TestServiceNeverFails:
    def test_faulty_quality_handler_never_surfaces_as_error(self, registry):
        """End to end: a broken quality handler degrades the reply, it
        does not fail the request."""
        registry.register(Format.from_dict(
            "EchoRequest", {"data": "float64[]", "tag": "string"}))
        handlers = HandlerRegistry()

        @handlers.handler("squeeze")
        def squeeze(*args):
            raise RuntimeError("deployed broken")

        # monitored on server_load so the client's RTT reports cannot
        # flip the policy back to the full tier mid-test
        quality = """
attribute server_load
history 1
0.0 0.5 - Full
0.5 inf - Small
handler Small squeeze
"""
        service = SoapBinService(registry, quality_text=quality,
                                 handlers=handlers,
                                 sandbox=HandlerSandbox(max_strikes=2))
        service.add_operation("Echo", registry.by_name("EchoRequest"),
                              registry.by_name("Full"), echo_handler)
        service.quality.update_attribute("server_load", 1.0)  # degraded
        client = SoapBinClient(DirectChannel(service.endpoint), registry)
        for _ in range(6):
            out = client.call("Echo", {"data": [5.0, 6.0], "tag": "x"},
                              registry.by_name("EchoRequest"),
                              registry.by_name("Full"))
            # reduced reply, padded back up by the client -- never a fault
            assert out["count"] == 2
            assert out["tag"] == ""
        assert service.sandbox.is_quarantined("squeeze")
        assert service.quality.handler_fallbacks == 6
