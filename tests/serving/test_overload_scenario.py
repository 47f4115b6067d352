"""The overload acceptance scenario, on a deterministic virtual clock.

One timeline, four phases, two servers (protected / unprotected).  Both
answer through ``_ServerCore._respond``, the admission gate every
:class:`~repro.http11.HttpServer` request passes: the protected core has
an admission controller and load coupling, the unprotected one neither.

* **calm** — a well-behaved client calls at a leisurely pace: full-fidelity
  replies, nothing shed.
* **burst** — the same client hammers with zero think time: per-worker
  utilization crosses the policy's high-water mark, and
  :class:`LoadQualityCoupling` steps replies down to the reduced format.
  The reduced tier's quality handler is *deliberately broken*; the sandbox
  quarantines it and every reply still goes out (trivial projection), never
  a fault.
* **doomed** — a client behind a congested 50 ms link sends requests with a
  10 ms budget (``X-Deadline-Ms``): every one is expired on arrival.  The
  protected server sheds them at the door for the price of a tiny 503
  (``Retry-After`` + ``X-Shed-Reason``); the
  unprotected server does the full work and ships full replies nobody will
  read, stealing timeline capacity from the well-behaved client, whose
  scheduled calls run late — at least 10x more of them than under
  protection.
* **drain** — back to the calm pace: load falls, replies step back up to
  full fidelity.
"""

import pytest

from repro.core import BinProtocolError, SoapBinClient, SoapBinService
from repro.core.quality_handlers import HandlerRegistry
from repro.core.sandbox import HandlerSandbox
from repro.http11 import Headers, Request
from repro.http11.deadline import HEADER_SHED_REASON, with_deadline_header
from repro.http11.server import _ServerCore
from repro.netsim import LinkModel, VirtualClock
from repro.pbio import Format, FormatRegistry
from repro.serving import (SHED_DEADLINE_EXPIRED, AdmissionController,
                           LoadQualityCoupling)
from repro.transport import ChannelReply, SimChannel, endpoint_http_handler

HANDLER_S = 0.2          # server work per request (virtual seconds)
CALM_THINK_S = 0.6       # think time between calm-phase calls
CALM_CALLS = 6
BURST_CALLS = 15
DOOMED_ROUNDS = 12
DOOMED_PER_ROUND = 3
ROUND_PERIOD_S = 0.6     # the good client's schedule during the doomed phase
DRAIN_CALLS = 5

QUALITY = """
attribute server_load
history 1
0.0 0.6 - EchoResponse
0.6 inf - EchoSmall
handler EchoSmall squeeze
"""


def build_registry():
    reg = FormatRegistry()
    reg.register(Format.from_dict("EchoRequest",
                                  {"data": "float64[]", "tag": "string"}))
    reg.register(Format.from_dict("EchoResponse",
                                  {"data": "float64[]", "tag": "string",
                                   "count": "int32"}))
    reg.register(Format.from_dict("EchoSmall", {"count": "int32"}))
    return reg


def served_by(core):
    """The endpoint a :class:`SimChannel` calls: each exchange becomes a
    :class:`Request` through ``core._respond`` and its :class:`Response`
    a :class:`ChannelReply`."""
    def endpoint(body, content_type, headers):
        request = Request("POST", "/", Headers(
            [("Content-Type", content_type), *headers.items()]), body)
        response = core._respond(request)
        return ChannelReply(response.body, response.content_type,
                            response.headers.fields(), response.status)
    return endpoint


class _StampedChannel:
    """A client whose calls always carry a fixed (tiny) deadline budget;
    it keeps every reply."""

    def __init__(self, inner, budget_s):
        self.inner = inner
        self.budget_s = budget_s
        self.replies = []

    def call(self, body, content_type, headers=None):
        reply = self.inner.call(body, content_type,
                                with_deadline_header(headers, self.budget_s))
        self.replies.append(reply)
        return reply

    def close(self):
        self.inner.close()


def run_timeline(protected: bool):
    clock = VirtualClock()
    registry = build_registry()
    handlers = HandlerRegistry()

    @handlers.handler("squeeze")
    def squeeze(*args):
        raise RuntimeError("deployed broken")

    sandbox = HandlerSandbox(max_strikes=3)
    service = SoapBinService(registry, quality_text=QUALITY,
                             handlers=handlers, sandbox=sandbox,
                             prep_time_fn=clock.now)

    def echo(params):
        clock.advance(HANDLER_S)                 # the work costs real time
        return {"data": params["data"], "tag": params["tag"],
                "count": len(params["data"])}

    service.add_operation("Echo", registry.by_name("EchoRequest"),
                          registry.by_name("EchoResponse"), echo)
    admission = AdmissionController(max_concurrency=1, queue_limit=4,
                                    clock=clock)
    coupling = LoadQualityCoupling(service.quality, admission)
    core = _ServerCore(endpoint_http_handler(service.endpoint),
                       admission=admission if protected else None,
                       load_coupling=coupling if protected else None,
                       assume_synced_clock=True)
    endpoint = served_by(core)

    good_link = LinkModel(8e6, 0.002)            # healthy LAN
    doomed_link = LinkModel(1e6, 0.05)           # congested WAN path
    good = SoapBinClient(SimChannel(endpoint, good_link, clock), registry,
                         clock=clock, client_id="good")
    doomed_channel = _StampedChannel(SimChannel(endpoint, doomed_link, clock),
                                     budget_s=0.01)
    doomed = SoapBinClient(doomed_channel, registry, clock=clock,
                           client_id="doomed")
    fmt_in = registry.by_name("EchoRequest")
    fmt_out = registry.by_name("EchoResponse")

    def good_call():
        out = good.call("Echo", {"data": [1.0] * 8, "tag": "T"},
                        fmt_in, fmt_out)
        assert out["count"] == 8                 # never a fault
        return out["tag"] == ""                  # True -> reduced reply

    reduced = {"calm": [], "burst": [], "doomed": [], "drain": []}
    for _ in range(CALM_CALLS):
        reduced["calm"].append(good_call())
        clock.advance(CALM_THINK_S)
    for _ in range(BURST_CALLS):
        reduced["burst"].append(good_call())

    doomed_shed = 0
    doomed_served = 0
    late_calls = 0
    doom_start = clock.now()
    for round_no in range(DOOMED_ROUNDS):
        scheduled = doom_start + round_no * ROUND_PERIOD_S
        if clock.now() < scheduled:
            clock.advance(scheduled - clock.now())
        for _ in range(DOOMED_PER_ROUND):
            try:
                doomed.call("Echo", {"data": [], "tag": "d"},
                            fmt_in, fmt_out)
                doomed_served += 1
            except BinProtocolError:
                doomed_shed += 1
        reduced["doomed"].append(good_call())
        if clock.now() > scheduled + ROUND_PERIOD_S:
            late_calls += 1
    for _ in range(DRAIN_CALLS):
        clock.advance(CALM_THINK_S)
        reduced["drain"].append(good_call())

    return {
        "reduced": reduced,
        "doomed_shed": doomed_shed,
        "doomed_served": doomed_served,
        "late_calls": late_calls,
        "doomed_replies": doomed_channel.replies,
        "core": core,
        "admission": admission.snapshot(),
        "coupling": coupling,
        "sandbox": sandbox,
        "quality": service.quality,
    }


@pytest.fixture(scope="class")
def runs():
    return run_timeline(protected=True), run_timeline(protected=False)


class TestOverloadScenario:
    def test_scenario_is_deterministic(self, runs):
        again, _ = runs[0], run_timeline(protected=True)
        assert again["reduced"] == runs[0]["reduced"]
        assert again["late_calls"] == runs[0]["late_calls"]

    def test_only_expired_requests_are_shed(self, runs):
        protected, _ = runs
        shed = protected["admission"]["shed"]
        assert shed == {SHED_DEADLINE_EXPIRED:
                        DOOMED_ROUNDS * DOOMED_PER_ROUND}
        assert protected["doomed_shed"] == DOOMED_ROUNDS * DOOMED_PER_ROUND
        assert protected["doomed_served"] == 0
        # the well-behaved client was never shed: every call was admitted
        assert protected["admission"]["admitted"] == \
            protected["admission"]["completed"]
        assert protected["core"].requests_shed == \
            DOOMED_ROUNDS * DOOMED_PER_ROUND

    def test_doomed_requests_get_the_servers_503(self, runs):
        protected, _ = runs
        replies = protected["doomed_replies"]
        assert len(replies) == DOOMED_ROUNDS * DOOMED_PER_ROUND
        for reply in replies:
            assert reply.status == 503
            assert reply.headers[HEADER_SHED_REASON] == SHED_DEADLINE_EXPIRED
            assert reply.headers["Retry-After"].isdigit()

    def test_quality_steps_down_under_load_and_recovers(self, runs):
        protected, _ = runs
        reduced = protected["reduced"]
        assert not any(reduced["calm"])          # full fidelity while calm
        assert any(reduced["burst"])             # degraded under the burst
        assert all(reduced["burst"][-5:])        # ...and stayed degraded
        assert not reduced["drain"][-1]          # recovered after drain
        loads = [load for _, load in protected["coupling"].history]
        assert max(loads) > 0.6
        assert loads[-1] < 0.6

    def test_faulty_handler_is_quarantined_never_a_fault(self, runs):
        protected, _ = runs
        sandbox = protected["sandbox"]
        assert sandbox.quarantined() == {"squeeze"}
        assert sandbox.stats()["errors"] == 3    # max_strikes, then skips
        assert sandbox.stats()["quarantine_skips"] > 0
        assert protected["quality"].handler_fallbacks >= \
            len([r for r in protected["reduced"]["burst"] if r])

    def test_unprotected_server_delays_10x_more_calls(self, runs):
        protected, unprotected = runs
        # the unprotected server did all the doomed work for nothing...
        assert unprotected["doomed_served"] == \
            DOOMED_ROUNDS * DOOMED_PER_ROUND
        # ...and the well-behaved client paid for it
        ratio = unprotected["late_calls"] / max(1, protected["late_calls"])
        assert ratio >= 10.0
