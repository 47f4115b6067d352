"""``add_operation(..., pure=True)``: the response cache reuses a handler's
result, and *only* the handler is skipped.

The ordering contract: on a memo hit the request is still restored to the
operation's input format, the reported RTT still ingested and the quality
selection still run — a service that short-circuited any of those would
keep serving the level the first request got.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core import (HEADER_CLIENT_ID, HEADER_RTT, PBIO_CONTENT_TYPE,
                        SoapBinService)
from repro.core.quality_handlers import HandlerRegistry
from repro.pbio import Format, FormatRegistry, PbioSession
from repro.soap.client import SoapClient
from repro.soap.service import XML_CONTENT_TYPE
from repro.transport import DirectChannel

QUALITY = """
attribute rtt
history 1
handler PureHalf halve
0.0  0.2 - PureFull
0.2  inf - PureHalf
"""

REQUEST = Format.from_dict("PureRequest", {"n": "int32", "pad": "int32"})
SMALL_REQUEST = Format.from_dict("PureRequestSmall", {"n": "int32"})
FULL = Format.from_dict("PureFull", {"n": "int32", "data": "float64[]"})
HALF = Format.from_dict("PureHalf", {"n": "int32", "data": "float64[]"})


def halve(value, src, dst, registry, attributes):
    return {"n": value["n"], "data": value["data"][::2]}


class Harness:
    """A service with one counted ``Get`` operation and a raw PBIO peer."""

    def __init__(self, pure=True, **service_kwargs):
        self.registry = FormatRegistry()
        for fmt in (REQUEST, SMALL_REQUEST, FULL, HALF):
            self.registry.register(fmt)
        handlers = HandlerRegistry()
        handlers.register("halve", halve)
        service_kwargs.setdefault("quality_text", QUALITY)
        self.service = SoapBinService(self.registry, handlers=handlers,
                                      **service_kwargs)
        self.runs = []
        self.op = self.service.add_operation(
            "Get", REQUEST, FULL, self.handler,
            request_message_types=("PureRequestSmall",), pure=pure)
        self.peer = PbioSession(self.registry)
        self.replies = PbioSession(self.registry)

    def handler(self, params):
        self.runs.append(dict(params))
        n = int(params["n"])
        return {"n": n, "data": np.arange(4 * n, dtype=np.float64)}

    def call(self, params, rtt, fmt=REQUEST, extra=None):
        headers = {HEADER_CLIENT_ID: "pure-test", HEADER_RTT: f"{rtt:.3f}"}
        headers.update(extra or {})
        reply = self.service.endpoint(self.peer.pack_bytes(fmt, params),
                                      PBIO_CONTENT_TYPE, headers)
        assert reply.status in (200, 304), reply.body
        if reply.status == 304:
            return reply, None, None
        fmt, value = self.replies.unpack_stream(reply.body)
        return reply, fmt.name, value

    def cache_stats(self):
        return self.service.quality_stats()["cache"]


def test_memo_hit_still_ingests_rtt_and_selects_quality():
    h = Harness()
    _, level, value = h.call({"n": 3, "pad": 0}, rtt=0.05)
    assert level == "PureFull" and len(value["data"]) == 12
    # same params, degraded link: the handler is skipped, the RTT this
    # request reports is not — it must come back half size
    _, level, value = h.call({"n": 3, "pad": 0}, rtt=0.40)
    assert level == "PureHalf" and len(value["data"]) == 6
    _, level, _ = h.call({"n": 3, "pad": 0}, rtt=0.05)
    assert level == "PureFull"
    assert len(h.runs) == 1
    assert h.service.quality.selector.switches == 2
    stats = h.cache_stats()
    assert (stats["result_hits"], stats["result_misses"]) == (2, 1)


def test_memo_is_keyed_on_the_restored_request():
    h = Harness()
    h.call({"n": 3, "pad": 0}, rtt=0.05)
    # the reduced request type restores to {"n": 3, "pad": 0}: same memo
    _, level, value = h.call({"n": 3}, rtt=0.05, fmt=SMALL_REQUEST)
    assert level == "PureFull" and len(value["data"]) == 12
    assert h.runs == [{"n": 3, "pad": 0}]
    h.call({"n": 3, "pad": 1}, rtt=0.05)          # other params: a miss
    assert len(h.runs) == 2


def test_handler_is_looked_up_at_call_time():
    """``perf/spans.py`` swaps ``op.handler`` for a wrapper after the
    service is built; a memo that captured the original would hide it."""
    h = Harness()
    wrapped = []
    original = h.op.handler

    def wrapper(params):
        wrapped.append(params["n"])
        return original(params)

    h.op.handler = wrapper
    h.call({"n": 2, "pad": 0}, rtt=0.05)
    h.call({"n": 2, "pad": 0}, rtt=0.05)
    assert wrapped == [2] and len(h.runs) == 1


def test_etags_and_304_are_those_of_a_plain_service():
    pure, plain = Harness(pure=True), Harness(pure=False)
    etags = []
    for h in (pure, plain):
        h.call({"n": 3, "pad": 0}, rtt=0.40)                 # announcements
        reply, _, _ = h.call({"n": 3, "pad": 0}, rtt=0.40)
        etag = reply.headers["ETag"]
        again, _, _ = h.call({"n": 3, "pad": 0}, rtt=0.40,
                             extra={"If-None-Match": etag})
        assert again.status == 304 and again.headers["ETag"] == etag
        etags.append(etag)
    assert etags[0] == etags[1]
    assert len(pure.runs) == 1 and len(plain.runs) == 3


def test_xml_path_shares_the_memo():
    h = Harness()
    h.call({"n": 3, "pad": 0}, rtt=0.05)
    soap = SoapClient(DirectChannel(h.service.endpoint), h.registry)
    payload = soap.build_request("Get", {"n": 3, "pad": 0}, REQUEST)
    reply = h.service.endpoint(payload, XML_CONTENT_TYPE, {})
    assert reply.status == 200
    assert len(h.runs) == 1
    assert h.cache_stats()["result_hits"] == 1
    # and the XML validator is the one a handler run would have produced
    plain = Harness(pure=False)
    expected = plain.service.endpoint(payload, XML_CONTENT_TYPE, {})
    assert reply.body == expected.body
    assert reply.headers["ETag"] == expected.headers["ETag"]


def test_raising_handler_stores_nothing():
    h = Harness()
    healthy = h.op.handler
    fail = [True]

    def flaky(params):
        if fail[0]:
            raise RuntimeError("backend down")
        return healthy(params)

    h.op.handler = flaky
    reply = h.service.endpoint(
        h.peer.pack_bytes(REQUEST, {"n": 3, "pad": 0}), PBIO_CONTENT_TYPE,
        {HEADER_CLIENT_ID: "pure-test"})
    assert reply.status == 500
    assert h.cache_stats()["result_entries"] == 0
    fail[0] = False
    _, level, value = h.call({"n": 3, "pad": 0}, rtt=0.05)
    assert level == "PureFull" and len(value["data"]) == 12
    assert h.cache_stats()["result_entries"] == 1


def test_pure_with_wants_headers_is_rejected():
    h = Harness()
    with pytest.raises(ValueError, match="headers"):
        h.service.add_operation("Bad", REQUEST, FULL,
                                lambda params, headers: {},
                                wants_headers=True, pure=True)


@pytest.mark.parametrize("kwargs", [{"response_cache": False},
                                    {"quality_text": None}])
def test_pure_is_inert_without_a_response_cache(kwargs):
    h = Harness(**kwargs)
    for _ in range(3):
        _, _, value = h.call({"n": 3, "pad": 0}, rtt=0.05)
        assert len(value["data"]) == 12
    assert len(h.runs) == 3


def test_re_registering_an_operation_plain_drops_its_purity():
    h = Harness()
    h.service.add_operation("Get", REQUEST, FULL, h.handler)
    h.call({"n": 3, "pad": 0}, rtt=0.05)
    h.call({"n": 3, "pad": 0}, rtt=0.05)
    assert len(h.runs) == 2


def test_concurrent_requests_and_flushes_never_keep_a_stale_result():
    """Worker threads share the memo.  The invariants a store-after-flush
    or a lost update would break: a source change is followed by a flush
    (as in ``put_image``), and once that flush has returned no reply is
    older than the change; every lookup is counted exactly once."""
    import sys
    import threading
    import time

    h = Harness()
    source = {"version": 0, "flushed": 0}

    def versioned(params):
        version = source["version"]
        time.sleep(0.0005)          # a flush can land mid-handler
        return {"n": version, "data": np.zeros(4)}

    h.op.handler = versioned
    cache = h.service.quality.cache
    stop = threading.Event()
    calls = [0] * 6
    errors = []

    def reader(slot):
        peer = PbioSession(h.registry)
        replies = PbioSession(h.registry)
        headers = {HEADER_CLIENT_ID: f"reader-{slot}", HEADER_RTT: "0.05"}
        try:
            while not stop.is_set():
                floor = source["flushed"]
                reply = h.service.endpoint(
                    peer.pack_bytes(REQUEST, {"n": 1, "pad": 0}),
                    PBIO_CONTENT_TYPE, headers)
                assert reply.status == 200, reply.body
                _, value = replies.unpack_stream(reply.body)
                assert value["n"] >= floor, (value["n"], floor)
                calls[slot] += 1
        except Exception as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    def writer():
        while not stop.is_set():
            source["version"] += 1
            cache.invalidate()
            source["flushed"] = source["version"]
            time.sleep(0.001)

    threads = [threading.Thread(target=reader, args=(slot,))
               for slot in range(len(calls))]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.6)
        stop.set()
        for thread in threads:
            thread.join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert sum(calls) > len(calls)
    # the source is quiet now: whatever is memoised must be current
    for _ in range(3):
        _, _, value = h.call({"n": 1, "pad": 0}, rtt=0.05)
        assert value["n"] == source["version"]
    stats = h.cache_stats()
    assert stats["result_hits"] + stats["result_misses"] == sum(calls) + 3
