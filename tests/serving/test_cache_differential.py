"""Differential tests for the content-addressed response cache.

The cache must be *invisible* except for speed: for every evaluation
application's formats, a cached service and an uncached one must produce
byte-identical response streams across quality levels; ``redefine()`` and
``update_attribute()`` must invalidate mid-session (no stale payload);
quarantined handlers must never poison the cache; and the ``ETag`` /
``If-None-Match`` / ``304`` protocol must hold under keep-alive and
depth-8 pipelining.
"""

import json
import time

import pytest

np = pytest.importorskip("numpy")

from repro.apps import (airline_formats, bond_formats, image_formats,
                        resize_half_handler, take_batch_handler, viz_formats)
from repro.apps.airline import AirlineDataset
from repro.apps.imaging import (DEFAULT_QUALITY_FILE, ImageServer,
                                value_to_image)
from repro.core import (HEADER_CLIENT_ID, HEADER_OPERATION, HEADER_RTT,
                        PBIO_CONTENT_TYPE, SoapBinClient, SoapBinService,
                        canonical_digest)
from repro.media import apply_operation, scale_half, starfield
from repro.core.quality_handlers import HandlerRegistry
from repro.http11 import (Headers, HttpConnection, Request, Response,
                          HttpServer)
from repro.pbio import Format, FormatRegistry, PbioSession
from repro.serving import FleetServer
from repro.serving.sandbox import HandlerSandbox
from repro.soap.client import SoapClient
from repro.soap.service import XML_CONTENT_TYPE
from repro.transport import (DirectChannel, endpoint_http_handler,
                             serve_endpoint)

# the quality attribute is NOT rtt so that client-reported telemetry can
# never fight the level the test pins
LEVEL_ATTR = "resolution"


class RecordingChannel(DirectChannel):
    """DirectChannel that keeps every raw reply for byte comparison."""

    def __init__(self, endpoint):
        super().__init__(endpoint)
        self.replies = []

    def call(self, body, content_type, headers=None):
        reply = super().call(body, content_type, headers)
        self.replies.append(reply)
        return reply


# ----------------------------------------------------------------------
# per-application scenarios
# ----------------------------------------------------------------------
def _imaging_scenario():
    image = (np.arange(48 * 64 * 3, dtype=np.uint32) % 251).astype(np.uint8)

    def result(params):
        return {"filename": params["filename"], "width": 64, "height": 48,
                "pixels": image}

    return {
        "name": "imaging",
        "formats": image_formats(),
        "quality": (f"attribute {LEVEL_ATTR}\nhistory 1\n"
                    "handler ImageHalf resize_half\n"
                    "0.0 0.2 - ImageFull\n0.2 inf - ImageHalf\n"),
        "handlers": {"resize_half": resize_half_handler},
        "op": "GetImage", "request": "GetImageRequest",
        "response": "ImageFull",
        "params": {"filename": "sky00.ppm", "operation": "none"},
        "result": result,
        "levels": [0.01, 0.5],
    }


def _mdbond_scenario():
    def timestep(step):
        return {"step": step,
                "atoms": [{"id": i, "x": float(step + i), "y": 0.5 * i,
                           "z": -1.0 * i} for i in range(5)],
                "bonds": [{"a": i, "b": i + 1} for i in range(4)]}

    def result(params):
        start = int(params["start"])
        return {"count": 4, "timesteps": [timestep(start + i)
                                          for i in range(4)]}

    return {
        "name": "mdbond",
        "formats": bond_formats(),
        "quality": (f"attribute {LEVEL_ATTR}\nhistory 1\n"
                    "handler BondBatch2 take_batch\n"
                    "handler BondBatch1 take_batch\n"
                    "0.0 0.2 - BondBatch4\n0.2 0.45 - BondBatch2\n"
                    "0.45 inf - BondBatch1\n"),
        "handlers": {"take_batch": take_batch_handler},
        "op": "GetBonds", "request": "GetBondsRequest",
        "response": "BondBatch4",
        "params": {"start": 3},
        "result": result,
        "levels": [0.01, 0.3, 0.6],
    }


def _airline_scenario():
    dataset = AirlineDataset(n_flights=2, passengers_per_flight=5)
    flight = dataset.flight_numbers()[0]

    def result(params):
        return dataset.catering_for(str(params["flight"]))

    return {
        "name": "airline",
        "formats": airline_formats(),
        "quality": (f"attribute {LEVEL_ATTR}\nhistory 1\n"
                    "0.0 inf - CateringResponse\n"),
        "handlers": {},
        "op": "GetCatering", "request": "GetCateringRequest",
        "response": "CateringResponse",
        "params": {"flight": flight},
        "result": result,
        "levels": [0.01, 0.5],
    }


def _remoteviz_scenario():
    raw = {"step": 1,
           "atoms": [{"id": 0, "x": 0.0, "y": 1.0, "z": 2.0}],
           "bonds": [{"a": 0, "b": 0}]}

    def result(params):
        return {"output_format": str(params["output_format"]),
                "svg": "<svg><circle r='1'/></svg>", "raw": raw}

    return {
        "name": "remoteviz",
        "formats": viz_formats(),
        "quality": (f"attribute {LEVEL_ATTR}\nhistory 1\n"
                    "0.0 inf - GetVisualizationResponse\n"),
        "handlers": {},
        "op": "GetVisualization", "request": "GetVisualizationRequest",
        "response": "GetVisualizationResponse",
        "params": {"filter_code": "all", "output_format": "svg"},
        "result": result,
        "levels": [0.01],
    }


SCENARIOS = {
    "imaging": _imaging_scenario,
    "mdbond": _mdbond_scenario,
    "airline": _airline_scenario,
    "remoteviz": _remoteviz_scenario,
}


def build_service(scenario, response_cache, pure=False, **kwargs):
    registry = FormatRegistry()
    for fmt in scenario["formats"].values():
        registry.register(fmt)
    handlers = HandlerRegistry()
    for name, fn in scenario["handlers"].items():
        handlers.register(name, fn)
    service = SoapBinService(registry, quality_text=scenario["quality"],
                             handlers=handlers,
                             response_cache=response_cache, **kwargs)
    service.add_operation(scenario["op"],
                          scenario["formats"][scenario["request"]],
                          scenario["formats"][scenario["response"]],
                          scenario["result"], pure=pure)
    return service


def drive(service, scenario, repeats=3):
    """Run ``repeats`` identical calls at every quality level; return the
    raw reply bodies and the digests of the restored response values."""
    client_registry = FormatRegistry()
    for fmt in scenario["formats"].values():
        client_registry.register(fmt)
    channel = RecordingChannel(service.endpoint)
    client = SoapBinClient(channel, client_registry, client_id="diff-client")
    req = scenario["formats"][scenario["request"]]
    out = scenario["formats"][scenario["response"]]
    digests = []
    for level in scenario["levels"]:
        service.quality.update_attribute(LEVEL_ATTR, level)
        for _ in range(repeats):
            value = client.call(scenario["op"], scenario["params"], req, out)
            digests.append(canonical_digest(value))
    return [reply.body for reply in channel.replies], digests


@pytest.fixture(params=sorted(SCENARIOS))
def scenario(request):
    return SCENARIOS[request.param]()


class TestCachedEqualsUncached:
    def test_byte_identical_reply_stream_across_quality_levels(self,
                                                               scenario):
        cached = build_service(scenario, response_cache=True)
        uncached = build_service(scenario, response_cache=False)
        cached_bodies, cached_digests = drive(cached, scenario)
        uncached_bodies, uncached_digests = drive(uncached, scenario)
        assert cached_digests == uncached_digests
        assert cached_bodies == uncached_bodies
        assert uncached.quality_stats().get("cache") is None
        # within a level the repeat replies are identical bytes, whether
        # they came from the handler, the memoized value, or the replayed
        # pre-encoded payload (first reply of a level may carry a format
        # announcement, so compare the steady tail)
        per_level = len(cached_bodies) // len(scenario["levels"])
        for i in range(0, len(cached_bodies), per_level):
            steady = cached_bodies[i + 1:i + per_level]
            assert len(set(steady)) == 1

    def test_pure_operation_reply_stream_is_byte_identical_too(self,
                                                              scenario):
        pure = build_service(scenario, response_cache=True, pure=True)
        uncached = build_service(scenario, response_cache=False)
        assert drive(pure, scenario) == drive(uncached, scenario)
        assert pure.quality_stats()["cache"]["result_misses"] == 1

    def test_degraded_levels_hit_the_cache(self):
        scenario = _mdbond_scenario()
        service = build_service(scenario, response_cache=True)
        drive(service, scenario, repeats=3)
        cache = service.quality_stats()["cache"]
        # two degraded levels x 2 repeat calls after each miss
        assert cache["hits"] == 4
        assert cache["misses"] == 2

    def test_result_memo_is_counted_apart_from_quality_hits(self):
        scenario = _mdbond_scenario()
        service = build_service(scenario, response_cache=True, pure=True)
        drive(service, scenario, repeats=3)
        cache = service.quality_stats()["cache"]
        # the quality entries score exactly what they do without the memo
        assert (cache["hits"], cache["misses"]) == (4, 2)
        # nine calls, one set of params: the handler ran for the first
        assert (cache["result_hits"], cache["result_misses"]) == (8, 1)
        assert cache["result_entries"] == 1

    def test_fresh_client_on_a_warm_cache_still_gets_announcements(self):
        scenario = _imaging_scenario()
        service = build_service(scenario, response_cache=True)
        drive(service, scenario)             # warm every level
        # a second client must receive announcement-carrying first replies
        # (cached payload blobs are data-only and must not be replayed at
        # first contact), and decode everything correctly
        _, digests = drive(service, scenario)
        reference = drive(build_service(scenario, response_cache=False),
                          scenario)[1]
        assert digests == reference


# ----------------------------------------------------------------------
# pure=True vs plain over the perf/ imaging schedule
# ----------------------------------------------------------------------
FILES = [f"sky{i:02d}.ppm" for i in range(4)]
CYCLE, HEALTHY_CALLS = 12, 4


def _reported_rtt(call_number):
    """``perf/``'s ``adaptive_imaging`` schedule: 4 reports of a healthy
    link, then 8 of a degraded one."""
    return 0.05 if call_number % CYCLE < HEALTHY_CALLS else 0.40


class ImagingPeer:
    """One ``ImageServer`` and a raw PBIO client driving its endpoint."""

    def __init__(self, pure, cache_max_payload_bytes=None,
                 response_cache=True):
        self.server = ImageServer()
        service = self.server.service
        if cache_max_payload_bytes is not None or not response_cache:
            if cache_max_payload_bytes is not None:
                service.cache_max_payload_bytes = cache_max_payload_bytes
            service.response_cache = response_cache
            service.install_quality(DEFAULT_QUALITY_FILE)
        self.op = service.xml_service.operations["GetImage"]
        if not pure:    # the same server, registered the plain way
            self.op = service.add_operation(
                "GetImage", self.op.input_format, self.op.output_format,
                self.op.handler)
        self.runs = 0
        handler = self.op.handler

        def counted(params):
            self.runs += 1
            return handler(params)

        self.op.handler = counted
        registry = FormatRegistry()
        for fmt in image_formats().values():
            registry.register(fmt)
        self.requests = PbioSession(registry)
        self.replies = PbioSession(registry, adopt_redefines=True)
        self.sent = 0
        self.stream = []

    def call(self, filename, rtt, if_none_match=None):
        headers = {HEADER_CLIENT_ID: "schedule", HEADER_RTT: f"{rtt:.9f}"}
        if if_none_match is not None:
            headers["If-None-Match"] = if_none_match
        body = self.requests.pack_bytes(
            self.op.input_format, {"filename": filename, "operation": "edge"})
        reply = self.server.endpoint(body, PBIO_CONTENT_TYPE, headers)
        self.stream.append((reply.status, bytes(reply.body),
                            reply.headers.get("ETag")))
        return reply

    def cycle(self):
        """One period of the schedule; returns the decoded images."""
        images = []
        for _ in range(CYCLE):
            filename = FILES[self.sent % len(FILES)]
            reply = self.call(filename, _reported_rtt(self.sent))
            self.sent += 1
            assert reply.status == 200, reply.body
            _, value = self.replies.unpack_stream(reply.body)
            images.append((filename, value_to_image(value)))
        return images

    def cache_stats(self):
        return self.server.service.quality_stats()["cache"]

    def encodes(self):
        """Data messages the service encoded (its replies go compact)."""
        return self.server.service.wire_stats()["compact_messages_sent"]


def _run_schedule(peer):
    """Four cycles with every flush path between them, then a conditional
    round trip per (file, level); returns the last cycle's images."""
    peer.cycle()
    peer.server.registry.redefine(Format.from_dict(
        "ImageHalf", {"filename": "string", "width": "int16",
                      "height": "int16", "pixels": "uint8[]"}))
    peer.cycle()
    peer.server.service.quality.update_attribute("gain", 2.0)   # foreign
    peer.cycle()
    peer.server.put_image("sky01.ppm", starfield(640, 480, seed=99))
    images = peer.cycle()
    for call_number in (0, 1, 2, 3, 8, 9, 10, 11):     # full x4, half x4
        filename = FILES[call_number % len(FILES)]
        rtt = _reported_rtt(call_number)
        for _ in range(3):                              # settle the level
            etag = peer.call(filename, rtt).headers["ETag"]
        assert peer.call(filename, rtt, if_none_match=etag).status == 304
    return images


class TestPureEqualsPlainOnTheImagingSchedule:
    def test_byte_identical_streams_and_etags_across_every_flush(self):
        pure, plain = ImagingPeer(pure=True), ImagingPeer(pure=False)
        images = _run_schedule(pure)
        _run_schedule(plain)
        assert len(pure.stream) == len(plain.stream) == 4 * CYCLE + 8 * 4
        assert [etag for _, _, etag in pure.stream] \
            == [etag for _, _, etag in plain.stream]
        assert pure.stream == plain.stream
        assert all(etag for _, _, etag in pure.stream)
        # the plain server ran GetImage for every request; the pure one
        # once per file after each flush (start, redefine, foreign
        # attribute, put_image) — and its quality entries hit as often
        assert plain.runs == len(plain.stream)
        assert pure.runs == 4 * len(FILES)
        stats, plain_stats = pure.cache_stats(), plain.cache_stats()
        assert stats["result_misses"] == pure.runs
        assert stats["result_hits"] == len(pure.stream) - pure.runs
        assert (stats["hits"], stats["misses"]) \
            == (plain_stats["hits"], plain_stats["misses"])
        assert plain_stats["result_hits"] == plain_stats["result_misses"] == 0
        # put_image took effect: the last cycle serves the new frame
        new_edge = apply_operation("edge", starfield(640, 480, seed=99))
        served = [image for name, image in images if name == "sky01.ppm"]
        assert len(served) == 3
        for image in served:
            expected = new_edge if image.shape[1] == 640 \
                else scale_half(new_edge)
            assert np.array_equal(image, expected)

    def test_writing_the_library_directly_breaks_the_contract(self):
        """Why ``put_image`` exists: the memo cannot see the assignment."""
        peer = ImagingPeer(pure=True)

        def fetch():
            reply = peer.call("sky00.ppm", 0.05)
            return value_to_image(peer.replies.unpack_stream(reply.body)[1])

        before = fetch()
        peer.server.library["sky00.ppm"] = starfield(640, 480, seed=99)
        assert np.array_equal(fetch(), before)                  # stale
        peer.server.put_image("sky00.ppm", starfield(640, 480, seed=99))
        assert np.array_equal(fetch(), apply_operation(
            "edge", starfield(640, 480, seed=99)))

    def test_eviction_under_a_budget_too_small_for_four_frames(self):
        budget = 2_500_000          # four memoised frames need ~3.7 MB
        pure = ImagingPeer(pure=True, cache_max_payload_bytes=budget)
        plain = ImagingPeer(pure=False, cache_max_payload_bytes=budget)
        for _ in range(3):
            pure.cycle()
            plain.cycle()
        assert pure.stream == plain.stream
        stats = pure.cache_stats()
        assert stats["evictions"] > 0
        assert stats["bytes"] <= budget
        assert stats["result_entries"] < len(FILES)
        assert len(FILES) < pure.runs <= plain.runs == 3 * CYCLE


def _encode_schedule(peer):
    """Three healthy/degraded cycles with a ``redefine()`` and a
    ``put_image`` between them; returns the distinct (file, level, cache
    epoch) triples served, the epoch counting the two flushes."""
    triples, epoch = set(), 0

    def cycle():
        for filename, image in peer.cycle():
            triples.add((filename, image.shape[1], epoch))

    cycle()
    cycle()
    peer.server.registry.redefine(Format.from_dict(
        "ImageHalf", {"filename": "string", "width": "int16",
                      "height": "int16", "pixels": "uint8[]"}))
    epoch += 1
    cycle()
    peer.server.put_image("sky01.ppm", starfield(640, 480, seed=99))
    epoch += 1
    cycle()
    return triples


class TestEncodedBytesOnTheImagingSchedule:
    def test_one_encode_per_file_level_and_epoch(self):
        pure = ImagingPeer(pure=True)
        plain = ImagingPeer(pure=False)
        bare = ImagingPeer(pure=False, response_cache=False)
        triples = _encode_schedule(pure)
        _encode_schedule(plain)
        _encode_schedule(bare)
        calls = len(pure.stream)
        assert calls == 4 * CYCLE
        assert {level for _, level, _ in triples} == {640, 320}
        # every full-size and half-size reply after the first of its
        # (file, level, epoch) is replayed from stored bytes
        assert pure.encodes() == len(triples)
        stats = pure.cache_stats()
        assert stats["payload_hits"] == calls - len(triples)
        # bytes on the wire are the cache-less service's; validators and
        # quality-entry counts are the non-memoised cached service's
        assert [body for _, body, _ in pure.stream] \
            == [body for _, body, _ in bare.stream]
        assert pure.stream == plain.stream
        assert all(etag is None for _, _, etag in bare.stream)
        plain_stats = plain.cache_stats()
        assert (stats["hits"], stats["misses"]) \
            == (plain_stats["hits"], plain_stats["misses"])
        # without a memo only the degraded type's entries keep bytes
        assert plain_stats["payload_hits"] < stats["payload_hits"]


class TestMidSessionInvalidation:
    def test_update_attribute_invalidates_handler_environment(self):
        """A handler that reads a quality attribute must re-run after that
        attribute changes — serving the memoized value would be stale."""
        registry = FormatRegistry()
        full = Format.from_dict("ScaleFull", {"data": "float64[]"})
        small = Format.from_dict("ScaleSmall", {"data": "float64[]"})
        req = Format.from_dict("ScaleRequest", {"n": "int32"})
        for fmt in (req, full, small):
            registry.register(fmt)
        handlers = HandlerRegistry()

        @handlers.handler("scale")
        def scale(value, src, dst, reg, attrs):
            factor = attrs.get("gain", 1.0)
            return {"data": [x * factor for x in value["data"]]}

        service = SoapBinService(registry, quality_text=(
            f"attribute {LEVEL_ATTR}\nhistory 1\n"
            "handler ScaleSmall scale\n0.0 inf - ScaleSmall\n"),
            handlers=handlers)
        service.add_operation("Scale", req, full,
                              lambda p: {"data": [1.0, 2.0]})
        client = SoapBinClient(DirectChannel(service.endpoint), registry)
        service.quality.update_attribute("gain", 2.0)
        first = client.call("Scale", {"n": 1}, req, full)
        assert list(first["data"]) == [2.0, 4.0]
        service.quality.update_attribute("gain", 3.0)   # flushes the cache
        second = client.call("Scale", {"n": 1}, req, full)
        assert list(second["data"]) == [3.0, 6.0], \
            "stale cached payload served after update_attribute()"
        assert service.quality.cache.flushes >= 1

    def test_redefine_mid_session_takes_effect_immediately(self):
        scenario = _mdbond_scenario()
        service = build_service(scenario, response_cache=True)
        client_registry = FormatRegistry()
        for fmt in scenario["formats"].values():
            client_registry.register(fmt)
        client = SoapBinClient(DirectChannel(service.endpoint),
                               client_registry)
        req = scenario["formats"]["GetBondsRequest"]
        out = scenario["formats"]["BondBatch4"]
        service.quality.update_attribute(LEVEL_ATTR, 0.3)  # BondBatch2
        for _ in range(2):                                 # miss then hit
            value = client.call("GetBonds", {"start": 3}, req, out)
        assert value["count"] == 2
        # live quality redefinition: BondBatch2 now carries 3 timesteps
        service.registry.redefine(Format.from_dict(
            "BondBatch2",
            {"count": "int32", "timesteps": "struct Timestep[3]"}))
        value = client.call("GetBonds", {"start": 3}, req, out)
        assert value["count"] == 3, \
            "stale pre-redefine payload served from the cache"
        assert service.quality.cache.flushes >= 1


class TestAnnouncementTrustServerSide:
    def test_client_announcement_cannot_rebind_server_formats(self):
        """A client announcing a format whose name conflicts with a
        server-owned one gets a per-connection error: the shared registry
        keeps the server's definition and no cache is flushed, so other
        clients are untouched (REVIEW: server-side sessions must not adopt
        peer announcements via redefine)."""
        scenario = _mdbond_scenario()
        service = build_service(scenario, response_cache=True)
        service.quality.update_attribute(LEVEL_ATTR, 0.3)
        client_registry = FormatRegistry()
        for fmt in scenario["formats"].values():
            client_registry.register(fmt)
        good = SoapBinClient(DirectChannel(service.endpoint),
                             client_registry, client_id="good")
        req = scenario["formats"]["GetBondsRequest"]
        out = scenario["formats"]["BondBatch4"]
        for _ in range(2):                          # miss then hit
            assert good.call("GetBonds", {"start": 3}, req, out)["count"] == 2
        original = service.registry.by_name("GetBondsRequest").fingerprint
        hits_before = service.quality.cache.stats()["hits"]

        hostile_registry = FormatRegistry()
        hostile_req = Format.from_dict(
            "GetBondsRequest", {"start": "float64", "extra": "int8[]"})
        hostile_registry.register(hostile_req)
        hostile = PbioSession(hostile_registry)
        blob = hostile.pack_bytes(hostile_req, {"start": 1.0, "extra": []})
        reply = service.endpoint(blob, PBIO_CONTENT_TYPE,
                                 {HEADER_CLIENT_ID: "hostile",
                                  HEADER_OPERATION: "GetBonds"})
        assert reply.status == 500                  # that client alone fails
        assert (service.registry.by_name("GetBondsRequest").fingerprint
                == original)
        assert service.quality.cache.flushes == 0   # shared state untouched
        # the well-behaved client still gets warm-cache answers
        assert good.call("GetBonds", {"start": 3}, req, out)["count"] == 2
        assert service.quality.cache.stats()["hits"] == hits_before + 1


class TestQuarantineNoPoison:
    def test_quarantined_handler_output_is_never_cached(self):
        scenario = _imaging_scenario()
        scenario["handlers"] = {"resize_half": _broken_handler}
        service = build_service(scenario, response_cache=True,
                                sandbox=HandlerSandbox(max_strikes=2))
        client_registry = FormatRegistry()
        for fmt in scenario["formats"].values():
            client_registry.register(fmt)
        client = SoapBinClient(DirectChannel(service.endpoint),
                               client_registry)
        req = scenario["formats"]["GetImageRequest"]
        out = scenario["formats"]["ImageFull"]
        service.quality.update_attribute(LEVEL_ATTR, 0.5)  # ImageHalf
        for _ in range(4):
            value = client.call("GetImage", scenario["params"], req, out)
            # fallback = trivial projection of the full image
            assert int(value["width"]) == 64
        assert service.sandbox.is_quarantined("resize_half")
        assert service.quality_stats()["cache"]["entries"] == 0
        assert service.quality_stats()["handler_fallbacks"] == 4


def _broken_handler(value, src, dst, registry, attrs):
    raise RuntimeError("deliberately broken quality handler")


# ----------------------------------------------------------------------
# HTTP validators over real sockets
# ----------------------------------------------------------------------
def _packed_requests(scenario):
    """(first-contact blob, steady blob) for the scenario's request."""
    registry = FormatRegistry()
    for fmt in scenario["formats"].values():
        registry.register(fmt)
    session = PbioSession(registry)
    req = scenario["formats"][scenario["request"]]
    first = session.pack_bytes(req, scenario["params"])
    steady = session.pack_bytes(req, scenario["params"])
    return first, steady


def _pbio_headers(scenario, extra=()):
    pairs = [(HEADER_CLIENT_ID, "etag-client"),
             (HEADER_OPERATION, scenario["op"]),
             ("Content-Type", PBIO_CONTENT_TYPE)]
    pairs.extend(extra)
    return Headers(pairs)


class TestHttpValidators:
    def test_etag_roundtrip_and_304_on_keepalive(self):
        scenario = _mdbond_scenario()
        service = build_service(scenario, response_cache=True)
        service.quality.update_attribute(LEVEL_ATTR, 0.3)
        first_blob, steady_blob = _packed_requests(scenario)
        with serve_endpoint(service.endpoint,
                            quality_stats=service.quality_stats) as server:
            with HttpConnection(server.address) as conn:
                r1 = conn.post("/", first_blob, PBIO_CONTENT_TYPE,
                               headers=_pbio_headers(scenario))
                assert r1.status == 200
                etag = r1.headers.get("ETag")
                assert etag and etag.startswith('"')
                # steady full response on the same keep-alive connection
                r2 = conn.post("/", steady_blob, PBIO_CONTENT_TYPE,
                               headers=_pbio_headers(scenario))
                assert r2.status == 200 and r2.headers.get("ETag") == etag
                # conditional: header-only 304, empty body, same socket
                r3 = conn.post("/", steady_blob, PBIO_CONTENT_TYPE,
                               headers=_pbio_headers(
                                   scenario,
                                   [("If-None-Match", etag)]))
                assert r3.status == 304
                assert r3.body == b""
                assert r3.headers.get("ETag") == etag
                assert r3.headers.get("Content-Length") == "0"
                # the connection is still usable: full response again
                r4 = conn.post("/", steady_blob, PBIO_CONTENT_TYPE,
                               headers=_pbio_headers(scenario))
                assert r4.status == 200 and r4.body == r2.body
                # stale validator never 304s
                r5 = conn.post("/", steady_blob, PBIO_CONTENT_TYPE,
                               headers=_pbio_headers(
                                   scenario,
                                   [("If-None-Match", '"feedface"')]))
                assert r5.status == 200 and r5.body == r2.body
            assert server.responses_304 == 1
            health = json.loads(
                HttpConnection(server.address).get("/healthz").body)
            assert health["responses_304"] == 1
            assert health["quality"]["cache"]["hits"] >= 1

    def test_304_under_depth8_pipelining(self):
        scenario = _mdbond_scenario()
        service = build_service(scenario, response_cache=True)
        service.quality.update_attribute(LEVEL_ATTR, 0.3)
        first_blob, steady_blob = _packed_requests(scenario)
        with serve_endpoint(service.endpoint,
                            quality_stats=service.quality_stats) as server:
            with HttpConnection(server.address) as conn:
                r1 = conn.post("/", first_blob, PBIO_CONTENT_TYPE,
                               headers=_pbio_headers(scenario))
                etag = r1.headers.get("ETag")
                full_body = conn.post(
                    "/", steady_blob, PBIO_CONTENT_TYPE,
                    headers=_pbio_headers(scenario)).body
            conditional = Request(
                method="POST", target="/", body=steady_blob,
                headers=_pbio_headers(scenario,
                                      [("If-None-Match", etag)]))
            unconditional = Request(
                method="POST", target="/", body=steady_blob,
                headers=_pbio_headers(scenario))
            pipe = HttpConnection(server.address)
            try:
                batch = [conditional] * 8
                responses = pipe.request_many(batch, 8)
                assert [r.status for r in responses] == [304] * 8
                assert all(r.body == b"" for r in responses)
                # mixed batch: ordering and framing survive interleaving
                mixed = pipe.request_many(
                    [unconditional, conditional, unconditional,
                     conditional, conditional], 8)
                assert [r.status for r in mixed] == [200, 304, 200, 304, 304]
                assert mixed[0].body == full_body
                assert mixed[2].body == full_body
            finally:
                pipe.close()
            assert server.responses_304 == 11

    def test_server_core_converts_any_handler_etag(self):
        """`_respond` turns 200-with-matching-ETag into 304 for *plain*
        handlers too — the validator pass is serving-core behaviour, not a
        SoapBinService feature."""
        def handler(request):
            return Response(body=b"payload-bytes",
                            headers=Headers([("ETag", '"v1"')]))

        with HttpServer(handler) as server:
            with HttpConnection(server.address) as conn:
                plain = conn.get("/data")
                assert plain.status == 200 and plain.body == b"payload-bytes"
                conditional = conn.request(Request(
                    method="GET", target="/data",
                    headers=Headers([("If-None-Match", '"v1"')])))
                assert conditional.status == 304
                assert conditional.body == b""
                mismatch = conn.request(Request(
                    method="GET", target="/data",
                    headers=Headers([("If-None-Match", '"v0"')])))
                assert mismatch.status == 200
                wildcard = conn.request(Request(
                    method="GET", target="/data",
                    headers=Headers([("If-None-Match", "*")])))
                assert wildcard.status == 304
                # RFC 9110 scopes If-None-Match/304 semantics to GET/HEAD:
                # the core never converts other methods (the SOAP-bin
                # endpoint's conditional POST emits its 304s itself)
                post = conn.request(Request(
                    method="POST", target="/data", body=b"x",
                    headers=Headers([("If-None-Match", '"v1"')])))
                assert post.status == 200
                assert post.body == b"payload-bytes"
            assert server.responses_304 == 2


# ----------------------------------------------------------------------
# XML path: per-operation validators
# ----------------------------------------------------------------------
class TestXmlValidators:
    def _service(self):
        registry = FormatRegistry()
        req = Format.from_dict("XmlCacheRequest", {"n": "int32"})
        out = Format.from_dict("XmlCacheResponse", {"data": "float64[]"})
        for fmt in (req, out):
            registry.register(fmt)
        service = SoapBinService(registry, quality_text=(
            f"attribute {LEVEL_ATTR}\nhistory 1\n"
            "0.0 inf - XmlCacheResponse\n"))
        result = lambda p: {"data": [1.0, 2.0, 3.0]}  # noqa: E731
        service.add_operation("GetA", req, out, result)
        service.add_operation("GetB", req, out, result)
        return registry, req, service

    def test_xml_etag_roundtrip_and_304(self):
        registry, req, service = self._service()
        soap = SoapClient(DirectChannel(service.endpoint), registry)
        payload = soap.build_request("GetA", {"n": 1}, req)
        reply = service.endpoint(payload, XML_CONTENT_TYPE, {})
        assert reply.status == 200
        etag = reply.headers["ETag"]
        cached = service.endpoint(payload, XML_CONTENT_TYPE,
                                  {"If-None-Match": etag})
        assert cached.status == 304 and cached.body == b""
        assert cached.headers["ETag"] == etag
        again = service.endpoint(payload, XML_CONTENT_TYPE, {})
        assert again.status == 200 and again.body == reply.body

    def test_operations_sharing_a_format_do_not_cross_304(self):
        """GetA and GetB share output format AND value; their XML bodies
        carry different response element names, so GetA's validator must
        not 304 a GetB request."""
        registry, req, service = self._service()
        soap = SoapClient(DirectChannel(service.endpoint), registry)
        reply_a = service.endpoint(soap.build_request("GetA", {"n": 1}, req),
                                   XML_CONTENT_TYPE, {})
        etag_a = reply_a.headers["ETag"]
        reply_b = service.endpoint(soap.build_request("GetB", {"n": 1}, req),
                                   XML_CONTENT_TYPE,
                                   {"If-None-Match": etag_a})
        assert reply_b.status == 200, \
            "cross-operation 304: XML bodies differ but validator matched"
        assert reply_b.headers["ETag"] != etag_a


# ----------------------------------------------------------------------
# fleet: per-worker caches, aggregated counters
# ----------------------------------------------------------------------
def _cache_fleet_factory(ctx):
    scenario = _mdbond_scenario()
    service = build_service(scenario, response_cache=True, cache_entries=64)
    service.quality.update_attribute(LEVEL_ATTR, 0.3)
    # the (handler, extra_kwargs) contract: the service's stats callable
    # rides into the worker's ReactorHttpServer so shm_stats can publish
    # per-worker cache counters
    return (endpoint_http_handler(service.endpoint),
            {"quality_stats": service.quality_stats})


def _fleet_settled(fleet, requests):
    """The control ``/healthz`` payload once the workers have published
    ``requests`` served requests in all."""
    payload = {}
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        with HttpConnection(fleet.control_address) as conn:
            payload = json.loads(conn.get("/healthz").body)
        if payload["aggregate"]["requests_served"] == requests:
            break
        time.sleep(0.05)
    assert payload["aggregate"]["requests_served"] == requests
    return payload


class TestFleetCacheCounters:
    def test_aggregate_healthz_sums_worker_cache_counters(self):
        scenario = _mdbond_scenario()
        first_blob, _ = _packed_requests(scenario)
        with FleetServer(_cache_fleet_factory, workers=2,
                         publish_interval_s=0.02, drain_s=3.0) as fleet:
            assert fleet.wait_ready(15.0), "fleet never became ready"
            etag = None
            for _ in range(6):
                with HttpConnection(fleet.address) as conn:
                    r = conn.post("/", first_blob, PBIO_CONTENT_TYPE,
                                  headers=_pbio_headers(scenario))
                    assert r.status == 200
                    etag = r.headers.get("ETag")
            # the kernel spreads the connections over the workers: each
            # worker that served pays one cold miss, then hits
            payload = _fleet_settled(fleet, 6)
            served = [s for s in payload["fleet"]
                      if s is not None and s["requests_served"]]
            agg = payload["aggregate"]
            assert agg["cache_misses"] == len(served)
            assert agg["cache_hits"] == 6 - agg["cache_misses"]
            # deterministic registries: every worker derives the same
            # content-addressed validator, so any worker can 304 it
            assert etag and etag.startswith('"')
            for _ in range(2):
                with HttpConnection(fleet.address) as conn:
                    r = conn.post("/", first_blob, PBIO_CONTENT_TYPE,
                                  headers=_pbio_headers(
                                      scenario,
                                      [("If-None-Match", etag)]))
                    assert r.status == 304 and r.body == b""
            # a 304 is neither a hit nor a miss: the counters stand still
            after = _fleet_settled(fleet, 8)["aggregate"]
            assert after["responses_304"] == 2
            assert after["cache_misses"] == agg["cache_misses"]
            assert after["cache_hits"] == agg["cache_hits"]
