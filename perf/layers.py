"""The staged replay: each public function on the blocking path of a call,
timed alone, in this process, on the workload's own values and on the
bodies captured from the traced window.

A stage a workload does not use reports 0: ``pbio.*`` on ``xml_interop``,
``soap.*`` on the binary workloads, ``media.*`` and ``core.quality_*``
everywhere but ``adaptive_imaging``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List

from repro.core import PBIO_CONTENT_TYPE
from repro.http11 import (Headers, HttpConnection, HttpConnectionPool, Request,
                          RequestParser, Response, ResponseParser)
from repro.media import apply_operation, scale_half, starfield
from repro.pbio import PbioSession
from repro.reliability import RetryPolicy
from repro.serving import AdmissionController
from repro.transport import ChannelReply, DirectChannel, PooledHttpChannel

from measure import ServerProcess, time_stage
from workloads import POOL, build_service

#: replay stages on the blocking path of one (sub-)call; their sum, plus
#: the socket-and-reactor floor and the channel's own overheads, is
#: ``budget.staged_sum_us``
PATH_STAGES = (
    "pbio.encode_request_us", "pbio.decode_request_us",
    "pbio.encode_response_us", "pbio.decode_response_us",
    "soap.build_request_us", "soap.decode_request_us",
    "soap.encode_response_us", "soap.parse_response_us",
    "http11.serialize_request_us", "http11.parse_request_us",
    "http11.serialize_response_us", "http11.parse_response_us",
    "serving.admission_us", "core.quality_hit_us", "media.edge_us",
)
OTHER_STAGES = ("core.quality_miss_us", "media.scale_half_us")


def _http_request(body: bytes, content_type: str,
                  headers: Dict[str, str]) -> Request:
    """The request the socket channels build from a channel call."""
    extra = Headers()
    for name, value in headers.items():
        extra.set(name, value)
    request = Request(method="POST", target="/", headers=extra, body=body)
    request.headers.set("Content-Type", content_type)
    request.headers.set("Host", "127.0.0.1:80")
    return request


def _http_response(reply) -> Response:
    """The response ``endpoint_http_handler`` builds from a reply."""
    response = Response(status=reply.status, body=reply.body)
    for name, value in reply.headers.items():
        response.headers.set(name, value)
    response.headers.set("Content-Type", reply.content_type)
    return response


def _parse_request(raw: bytes) -> Request:
    parser = RequestParser()
    parser.feed(raw)
    return parser.next_request()


def _parse_response(raw: bytes) -> Response:
    parser = ResponseParser()
    parser.feed(raw)
    return parser.next_response()


def http11_stages(exchanges: List[Any], budget_s: float) -> Dict[str, float]:
    requests = [_http_request(body, ctype, headers)
                for body, ctype, headers, _ in exchanges]
    responses = [_http_response(reply) for _, _, _, reply in exchanges]
    raw_requests = [r.to_bytes() for r in requests]
    raw_responses = [r.to_bytes() for r in responses]
    n = len(exchanges)
    return {
        "http11.serialize_request_us": time_stage(
            lambda i: requests[i % n].to_bytes(), budget_s, n),
        "http11.parse_request_us": time_stage(
            lambda i: _parse_request(raw_requests[i % n]), budget_s, n),
        "http11.serialize_response_us": time_stage(
            lambda i: responses[i % n].to_bytes(), budget_s, n),
        "http11.parse_response_us": time_stage(
            lambda i: _parse_response(raw_responses[i % n]), budget_s, n),
    }


def pbio_stages(workload, exchanges: List[Any], results: List[Any],
                budget_s: float) -> Dict[str, float]:
    """Encode with a session pinned to the representation the live session
    negotiated; decode the captured bodies (decoding is universal).
    ``results`` are the (format, value) pairs the server encoded."""
    registry = workload.registry
    encoder = PbioSession(registry, wire=workload.client.session.wire_rep())
    decoder = PbioSession(registry)
    n = len(exchanges)
    encoder.pack_bytes(workload.in_format, workload.request_value(0))
    for fmt, value in results:
        encoder.pack_bytes(fmt, value)        # announce every reply format
    return {
        "pbio.encode_request_us": time_stage(
            lambda i: encoder.pack_bytes(
                workload.in_format, workload.request_value(i % POOL)),
            budget_s),
        "pbio.decode_request_us": time_stage(
            lambda i: decoder.unpack_stream(exchanges[i % n][0]),
            budget_s, n),
        "pbio.encode_response_us": time_stage(
            lambda i: encoder.pack_bytes(*results[i % n]), budget_s, n),
        "pbio.decode_response_us": time_stage(
            lambda i: decoder.unpack_stream(exchanges[i % n][3].body),
            budget_s, n),
    }


def soap_stages(workload, service, exchanges: List[Any],
                budget_s: float) -> Dict[str, float]:
    """``handle_xml`` is the public function the live path runs (decode,
    invoke the echo handler, encode); decode is it minus the encode."""
    client, xml = workload.client, service.xml_service
    operation = xml.operations[workload.operation]
    n = len(exchanges)
    results = [client.parse_response(workload.operation, reply.body,
                                     workload.out_format)
               for _, _, _, reply in exchanges]
    encode = time_stage(
        lambda i: xml.encode_response(operation, results[i % n]),
        budget_s, n)
    handle = time_stage(
        lambda i: xml.handle_xml(exchanges[i % n][0]), budget_s, n)
    return {
        "soap.build_request_us": time_stage(
            lambda i: client.build_request(
                workload.operation, workload.request_value(i % POOL),
                workload.in_format), budget_s),
        "soap.decode_request_us": max(0.0, handle - encode),
        "soap.encode_response_us": encode,
        "soap.parse_response_us": time_stage(
            lambda i: client.parse_response(
                workload.operation, exchanges[i % n][3].body,
                workload.out_format), budget_s, n),
    }


def imaging_stages(workload, service, results: List[Any],
                   budget_s: float) -> Dict[str, float]:
    """The app handler's image operation and the quality manager's keyed
    path, warm (a cache hit) and cold (the resize handler runs)."""
    frame = starfield(640, 480, seed=0)
    full = [value for fmt, value in results if fmt.name == "ImageFull"]
    quality = service.quality
    quality.update_attribute("rtt", workload.DEGRADED_RTT)
    for _ in range(quality.selector.history + 1):
        quality.choose_message_type()          # settle on ImageHalf

    def keyed(i: int) -> None:
        quality.outgoing_keyed(full[i % len(full)], workload.out_format,
                               variant="pbio:compact")

    def cold(i: int) -> None:
        quality.cache.invalidate()
        keyed(i)

    return {
        "media.edge_us": time_stage(
            lambda i: apply_operation("edge", frame), budget_s),
        "media.scale_half_us": time_stage(
            lambda i: scale_half(frame), budget_s),
        "core.quality_miss_us": time_stage(cold, budget_s),
        "core.quality_hit_us": time_stage(keyed, budget_s),
    }


def admission_stage(budget_s: float) -> float:
    controller = AdmissionController()
    return time_stage(
        lambda i: controller.release(controller.acquire().ticket), budget_s)


def direct_call_us(workload_cls, seed: int, service,
                   budget_s: float) -> float:
    """The whole stack minus the transport: the workload's own client and
    calls over ``DirectChannel(service.endpoint)``, one warm cycle first."""
    workload = workload_cls(seed)
    workload.open(DirectChannel(service.endpoint))
    try:
        warm = max(2, workload.cycle)
        failed = sum(workload.check(workload.call()) for _ in range(warm))
        if failed:
            raise RuntimeError("direct call returned a wrong reply")
        samples = []
        deadline = time.perf_counter() + budget_s
        while len(samples) < warm or (
                len(samples) < 1000 and time.perf_counter() < deadline):
            for _ in range(workload.cycle):
                start = time.perf_counter_ns()
                workload.call()
                samples.append(time.perf_counter_ns() - start)
        return statistics.median(samples) / 1e3
    finally:
        workload.close()


def null_floor(budget_s: float) -> Dict[str, float]:
    """The socket-and-reactor floor and what the channel adds to it, all
    against the constant-reply server: a bare ``HttpConnection.post`` of an
    empty body, then ``PooledHttpChannel.call`` without and with a
    ``RetryPolicy``.  The three alternate call by call so drift cancels."""
    with ServerProcess("null") as server:
        pool = HttpConnectionPool()
        bare = HttpConnection(server.address)
        plain = PooledHttpChannel(server.address, pool=pool)
        policed = PooledHttpChannel(server.address, pool=pool,
                                    retry_policy=RetryPolicy())
        runs = {
            "bare": lambda: bare.post("/", b"", PBIO_CONTENT_TYPE),
            "plain": lambda: plain.call(b"", PBIO_CONTENT_TYPE, {}),
            "policed": lambda: policed.call(b"", PBIO_CONTENT_TYPE, {}),
        }
        samples: Dict[str, List[int]] = {name: [] for name in runs}
        try:
            deadline = time.perf_counter() + 3 * budget_s
            while len(samples["bare"]) < 100 or (
                    len(samples["bare"]) < 1000
                    and time.perf_counter() < deadline):
                for name, fn in runs.items():
                    start = time.perf_counter_ns()
                    fn()
                    samples[name].append(time.perf_counter_ns() - start)
        finally:
            bare.close()
            pool.close()
    bare_us, plain_us, policed_us = (
        statistics.median(samples[name]) / 1e3 for name in runs)
    # the empty exchange's own serialize + parse, so the budget can count
    # the http11 stages once
    empty = (b"", PBIO_CONTENT_TYPE, {}, ChannelReply(body=b""))
    empty_http = sum(http11_stages([empty], budget_s / 4).values())
    return {
        "http11.null_roundtrip_us": bare_us,
        "transport.channel_overhead_us": plain_us - bare_us,
        "reliability.policy_overhead_us": policed_us - plain_us,
        "socket_floor_us": max(0.0, bare_us - empty_http),
    }


def staged(workload, workload_cls, seed: int,
           budget_s: float) -> Dict[str, float]:
    """Every replay metric of one workload, after its traced window."""
    exchanges = list(workload.channel.captured)
    service = build_service(workload.service_kind)
    stages: Dict[str, float] = dict.fromkeys(PATH_STAGES + OTHER_STAGES, 0.0)
    # before imaging_stages, which moves the service's quality state
    stages["core.direct_call_us"] = direct_call_us(
        workload_cls, seed, service, budget_s)
    stages.update(http11_stages(exchanges, budget_s))
    if hasattr(workload.client, "session"):
        decoder = PbioSession(workload.registry)
        results = [(fmt, workload.server_value(value)) for fmt, value in (
            decoder.unpack_stream(reply.body) for _, _, _, reply in exchanges)]
        stages.update(pbio_stages(workload, exchanges, results, budget_s))
        if service.quality is not None:
            stages.update(imaging_stages(workload, service, results,
                                         budget_s))
    else:
        stages.update(soap_stages(workload, service, exchanges, budget_s))
    stages["serving.admission_us"] = admission_stage(budget_s)
    floor = null_floor(budget_s)
    socket_floor = floor.pop("socket_floor_us")
    stages.update(floor)
    stages["budget.staged_sum_us"] = (
        workload.batch * sum(stages[name] for name in PATH_STAGES)
        + socket_floor + floor["transport.channel_overhead_us"]
        + floor["reliability.policy_overhead_us"])
    return stages
