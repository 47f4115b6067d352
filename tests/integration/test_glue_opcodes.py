"""A deterministic gate on the server's per-request glue.

A steady binary echo request of ``perf/``'s ``small_call`` shape (a 69 B
nested struct, compact wire, keep-alive, an ``AdmissionController``) goes
through the server's request path on one parser: ``read_from`` →
``next_request`` → ``_ServerCore._respond`` (admission,
``endpoint_http_handler``, ``SoapBinService.endpoint``) →
``wants_keep_alive`` → ``wire_buffers``.  ``sys.settrace`` counts the
Python opcodes that path runs.  *Glue* is every opcode outside the
generated ``<pbio-…>`` codecs (and outside this file): HTTP parsing and
serializing, admission, the session table, the PBIO session and the
service dispatch around the codec.  Opcode counts do not depend on the
machine or its load, unlike CPU time, but they do on the CPython minor
version, so each version CI runs has its own ceiling: the count when
the ceiling was set plus about 5 %.  Other versions skip.

Measured (glue opcodes per request; the codec's count is unchanged):

=======  ======  =====  =======  =====
CPython  before  after  ceiling  codec
=======  ======  =====  =======  =====
3.11     2,042   1,621  1,700    2,727
3.12     1,683   1,344  1,410    2,370
3.13       705     551    575    2,319
=======  ======  =====  =======  =====

3.13's ``sys.settrace`` reports no opcodes for some frames on this path
(the PBIO session's among them), so its figures are lower and partial;
they still move with what they do see.

A change that adds glue to this path raises the count; if it is worth
it, raise the ceiling in the same change and say why.
"""

import collections
import io
import random
import sys
from types import SimpleNamespace

import pytest

from repro.channel import Channel, ChannelReply
from repro.core import SoapBinClient, SoapBinService
from repro.http11 import Request, RequestParser, ResponseParser
from repro.http11.messages import wire_buffers
from repro.http11.server import _ServerCore
from repro.pbio import Format, FormatRegistry
from repro.serving import AdmissionController
from repro.transport.sockets import endpoint_http_handler

#: glue opcodes per request allowed, by CPython (major, minor)
CEILINGS = {(3, 11): 1700, (3, 12): 1410, (3, 13): 575}

REQUESTS = 10
DEPTH = 8


def _formats():
    formats = {"NestedL0": Format.from_dict(
        "NestedL0", {"id": "int32", "flag": "uint8", "amount": "float64"})}
    for level in range(1, DEPTH + 1):
        formats[f"NestedL{level}"] = Format.from_dict(
            f"NestedL{level}",
            {"id": "int32", "flag": "uint8", "seq": "int16",
             "child": f"struct NestedL{level - 1}"})
    return formats


def _registry(formats):
    registry = FormatRegistry()
    for fmt in formats.values():
        registry.register(fmt)
    return registry


def _value(seed):
    rng = random.Random(seed)

    def build(level):
        node = {"id": rng.randrange(1_000, 1_000_000),
                "flag": rng.randrange(2)}
        if level == 0:
            node["amount"] = round(rng.uniform(-1e6, 1e6), 2)
        else:
            node["seq"] = rng.randrange(10_000, 30_000)
            node["child"] = build(level - 1)
        return node
    return build(DEPTH)


class _OpcodeCounter:
    """A ``sys.settrace`` tracer counting opcodes per code filename."""

    def __init__(self):
        self.by_file = collections.Counter()

    def __call__(self, frame, event, arg):
        frame.f_trace_opcodes = True
        return self._opcode

    def _opcode(self, frame, event, arg):
        if event == "opcode":
            self.by_file[frame.f_code.co_filename] += 1
        return self._opcode


class _ServerPath(Channel):
    """A channel whose far end is the server's request path, run in
    process on one parser: the client's request as HTTP bytes in, the
    reply's wire buffers out."""

    def __init__(self, core):
        self.core = core
        self.parser = RequestParser()
        self.replies = ResponseParser()
        self.counter = None

    def call(self, body, content_type, headers=None):
        request = Request(body=body)
        for name, value in (headers or {}).items():
            request.headers.set(name, value)
        request.headers.set("Content-Type", content_type)
        source = SimpleNamespace(recv=io.BytesIO(request.to_bytes()).read)
        if self.counter is not None:
            sys.settrace(self.counter)
        try:
            out = self._turn(source)
        finally:
            sys.settrace(None)
        self.replies.feed(out)
        reply = self.replies.next_response()
        return ChannelReply(reply.body, reply.content_type,
                            reply.headers.fields(), reply.status)

    def _turn(self, source):
        self.parser.read_from(source)
        request = self.parser.next_request()
        response = self.core._respond(request)
        assert request.wants_keep_alive()
        return b"".join(wire_buffers(response))


def measure():
    """``(glue, codec)`` opcodes per steady request."""
    formats = _formats()
    service = SoapBinService(_registry(formats))
    service.add_operation("EchoNested", formats["NestedL8"],
                          formats["NestedL8"], lambda params: params)
    core = _ServerCore(endpoint_http_handler(service.endpoint),
                       admission=AdmissionController())
    path = _ServerPath(core)
    client_formats = _formats()
    client = SoapBinClient(path, _registry(client_formats))
    shape = client_formats["NestedL8"]
    for seed in range(20):      # first contact, compact negotiation
        assert client.call("EchoNested", _value(seed), shape,
                           shape) == _value(seed)
    counter = path.counter = _OpcodeCounter()
    for seed in range(REQUESTS):
        assert client.call("EchoNested", _value(seed), shape,
                           shape) == _value(seed)
    path.counter = None
    assert client.session.stats.compact_received > 0
    codec = glue = 0
    for filename, count in counter.by_file.items():
        if filename.startswith("<pbio-"):
            codec += count
        elif filename != __file__:
            glue += count
    return glue / REQUESTS, codec / REQUESTS


def test_glue_opcodes_per_request_stay_under_the_ceiling():
    ceiling = CEILINGS.get(sys.version_info[:2])
    if ceiling is None:
        pytest.skip("no glue-opcode ceiling recorded for this CPython")
    if sys.gettrace() is not None:
        pytest.skip("another tracer (coverage, a debugger) is active")
    glue, codec = measure()
    assert codec > 0
    assert glue <= ceiling, (
        f"{glue:.0f} glue opcodes per request, ceiling {ceiling}")


if __name__ == "__main__":
    print("glue %.0f codec %.0f" % measure())
