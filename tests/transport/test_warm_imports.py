"""No ``import`` statement runs on a warm call, client or server side.

A function-level import costs a ``sys.modules`` lookup plus the import
machinery's locking on every call it sits on — microseconds per call on
the paths the paper measures.  This test hooks ``builtins.__import__``
for 50 warm calls against an in-process server (so its threads are hooked
too) and fails when any ``repro`` module executes an import statement.
It also fails when a warm call loads a module at all: a lazy package
facade resolving a name for the first time would do that through its
``__getattr__``, and a server must have loaded what it answers with
before its first request.

Covered: the pooled and the pipelined socket channel with their own
``retry_policy=``, pipelined ``call`` and ``call_many``, a
:class:`~repro.reliability.channel.ReliableChannel` over each, a
quality-managed service whose replies arrive degraded (so the client
restores the missing fields on every call), one whose replies go through
the ``downsample`` array handler, and the XML quality path
(:class:`~repro.core.xmlq.XmlQualityClient` against the same service).
"""

import builtins
import sys
import threading

import pytest

from repro.core import SoapBinClient, SoapBinService, XmlQualityClient
from repro.http11 import HttpConnectionPool
from repro.pbio import Format, FormatRegistry
from repro.reliability import ReliableChannel, RetryPolicy
from repro.transport import (PipelinedHttpChannel, PooledHttpChannel,
                             serve_endpoint)

WARM_CALLS = 50

#: Any measured RTT degrades the reply to ``EchoSmall`` once the server
#: has a report, so every warm call carries a degraded reply.
DEGRADING_QUALITY = """
attribute rtt
history 1
0.0   1e-12 - EchoResponse
1e-12 inf   - EchoSmall
"""

#: The same switch, to a reply whose array the ``downsample`` handler
#: strides down to one item; the handler zero-fills ``spare``, which the
#: full reply lacks.
DOWNSAMPLING_QUALITY = """
attribute rtt
history 1
0.0   1e-12 - EchoResponse
1e-12 inf   - EchoCoarse
handler EchoCoarse downsample
"""


class ImportSpy:
    """``builtins.__import__`` replacement recording ``repro`` importers,
    plus the modules loaded while it is installed (``loaded``)."""

    def __init__(self) -> None:
        self.real = builtins.__import__
        self.seen = []
        self.loaded = set()
        self.lock = threading.Lock()

    def __call__(self, name, globals=None, locals=None, fromlist=(),
                 level=0):
        importer = (globals or {}).get("__name__", "")
        if importer.split(".")[0] == "repro":
            with self.lock:
                self.seen.append((importer, name, tuple(fromlist or ()),
                                  level))
        return self.real(name, globals, locals, fromlist, level)

    def __enter__(self):
        self.before = set(sys.modules)
        builtins.__import__ = self
        return self

    def __exit__(self, *exc):
        builtins.__import__ = self.real
        self.loaded = set(sys.modules) - self.before


@pytest.fixture()
def registry():
    reg = FormatRegistry()
    reg.register(Format.from_dict("EchoRequest",
                                  {"data": "float64[]", "tag": "string"}))
    reg.register(Format.from_dict("EchoResponse",
                                  {"data": "float64[]", "tag": "string",
                                   "count": "int32"}))
    reg.register(Format.from_dict("EchoSmall", {"count": "int32"}))
    reg.register(Format.from_dict("EchoCoarse",
                                  {"data": "float64[1]", "count": "int32",
                                   "spare": "int32"}))
    return reg


QUALITY = {"full": None, "degraded": DEGRADING_QUALITY,
           "downsampled": DOWNSAMPLING_QUALITY}

#: What a warm call returns from each server.
EXPECTED = {
    "full": {"data": [1.0, 2.0], "tag": "warm", "count": 2},
    "degraded": {"data": [], "tag": "", "count": 2},
    "downsampled": {"data": [1.0], "tag": "", "count": 2},
}


@pytest.fixture(params=sorted(QUALITY))
def server(request, registry):
    # Without the response cache every warm reply runs the downsample
    # handler instead of replaying the first call's transformed value.
    service = SoapBinService(registry, quality_text=QUALITY[request.param],
                             response_cache=request.param != "downsampled")
    service.add_operation(
        "Echo", registry.by_name("EchoRequest"),
        registry.by_name("EchoResponse"),
        lambda p: {"data": p["data"], "tag": p["tag"],
                   "count": len(p["data"])})
    with serve_endpoint(service.endpoint) as srv:
        srv.expected = EXPECTED[request.param]
        yield srv


POLICY = RetryPolicy(max_attempts=3, deadline_s=30.0)


def pooled(address, pool):
    return PooledHttpChannel(address, pool=pool, retry_policy=POLICY)


def pipelined(address, pool):
    return PipelinedHttpChannel(address, depth=4, retry_policy=POLICY)


def reliable_pooled(address, pool):
    return ReliableChannel(PooledHttpChannel(address, pool=pool),
                           policy=POLICY)


def reliable_pipelined(address, pool):
    return ReliableChannel(PipelinedHttpChannel(address, depth=4),
                           policy=POLICY)


@pytest.mark.parametrize("make_channel,batched", [
    (pooled, False), (pipelined, False), (pipelined, True),
    (reliable_pooled, False), (reliable_pooled, True),
    (reliable_pipelined, False), (reliable_pipelined, True),
], ids=["pooled-call", "pipelined-call", "pipelined-call_many",
        "reliable_pooled-call", "reliable_pooled-call_many",
        "reliable_pipelined-call", "reliable_pipelined-call_many"])
def test_no_import_on_a_warm_call(server, registry, make_channel, batched):
    pool = HttpConnectionPool()
    channel = make_channel(server.address, pool)
    client = SoapBinClient(channel, registry)
    fmt_in = registry.by_name("EchoRequest")
    fmt_out = registry.by_name("EchoResponse")
    params = {"data": [1.0, 2.0], "tag": "warm"}

    def one_call():
        if batched:
            return client.call_many("Echo", [params] * 4, fmt_in, fmt_out)
        return [client.call("Echo", params, fmt_in, fmt_out)]

    try:
        for _ in range(3):           # announcements, RTT report, caches
            one_call()
        with ImportSpy() as spy:
            outcomes = [one_call() for _ in range(WARM_CALLS)]
    finally:
        channel.close()
        pool.close()
    for replies in outcomes:
        for reply in replies:
            assert {k: (list(v) if k == "data" else v)
                    for k, v in reply.items()} == server.expected
    assert spy.seen == []
    assert spy.loaded == set()


def test_no_import_on_a_warm_xml_quality_call(server, registry):
    pool = HttpConnectionPool()
    channel = PooledHttpChannel(server.address, pool=pool)
    client = XmlQualityClient(channel, registry)
    fmt_in = registry.by_name("EchoRequest")
    fmt_out = registry.by_name("EchoResponse")
    params = {"data": [1.0, 2.0], "tag": "warm"}
    try:
        for _ in range(3):           # RTT report, caches
            client.call("Echo", params, fmt_in, fmt_out)
        with ImportSpy() as spy:
            replies = [client.call("Echo", params, fmt_in, fmt_out)
                       for _ in range(WARM_CALLS)]
    finally:
        channel.close()
        pool.close()
    for reply in replies:
        assert {k: (list(v) if k == "data" else v)
                for k, v in reply.items()} == server.expected
    assert spy.seen == []
    assert spy.loaded == set()
