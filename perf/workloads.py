"""The five workloads: seeded inputs, the services they call, the clients
that call them, and the check applied to every reply.

The library sees only generated inputs: the seed stays in this file.  Each
workload cycles a pool of ``POOL`` values built once from the seed.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.imaging import (ImageServer, image_formats, image_to_value,
                                value_to_image)
from repro.core import HEADER_RTT, SoapBinClient, SoapBinService
from repro.http11 import HttpConnectionPool
from repro.media import apply_operation, scale_half, starfield
from repro.pbio import Format, FormatRegistry
from repro.reliability import RetryPolicy
from repro.soap import SoapClient
from repro.transport import (Channel, ChannelReply, PipelinedHttpChannel,
                             PooledHttpChannel)

from spans import REQUEST_ID_HEADER, ROOT, ROUNDTRIP, SpanLog

POOL = 64
NESTED_DEPTH = 8
INT_LIST_LEN = 5000
XML_ARRAY_LEN = 1000
BATCH = 16


# ----------------------------------------------------------------------
# services (built in the server child, and in-process for the replay)
# ----------------------------------------------------------------------
def echo_formats() -> Dict[str, Format]:
    """Formats of the echo service; the last nested level is 69 B native."""
    formats = {"NestedL0": Format.from_dict(
        "NestedL0", {"id": "int32", "flag": "uint8", "amount": "float64"})}
    for level in range(1, NESTED_DEPTH + 1):
        formats[f"NestedL{level}"] = Format.from_dict(
            f"NestedL{level}",
            {"id": "int32", "flag": "uint8", "seq": "int16",
             "child": f"struct NestedL{level - 1}"})
    formats["IntLists"] = Format.from_dict(
        "IntLists", {"seq": "int32", "ids": f"int32[{INT_LIST_LEN}]",
                     "counts": f"int32[{INT_LIST_LEN}]"})
    formats["IntArray"] = Format.from_dict(
        "IntArray", {"values": f"int32[{XML_ARRAY_LEN}]"})
    return formats


#: operation name -> message format (request and response are the same)
ECHO_OPERATIONS = {"EchoNested": f"NestedL{NESTED_DEPTH}",
                   "EchoIntLists": "IntLists", "EchoIntArray": "IntArray"}


def register_all(formats: Dict[str, Format]) -> FormatRegistry:
    registry = FormatRegistry()
    for fmt in formats.values():
        registry.register(fmt)
    return registry


def build_service(kind: str) -> SoapBinService:
    """The service a workload calls, every knob at its default."""
    if kind == "imaging":
        return ImageServer().service
    formats = echo_formats()
    service = SoapBinService(register_all(formats))
    for operation, fmt_name in ECHO_OPERATIONS.items():
        service.add_operation(operation, formats[fmt_name],
                              formats[fmt_name], lambda params: params)
    return service


# ----------------------------------------------------------------------
# the channel wrapper every workload's client talks through
# ----------------------------------------------------------------------
class BenchChannel(Channel):
    """Counts body bytes; with a :class:`SpanLog`, also stamps request ids,
    records the channel span and keeps the exchange; with ``report_rtt``
    set, overwrites the RTT the client reports to the server.

    The byte counters stay on in the untraced window (two additions per
    call); everything else is off unless asked for.
    """

    def __init__(self, inner: Channel, keep: int) -> None:
        self.inner = inner
        #: set for the traced window only
        self.log: Optional[SpanLog] = None
        self.report_rtt: Optional[str] = None
        self.request_bytes = 0
        self.response_bytes = 0
        self.non_2xx = 0
        self.call_id = ""
        #: the last ``keep`` traced exchanges, for the staged replay
        self.captured: Deque[Tuple[bytes, str, Dict[str, str],
                                   ChannelReply]] = deque(maxlen=keep)
        if hasattr(inner, "call_many"):
            self.call_many = self._call_many

    def _stamp(self, headers: Optional[Dict[str, str]],
               call_id: str) -> Optional[Dict[str, str]]:
        if self.report_rtt is None and self.log is None:
            return headers
        headers = dict(headers or {})
        if self.report_rtt is not None:
            headers[HEADER_RTT] = self.report_rtt
        if self.log is not None:
            headers[REQUEST_ID_HEADER] = call_id
        return headers

    def _count(self, body: bytes, reply: ChannelReply) -> None:
        self.request_bytes += len(body)
        self.response_bytes += len(reply.body)
        if not reply.ok:
            self.non_2xx += 1

    def call(self, body, content_type, headers=None) -> ChannelReply:
        headers = self._stamp(headers, self.call_id)
        start = time.perf_counter_ns()
        reply = self.inner.call(body, content_type, headers)
        if self.log is not None:
            self.log.add(ROUNDTRIP, start, time.perf_counter_ns(),
                         self.call_id)
            self.captured.append((body, content_type, headers, reply))
        self._count(body, reply)
        return reply

    def _call_many(self, bodies, content_type, headers=None):
        if headers is None or isinstance(headers, dict):
            headers = [headers] * len(bodies)
        headers = [self._stamp(h, f"{self.call_id}.{i}")
                   for i, h in enumerate(headers)]
        start = time.perf_counter_ns()
        results = self.inner.call_many(bodies, content_type, headers)
        if self.log is not None:
            self.log.add(ROUNDTRIP, start, time.perf_counter_ns(),
                         self.call_id)
        for body, sent, result in zip(bodies, headers, results):
            if result.ok:
                self._count(body, result.reply)
                if self.log is not None:
                    self.captured.append(
                        (body, content_type, sent, result.reply))
        return results

    def close(self) -> None:
        self.inner.close()


def same(a: Any, b: Any) -> bool:
    """Deep equality that treats lists and numpy arrays alike."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple, np.ndarray)) \
            or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    return a == b


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload: ``open`` a client on a channel, ``call`` it in a
    loop, ``check`` the replies afterwards."""

    name = ""
    service_kind = "echo"
    operation = ""
    request_format = ""
    response_format = ""
    #: sub-calls carried by one call (``small_pipelined``: a batch)
    batch = 1
    #: calls per cycle; warm-up, slices and windows end on whole cycles.
    #: One pass over the pool, so the bytes counted per call do not depend
    #: on how many calls a window happened to hold
    cycle = POOL
    #: connections the load opens over the life of one server
    load_connections = 1

    def __init__(self, seed: int) -> None:
        self.pool = self.make_pool(random.Random(f"{self.name}/{seed}"))
        self.sent = 0
        self.channel: Optional[BenchChannel] = None
        self.http_pool: Optional[HttpConnectionPool] = None

    def make_pool(self, rng: random.Random) -> List[Any]:
        """``POOL`` request values, a function of the seed alone."""
        raise NotImplementedError

    # -- connection -----------------------------------------------------
    def make_channel(self, address: Tuple[str, int]) -> Channel:
        self.http_pool = HttpConnectionPool()
        return PooledHttpChannel(address, pool=self.http_pool,
                                 retry_policy=RetryPolicy())

    def open(self, channel: Channel) -> None:
        """Fresh registry and client on ``channel``: nothing carries over
        from an earlier ``open``, so every set-up pays compile + announce."""
        formats = (image_formats() if self.service_kind == "imaging"
                   else echo_formats())
        self.registry = register_all(formats)
        self.in_format = formats[self.request_format]
        self.out_format = formats[self.response_format]
        self.sent = 0
        self.channel = BenchChannel(channel, keep=self.cycle * self.batch)
        self.client = self.make_client()

    def make_client(self) -> Any:
        return SoapBinClient(self.channel, self.registry)

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()
            self.channel = None
        if self.http_pool is not None:
            self.http_pool.close()
            self.http_pool = None

    # -- load -----------------------------------------------------------
    def call(self) -> Tuple[Any, ...]:
        """Issue the next call; returns what :meth:`check` needs."""
        index = self.sent % POOL
        self.sent += 1
        return index, self.client.call(self.operation, self.pool[index],
                                       self.in_format, self.out_format)

    def traced_call(self) -> Tuple[Any, ...]:
        """:meth:`call` under a root span, its channel recording too."""
        channel = self.channel
        channel.call_id = str(self.sent)
        start = time.perf_counter_ns()
        try:
            return self.call()
        finally:
            channel.log.add(ROOT, start, time.perf_counter_ns(),
                            channel.call_id)

    def check(self, outcome: Tuple[Any, ...]) -> int:
        """Number of wrong replies among the sub-calls of one call."""
        index, reply = outcome
        return 0 if same(reply, self.pool[index]) else 1

    def counters(self) -> Dict[str, float]:
        """Client-side counters, read before and after a window."""
        session = getattr(self.client, "session", None)
        stats = session.stats if session is not None else None
        pool = self.http_pool.stats() if self.http_pool is not None else {}
        return {
            "request_bytes": self.channel.request_bytes,
            "response_bytes": self.channel.response_bytes,
            "non_2xx": self.channel.non_2xx,
            "pool_reused": pool.get("reused", 0),
            "retries": pool.get("retries", 0),
            "pbio_messages": (stats.messages_sent + stats.messages_received
                              if stats else 0),
            "pbio_compact": (stats.compact_sent + stats.compact_received
                             if stats else 0),
            "level_full": 0, "level_half": 0,
        }

    # -- replay hooks -----------------------------------------------------
    def request_value(self, index: int) -> Dict[str, Any]:
        return self.pool[index]

    def server_value(self, decoded_reply: Dict[str, Any]) -> Dict[str, Any]:
        """The value the server held before encoding ``decoded_reply``."""
        return decoded_reply


class SmallCall(Workload):
    name = "small_call"
    operation = "EchoNested"
    request_format = response_format = f"NestedL{NESTED_DEPTH}"

    def make_pool(self, rng: random.Random) -> List[Any]:
        def build(level: int) -> Dict[str, Any]:
            node: Dict[str, Any] = {"id": rng.randrange(1_000, 1_000_000),
                                    "flag": rng.randrange(2)}
            if level == 0:
                node["amount"] = round(rng.uniform(-1e6, 1e6), 2)
            else:
                node["seq"] = rng.randrange(10_000, 30_000)
                node["child"] = build(level - 1)
            return node
        return [build(NESTED_DEPTH) for _ in range(POOL)]


class SmallPipelined(SmallCall):
    name = "small_pipelined"
    batch = BATCH
    cycle = POOL // BATCH
    #: PipelinedHttpChannel sends the announcement-carrying first message
    #: on its single-call connection, then batches on a pipelined one
    load_connections = 2

    def make_channel(self, address: Tuple[str, int]) -> Channel:
        return PipelinedHttpChannel(address, depth=8,
                                    retry_policy=RetryPolicy())

    def call(self) -> Tuple[Any, ...]:
        first = self.sent * BATCH
        self.sent += 1
        indexes = [(first + i) % POOL for i in range(BATCH)]
        return indexes, self.client.call_many(
            self.operation, [self.pool[i] for i in indexes],
            self.in_format, self.out_format)

    def check(self, outcome: Tuple[Any, ...]) -> int:
        indexes, replies = outcome
        return sum(0 if same(reply, self.pool[i]) else 1
                   for i, reply in zip(indexes, replies))


class IntListCall(Workload):
    name = "int_list_call"
    operation = "EchoIntLists"
    request_format = response_format = "IntLists"

    def make_pool(self, rng: random.Random) -> List[Any]:
        return [{"seq": rng.randrange(1 << 20),
                 "ids": [rng.randrange(100) for _ in range(INT_LIST_LEN)],
                 "counts": [rng.randrange(100) for _ in range(INT_LIST_LEN)]}
                for _ in range(POOL)]


class XmlInterop(Workload):
    name = "xml_interop"
    operation = "EchoIntArray"
    request_format = response_format = "IntArray"

    def make_pool(self, rng: random.Random) -> List[Any]:
        return [{"values": [rng.randrange(-(1 << 31), 1 << 31)
                            for _ in range(XML_ARRAY_LEN)]}
                for _ in range(POOL)]

    def make_client(self) -> Any:
        return SoapClient(self.channel, self.registry)


class QualityModel:
    """The benchmark's own model of the imaging quality file: reported RTT
    below ``threshold`` selects ``ImageFull``, otherwise ``ImageHalf``, and
    the selection changes only when ``history`` consecutive reports
    disagree with it — so a step in RTT shows two calls late."""

    def __init__(self, threshold: float = 0.20, history: int = 3) -> None:
        self.threshold = threshold
        self.history = history
        self.level: Optional[str] = None
        self.votes = 0

    def observe(self, rtt: float) -> str:
        wanted = "ImageFull" if rtt < self.threshold else "ImageHalf"
        if self.level is None:
            self.level = wanted
        if wanted == self.level:
            self.votes = 0
        else:
            self.votes += 1
            if self.votes >= self.history:
                self.level, self.votes = wanted, 0
        return self.level


class AdaptiveImaging(Workload):
    name = "adaptive_imaging"
    service_kind = "imaging"
    operation = "GetImage"
    request_format, response_format = "GetImageRequest", "ImageFull"
    #: 4 calls reporting a healthy link, then 8 reporting a degraded one.
    #: With the two-call lag each cycle serves 4 full and 8 half images, so
    #: the p50 sits inside the half-size mode and the p90 inside the
    #: full-size mode (an even split would put the median between them).
    #: Every file's image has the same size, so bytes per cycle are exact.
    cycle = 12
    HEALTHY_CALLS = 4
    HEALTHY_RTT, DEGRADED_RTT = 0.05, 0.40
    FILES = [f"sky{i:02d}.ppm" for i in range(4)]

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._expected: Dict[Tuple[str, str], np.ndarray] = {}

    def make_pool(self, rng: random.Random) -> List[Any]:
        # concatenated permutations: every aligned run of 4 calls asks
        # for all 4 files, so each cycle's half-size calls cover them all
        pool: List[str] = []
        while len(pool) < POOL:
            pool.extend(rng.sample(self.FILES, len(self.FILES)))
        return pool

    def reported_rtt(self, call_number: int) -> float:
        return (self.HEALTHY_RTT
                if call_number % self.cycle < self.HEALTHY_CALLS
                else self.DEGRADED_RTT)

    def open(self, channel: Channel) -> None:
        super().open(channel)
        self.model = QualityModel()
        self.levels = {"ImageFull": 0, "ImageHalf": 0}

    def call(self) -> Tuple[Any, ...]:
        number = self.sent
        self.sent += 1
        rtt = self.reported_rtt(number)
        self.channel.report_rtt = f"{rtt:.9f}"
        level = self.model.observe(rtt)
        filename = self.pool[number % POOL]
        return filename, level, value_to_image(self.client.call(
            self.operation, self.request_value(number % POOL),
            self.in_format, self.out_format))

    def expected_image(self, filename: str, level: str) -> np.ndarray:
        if (filename, level) not in self._expected:
            image = apply_operation("edge", starfield(
                640, 480, seed=self.FILES.index(filename)))
            self._expected[(filename, "ImageFull")] = image
            self._expected[(filename, "ImageHalf")] = scale_half(image)
        return self._expected[(filename, level)]

    def check(self, outcome: Tuple[Any, ...]) -> int:
        filename, level, image = outcome
        seen = "ImageFull" if image.shape[1] == 640 else "ImageHalf"
        self.levels[seen] += 1
        return 0 if np.array_equal(
            image, self.expected_image(filename, level)) else 1

    def counters(self) -> Dict[str, float]:
        return {**super().counters(), "level_full": self.levels["ImageFull"],
                "level_half": self.levels["ImageHalf"]}

    def request_value(self, index: int) -> Dict[str, Any]:
        return {"filename": self.pool[index], "operation": "edge"}

    def server_value(self, decoded_reply: Dict[str, Any]) -> Dict[str, Any]:
        return image_to_value(str(decoded_reply["filename"]),
                              value_to_image(decoded_reply))


WORKLOADS = {cls.name: cls for cls in (SmallCall, SmallPipelined, IntListCall,
                                       XmlInterop, AdaptiveImaging)}
