"""The performance-regression harness behind ``BENCH_headline.json``.

Every PR from the compiled-codec fast path onward tracks the same handful
of headline numbers, so a regression in any hot path shows up as a diff in
one JSON file:

* **codec** — encode/decode ops/s for the three paper workloads (10k-element
  float64 list, 10k-element int32 NumPy array, depth-8 nested business
  struct), each with the interpreted field-walk ("slow path") alongside so
  the compiled-codec speedup is explicit;
* **wire** — steady-state session ``pack_bytes``/``unpack_stream``
  round-trips per second (framing + codec + zero-copy parse), the
  native-layout vs compact-varint size/throughput trade on three payload
  shapes (small-int-heavy, float-array, nested-struct), and the
  constant-memory streaming evidence: a multi-MB PBIO record stream
  pushed through the reactor's chunked route in a forked child while
  VmRSS growth is sampled;
* **xlate** — XML translation ops/s for the Fig. 5b/Fig. 7 array payloads
  (``to_xml``/``from_xml`` on 10k- and 1k-element int arrays), with the
  tree/pull reference paths alongside so the compiled-XML-plan speedup is
  explicit;
* **rpc** — p50/p95 end-to-end call latency for a SOAP-bin echo operation
  over real loopback HTTP with pooled keep-alive connections;
* **concurrency** — the event-driven serving core under load: active-call
  latency while thousands of idle keep-alive connections are held (with
  thread and RSS growth recorded), pipelined vs serial throughput at
  depths 1/8/32, and a reactor-vs-threaded A/B of plain call latency;
* **cache** — the content-addressed quality/response cache tier: the
  quality-managed RPC with the cache off (every call re-runs the quality
  handler + encode) vs on (steady-state hits replay memoized bytes), and
  a conditional-request A/B where ``If-None-Match`` turns the round-trip
  into a header-only ``304 Not Modified``;
* **scaleout** — the prefork reactor fleet: SOAP-bin echo RPC ops/s with
  one worker vs ``os.cpu_count()`` workers on one port (load generated
  by forked client processes, so the measurement is not GIL-bound), the
  scaling efficiency, and fleet-wide pipelined depth-8 throughput
  against the single-core ceiling.

Run it directly::

    PYTHONPATH=src python -m repro.bench.regress --out BENCH_headline.json

or in smoke mode (a few seconds, used by the tier-1 test suite)::

    PYTHONPATH=src python -m repro.bench.regress --smoke

``--sections scaleout`` (comma/space separable, repeatable) runs only the
named sections and, when ``--out`` already exists, merges the fresh
numbers into it — so fleet tuning reruns don't pay the codec/xlate
suites.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import SoapBinClient, SoapBinService
from ..pbio import Format, FormatRegistry, interp_decode, interp_encode
from ..transport import PooledHttpChannel, serve_endpoint
from ..http11 import (HttpConnection, HttpConnectionPool, HttpServer,
                      PipelinedHttpConnection, Request, Response)
from .datagen import (int_array_value, nested_struct_value,
                      register_array_format, register_nested_formats)
from .timers import percentile

SCHEMA_VERSION = 1

FLOAT_ARRAY_FORMAT = Format.from_dict("RegressFloatArray",
                                      {"data": "float64[]"})
ECHO_FORMAT = Format.from_dict("RegressEcho",
                               {"seq": "int32", "payload": "float64[]"})


def _rate(fn: Callable[[], Any], min_time: float) -> float:
    """Calls per second of ``fn``, measured over at least ``min_time``."""
    fn()  # warmup / JIT the codec caches
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_time:
            return n / elapsed
        if elapsed <= 0:
            n *= 10
        else:
            n = max(n * 2, int(n * (min_time / elapsed) * 1.2) + 1)


def _codec_entry(registry: FormatRegistry, fmt: Format,
                 value: Dict[str, Any], min_time: float,
                 slow_path: bool = True) -> Dict[str, float]:
    compiler = registry.compiler
    encode = compiler.encoder(fmt)
    decode = compiler.decoder(fmt)
    payload = encode(value)
    entry: Dict[str, float] = {
        "payload_bytes": len(payload),
        "encode_ops_s": _rate(lambda: encode(value), min_time),
        "decode_ops_s": _rate(lambda: decode(payload, 0), min_time),
    }
    if slow_path:
        entry["interp_encode_ops_s"] = _rate(
            lambda: interp_encode(fmt, value, registry), min_time)
        entry["interp_decode_ops_s"] = _rate(
            lambda: interp_decode(fmt, payload, 0, registry), min_time)
        entry["encode_speedup_vs_interp"] = (
            entry["encode_ops_s"] / entry["interp_encode_ops_s"])
        entry["decode_speedup_vs_interp"] = (
            entry["decode_ops_s"] / entry["interp_decode_ops_s"])
    return entry


def _bench_codecs(min_time: float) -> Dict[str, Dict[str, float]]:
    registry = FormatRegistry()
    out: Dict[str, Dict[str, float]] = {}

    registry.register(FLOAT_ARRAY_FORMAT)
    float_value = {"data": [float(i) * 0.5 for i in range(10_000)]}
    out["float64_array_10k_list"] = _codec_entry(
        registry, FLOAT_ARRAY_FORMAT, float_value, min_time)

    array_fmt = register_array_format(registry)
    # slow_path=False: the interpreter walks the ndarray per element, which
    # in full mode would dominate the harness runtime for no extra signal —
    # the float64 list workload above already pins down the speedup ratio.
    out["int32_array_10k_numpy"] = _codec_entry(
        registry, array_fmt, int_array_value(10_000), min_time,
        slow_path=False)

    nested_fmt = register_nested_formats(registry, 8)
    out["nested_struct_d8"] = _codec_entry(
        registry, nested_fmt, nested_struct_value(8), min_time)
    return out


WIRE_SMALL_INT_FORMAT = Format.from_dict(
    "RegressWireSmallInt",
    {"seq": "int32", "ids": "int64[]", "counts": "int32[]"})

#: one stream record = 128 KiB of float64 payload
STREAM_RECORD_ELEMENTS = 16_384


def _wire_shape_entry(registry: FormatRegistry, fmt: Format,
                      value: Dict[str, Any],
                      min_time: float) -> Dict[str, float]:
    """Native-layout vs compact-varint bytes and codec throughput for one
    payload shape — the size/CPU trade the wire negotiation picks between
    (docs/wire-compact.md)."""
    compiler = registry.compiler
    native_enc = compiler.encoder(fmt)
    native_dec = compiler.decoder(fmt)
    compact_enc = compiler.compact_encoder(fmt)
    compact_dec = compiler.compact_decoder(fmt)
    native_payload = native_enc(value)
    compact_payload = compact_enc(value)
    return {
        "native_bytes": len(native_payload),
        "compact_bytes": len(compact_payload),
        "compact_shrink": len(native_payload) / len(compact_payload),
        "native_encode_ops_s": _rate(lambda: native_enc(value), min_time),
        "compact_encode_ops_s": _rate(lambda: compact_enc(value), min_time),
        "native_decode_ops_s": _rate(
            lambda: native_dec(native_payload, 0), min_time),
        "compact_decode_ops_s": _rate(
            lambda: compact_dec(compact_payload, 0), min_time),
    }


def _compact_array_speedups(fmt: Format, value: Dict[str, Any],
                            min_time: float) -> Dict[str, float]:
    """The compact int-array block kernels against the scalar loop they
    replaced (kept for small arrays), over the int arrays of ``value``.

    Both are timed here, back to back on the same arrays, so a change in
    host speed between the baseline and a later run cancels out of the
    ratio — which is why the gate can demand it of any run.
    """
    from ..pbio.compiler import (_pack_compact_int_array,
                                 _pack_compact_int_array_scalar,
                                 _unpack_compact_int_array,
                                 _unpack_compact_int_array_scalar)
    from ..pbio.types import Array
    arrays = [(value[f.name], f.ftype.element.kind) for f in fmt.fields
              if isinstance(f.ftype, Array)]
    blobs = [(_pack_compact_int_array(items, kind), kind, len(items))
             for items, kind in arrays]

    def encode_rate(pack: Callable[[Any, str], bytes]) -> float:
        return _rate(lambda: [pack(items, kind) for items, kind in arrays],
                     min_time)

    def decode_rate(unpack: Callable[[bytes, int, str, int], Any]) -> float:
        return _rate(lambda: [unpack(blob, 0, kind, count)
                              for blob, kind, count in blobs], min_time)

    return {
        "compact_encode_speedup_vs_scalar":
            encode_rate(_pack_compact_int_array)
            / encode_rate(_pack_compact_int_array_scalar),
        "compact_decode_speedup_vs_scalar":
            decode_rate(_unpack_compact_int_array)
            / decode_rate(_unpack_compact_int_array_scalar),
    }


def _stream_rss_child(payload_bytes: int, out_q) -> None:
    """Forked child: push ``payload_bytes`` of PBIO records through the
    reactor's streaming route and read the echo back, sampling VmRSS.

    Forked so the baseline is a fresh heap — the parent's accumulated
    allocations would mask (or fake) growth.  Client and server share the
    process, so the growth figure covers *both* ends of the stream: the
    constant-memory claim holds only if neither side buffers the payload.
    """
    import threading
    from ..pbio import (PbioSession, RecordStreamReader, iter_frames,
                        pbio_stream_route)

    registry = FormatRegistry()
    fmt = Format.from_dict("RegressStreamRecord",
                           {"seq": "int32", "data": "float64[]"})
    registry.register(fmt)
    data = [float(i) * 0.5 for i in range(STREAM_RECORD_ELEMENTS)]
    record_bytes = STREAM_RECORD_ELEMENTS * 8
    nrecords = max(4, payload_bytes // record_bytes)

    def records():
        for seq in range(nrecords):
            yield fmt, {"seq": seq, "data": data}

    server = HttpServer(lambda request: Response(status=404),
                        concurrency="reactor",
                        stream_routes={"/stream":
                                       pbio_stream_route(registry)})
    stop = threading.Event()
    peak = [0]

    def sample() -> None:
        while not stop.is_set():
            peak[0] = max(peak[0], _rss_kb())
            stop.wait(0.01)

    conn = HttpConnection(server.address)
    session = PbioSession(registry)
    sink = RecordStreamReader(PbioSession(registry))
    try:
        baseline_kb = _rss_kb()
        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        resp = conn.stream("/stream", iter_frames(session, records()),
                           content_type="application/x-pbio-stream")
        frames_back = 0
        bytes_back = 0
        for chunk in resp.iter_chunks():
            bytes_back += len(chunk)
            frames_back += len(sink.feed(chunk))
        sink.finish()
        stop.set()
        sampler.join()
        peak_kb = max(peak[0], _rss_kb())
    finally:
        stop.set()
        conn.close()
        server.close()
    assert resp.status == 200, resp.status
    assert frames_back == nrecords, (frames_back, nrecords)
    out_q.put({
        "payload_bytes": nrecords * record_bytes,
        "records": nrecords,
        "echoed_bytes": bytes_back,
        "rss_baseline_kb": baseline_kb,
        "rss_peak_kb": peak_kb,
        "rss_growth_kb": max(0, peak_kb - baseline_kb),
    })


def _bench_wire_streaming(smoke: bool) -> Dict[str, Any]:
    """The constant-memory evidence: a multi-MB record stream crosses the
    reactor and comes back while RSS stays frame-sized.  Full mode pushes
    64 MiB (the gate bound lives in :mod:`.gates`); smoke keeps CI fast
    with 8 MiB but still proves the roundtrip."""
    import multiprocessing
    mp = multiprocessing.get_context("fork")
    payload_bytes = (8 << 20) if smoke else (64 << 20)
    out_q: Any = mp.SimpleQueue()
    proc = mp.Process(target=_stream_rss_child,
                      args=(payload_bytes, out_q), daemon=True)
    proc.start()
    try:
        result: Dict[str, Any] = out_q.get()
    finally:
        proc.join(timeout=120.0)
        if proc.is_alive():             # pragma: no cover - hung child
            proc.terminate()
    result["rss_growth_ratio"] = (result["rss_growth_kb"] * 1024
                                  / result["payload_bytes"])
    return result


def _bench_wire(min_time: float, smoke: bool) -> Dict[str, Any]:
    from ..pbio import PbioSession
    registry = FormatRegistry()
    nested_fmt = register_nested_formats(registry, 8)
    nested_value = nested_struct_value(8)
    sender = PbioSession(registry)
    receiver = PbioSession(registry)

    def roundtrip() -> None:
        receiver.unpack_stream(sender.pack_bytes(nested_fmt, nested_value))

    roundtrip()  # burn the one-time announcement
    roundtrip()  # ... and let wire="auto" settle on its steady-state rep
    out: Dict[str, Any] = {
        "nested_struct_d8_roundtrip_ops_s": _rate(roundtrip, min_time),
        "roundtrip_rep": sender.wire_rep(),
    }

    registry.register(FLOAT_ARRAY_FORMAT)
    registry.register(WIRE_SMALL_INT_FORMAT)
    small_value = {"seq": 7,
                   "ids": [i % 100 for i in range(5000)],
                   "counts": [i % 50 for i in range(5000)]}
    float_value = {"data": [float(i) * 0.5 for i in range(10_000)]}
    out["shapes"] = {
        # ids/counts under one varint byte each: compact's best case
        "small_int_heavy": _wire_shape_entry(
            registry, WIRE_SMALL_INT_FORMAT, small_value, min_time),
        # float64 stays 8 bytes either way: the no-win crossover case
        "float64_array_10k": _wire_shape_entry(
            registry, FLOAT_ARRAY_FORMAT, float_value, min_time),
        "nested_struct_d8": _wire_shape_entry(
            registry, nested_fmt, nested_value, min_time),
    }
    out["shapes"]["small_int_heavy"].update(_compact_array_speedups(
        WIRE_SMALL_INT_FORMAT, small_value, min_time))
    out["streaming"] = _bench_wire_streaming(smoke)
    return out


def _bench_xlate(min_time: float) -> Dict[str, Dict[str, float]]:
    """XML translation throughput: compiled plans vs tree/pull paths.

    The payloads mirror the paper's array workloads: 10k ints is the
    Fig. 5b generation-cost point, 1k ints the Fig. 7a interoperability
    parse point.
    """
    from ..core import ConversionHandler
    from ..soap.encoding import decode_fields_pull
    from ..xmlcore import XmlPullParser

    registry = FormatRegistry()
    fmt = register_array_format(registry)
    out: Dict[str, Dict[str, float]] = {}
    for n in (10_000, 1_000):
        handler = ConversionHandler(fmt, registry)
        value = int_array_value(n)
        xml_text = handler.to_xml(value)
        assert xml_text == handler.to_xml_tree(value)

        def from_xml_pull() -> Dict[str, Any]:
            pp = XmlPullParser(xml_text)
            start = pp.require_start()
            decoded = decode_fields_pull(pp, fmt, registry)
            pp.require_end(start.name)
            return decoded

        entry: Dict[str, float] = {
            "xml_bytes": len(xml_text),
            "to_xml_ops_s": _rate(lambda: handler.to_xml(value), min_time),
            "to_xml_tree_ops_s": _rate(
                lambda: handler.to_xml_tree(value), min_time),
            "from_xml_ops_s": _rate(
                lambda: handler.from_xml(xml_text), min_time),
            "from_xml_pull_ops_s": _rate(from_xml_pull, min_time),
        }
        entry["to_xml_speedup_vs_tree"] = (
            entry["to_xml_ops_s"] / entry["to_xml_tree_ops_s"])
        entry["from_xml_speedup_vs_pull"] = (
            entry["from_xml_ops_s"] / entry["from_xml_pull_ops_s"])
        out[f"int32_array_{n // 1000}k"] = entry
    return out


def _bench_rpc(calls: int, payload_elements: int) -> Dict[str, Any]:
    from ..reliability import RetryPolicy

    registry = FormatRegistry()
    registry.register(ECHO_FORMAT)
    service = SoapBinService(registry)
    service.add_operation("Echo", ECHO_FORMAT, ECHO_FORMAT,
                          lambda params: params)
    server = serve_endpoint(service.endpoint)
    pool = HttpConnectionPool()
    value = {"seq": 0,
             "payload": [float(i) for i in range(payload_elements)]}
    # the production shape: reliability enabled; the happy path must not
    # pay for it (the p50 gate below is compared against the pre-policy
    # baseline)
    policy = RetryPolicy(max_attempts=3, deadline_s=30.0,
                         backoff_initial_s=0.05)
    try:
        channel = PooledHttpChannel(server.address, pool=pool,
                                    retry_policy=policy)
        client = SoapBinClient(channel, registry)
        for _ in range(min(10, calls)):  # warmup: announcement + pool fill
            client.call("Echo", value, ECHO_FORMAT, ECHO_FORMAT)
        latencies: List[float] = []
        for seq in range(calls):
            value["seq"] = seq
            start = time.perf_counter()
            client.call("Echo", value, ECHO_FORMAT, ECHO_FORMAT)
            latencies.append(time.perf_counter() - start)
        pool_stats = pool.stats()
    finally:
        pool.close()
        server.close()
    return {
        "calls": calls,
        "payload_elements": payload_elements,
        "p50_call_latency_s": percentile(latencies, 50),
        "p95_call_latency_s": percentile(latencies, 95),
        "ops_s": len(latencies) / sum(latencies),
        "pooled_connections_created": pool.created,
        "pooled_connections_reused": pool.reused,
        "retry_policy_enabled": True,
        "retries": pool.retries,
        "pool_stats": pool_stats,
    }


def _rss_kb() -> int:
    """Resident set size of this process in KiB (Linux ``/proc``)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _echo_rpc_setup():
    """The same echo service/client shape as :func:`_bench_rpc`."""
    registry = FormatRegistry()
    registry.register(ECHO_FORMAT)
    service = SoapBinService(registry)
    service.add_operation("Echo", ECHO_FORMAT, ECHO_FORMAT,
                          lambda params: params)
    return registry, service


def _bench_idle_hold(requested: int, active_calls: int) -> Dict[str, Any]:
    """Hold thousands of idle keep-alive connections against the reactor
    while measuring active-call RPC latency — the c10k shape the
    thread-per-connection core could not serve."""
    import resource
    import socket
    import threading

    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    # two fds per loopback connection (client + server end), plus slack
    target = max(64, min(requested, (soft - 256) // 2))
    registry, service = _echo_rpc_setup()
    server = serve_endpoint(service.endpoint, concurrency="reactor",
                            backlog=1024)
    value = {"seq": 0, "payload": [float(i) for i in range(256)]}
    threads_before = threading.active_count()
    rss_before = _rss_kb()
    held: List[socket.socket] = []
    pool = HttpConnectionPool()
    try:
        for _ in range(target):
            held.append(socket.create_connection(server.address,
                                                 timeout=10.0))
        deadline = time.monotonic() + 30.0
        while (getattr(server, "_active_connections", target) < target
               and time.monotonic() < deadline):
            time.sleep(0.02)
        threads_during = threading.active_count()
        rss_during = _rss_kb()
        channel = PooledHttpChannel(server.address, pool=pool)
        client = SoapBinClient(channel, registry)
        for _ in range(min(10, active_calls)):
            client.call("Echo", value, ECHO_FORMAT, ECHO_FORMAT)
        latencies: List[float] = []
        for seq in range(active_calls):
            value["seq"] = seq
            start = time.perf_counter()
            client.call("Echo", value, ECHO_FORMAT, ECHO_FORMAT)
            latencies.append(time.perf_counter() - start)
    finally:
        pool.close()
        for sock in held:
            sock.close()
        server.close()
    return {
        "connections_held": target,
        "threads_added": threads_during - threads_before,
        "rss_held_kb": rss_during - rss_before,
        "active_calls": active_calls,
        "active_p50_latency_s": percentile(latencies, 50),
        "active_p95_latency_s": percentile(latencies, 95),
    }


def _bench_pipelined(requests_per_depth: int) -> Dict[str, Any]:
    """Raw HTTP echo throughput: the serial keep-alive client
    (``HttpConnection``, what ``HttpChannel`` drives — the path a
    ``call_many`` adopter migrates *from*) versus one pipelined
    connection at depth 1/8/32.  Speedups are quoted against the serial
    client; the depth-1 figure sits alongside so the non-blocking
    transport's own serial cost stays visible."""
    body = b"x" * 256

    def handler(request):
        return Response(body=request.body)

    depths = (1, 8, 32)
    samples: Dict[Any, List[float]] = {depth: [] for depth in depths}
    samples["serial"] = []
    # requests are built once, outside every timed window: the metric is
    # transport throughput, not Request-object construction
    requests = [Request(method="POST", target="/", body=body)
                for _ in range(requests_per_depth)]
    with HttpServer(handler, concurrency="reactor") as server:
        serial = HttpConnection(server.address)
        pipes = {depth: PipelinedHttpConnection(server.address, depth=depth)
                 for depth in depths}
        try:
            for _ in range(64):  # warmup
                serial.post("/", body, "application/octet-stream")
            for depth in depths:
                pipes[depth].request_many(requests[:64])
            # interleaved passes, median per config: scheduler noise on a
            # shared box lands on every config instead of whichever one
            # happened to run during the bad slice
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(requests_per_depth):
                    serial.post("/", body, "application/octet-stream")
                elapsed = time.perf_counter() - start
                samples["serial"].append(requests_per_depth / elapsed)
                for depth in depths:
                    start = time.perf_counter()
                    responses = pipes[depth].request_many(requests)
                    elapsed = time.perf_counter() - start
                    assert len(responses) == requests_per_depth
                    samples[depth].append(requests_per_depth / elapsed)
        finally:
            serial.close()
            for pipe in pipes.values():
                pipe.close()
    out: Dict[str, Any] = {
        f"pipelined_depth{depth}_ops_s": percentile(samples[depth], 50)
        for depth in depths}
    out["serial_ops_s"] = percentile(samples["serial"], 50)
    # speedups are the median of *per-pass* ratios: each pass's pipelined
    # run is paired with the serial run adjacent to it in time, so a
    # machine-wide slow slice cancels instead of skewing the quotient
    for depth in (8, 32):
        ratios = [pipelined / serial_rate for pipelined, serial_rate
                  in zip(samples[depth], samples["serial"])]
        out[f"pipelined_depth{depth}_speedup_vs_serial"] = (
            percentile(ratios, 50))
    return out


def _bench_mode_ab(calls: int) -> Dict[str, Any]:
    """Serial keep-alive call latency, reactor vs threaded — the switch
    must not tax the single-connection happy path."""

    def handler(request):
        return Response(body=request.body)

    out: Dict[str, Any] = {}
    body = b"x" * 256
    for mode in ("reactor", "threaded"):
        with HttpServer(handler, concurrency=mode) as server:
            with PipelinedHttpConnection(server.address, depth=1) as pipe:
                for _ in range(min(10, calls)):
                    pipe.post("/", body, "application/octet-stream")
                latencies: List[float] = []
                for _ in range(calls):
                    start = time.perf_counter()
                    pipe.post("/", body, "application/octet-stream")
                    latencies.append(time.perf_counter() - start)
        out[f"{mode}_p50_call_latency_s"] = percentile(latencies, 50)
    return out


def _bench_concurrency(smoke: bool) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "idle_hold": _bench_idle_hold(
            requested=128 if smoke else 5000,
            active_calls=60 if smoke else 200),
    }
    out.update(_bench_pipelined(300 if smoke else 3000))
    out.update(_bench_mode_ab(60 if smoke else 400))
    return out


# ----------------------------------------------------------------------
# scaleout: the prefork reactor fleet vs one worker
# ----------------------------------------------------------------------

def _fleet_echo_factory(ctx):
    """Worker factory: a fresh SOAP-bin echo service per forked worker."""
    from ..transport import endpoint_http_handler
    _registry, service = _echo_rpc_setup()
    return endpoint_http_handler(service.endpoint)


def _scaleout_rpc_client(address, duration_s, ready_q, start_evt, out_q):
    """One forked load generator: pooled SOAP-bin echo calls for a fixed
    window; reports how many completed."""
    registry = FormatRegistry()
    registry.register(ECHO_FORMAT)
    pool = HttpConnectionPool()
    channel = PooledHttpChannel(address, pool=pool)
    client = SoapBinClient(channel, registry)
    value = {"seq": 0, "payload": [float(i) for i in range(256)]}
    try:
        for _ in range(3):   # warmup: announcement + pool fill
            client.call("Echo", value, ECHO_FORMAT, ECHO_FORMAT)
        ready_q.put(os.getpid())
        start_evt.wait()
        count = 0
        deadline = time.perf_counter() + duration_s
        while time.perf_counter() < deadline:
            value["seq"] = count
            client.call("Echo", value, ECHO_FORMAT, ECHO_FORMAT)
            count += 1
        out_q.put(count)
    finally:
        pool.close()


def _scaleout_pipe_client(address, duration_s, ready_q, start_evt, out_q):
    """One forked pipelined load generator (depth 8, raw HTTP echo)."""
    body = b"x" * 256
    requests = [Request(method="POST", target="/", body=body)
                for _ in range(64)]
    with PipelinedHttpConnection(address, depth=8) as pipe:
        pipe.request_many(requests[:16])     # warmup
        ready_q.put(os.getpid())
        start_evt.wait()
        count = 0
        deadline = time.perf_counter() + duration_s
        while time.perf_counter() < deadline:
            responses = pipe.request_many(requests)
            count += len(responses)
        out_q.put(count)


def _drive_clients(target, address, duration_s, nclients) -> float:
    """Fork ``nclients`` load generators against ``address``; aggregate
    ops/s over the common measurement window."""
    import multiprocessing
    mp = multiprocessing.get_context("fork")
    ready_q: Any = mp.SimpleQueue()
    out_q: Any = mp.SimpleQueue()
    start_evt = mp.Event()
    procs = [mp.Process(target=target,
                        args=(address, duration_s, ready_q, start_evt,
                              out_q),
                        daemon=True)
             for _ in range(nclients)]
    for proc in procs:
        proc.start()
    try:
        for _ in range(nclients):            # all warmed up before the gun
            ready_q.get()
        start_evt.set()
        total = sum(out_q.get() for _ in range(nclients))
    finally:
        for proc in procs:
            proc.join(timeout=duration_s + 30.0)
            if proc.is_alive():              # pragma: no cover - hung child
                proc.terminate()
    return total / duration_s


def _bench_scaleout(smoke: bool) -> Dict[str, Any]:
    """Fleet RPC throughput at 1 vs N workers (N = cores), plus fleet
    pipelined depth-8 against the single-core ceiling.

    Load comes from forked client *processes*, so on a multi-core box the
    measurement exercises real parallelism end to end; on a single-core
    container the N-worker figures honestly collapse to ~1x.
    """
    from ..serving import FleetServer
    cores = os.cpu_count() or 1
    workers = cores
    duration_s = 0.4 if smoke else 2.0
    nclients = max(2, 2 * workers)

    def measure(n_workers: int) -> Dict[str, float]:
        fleet = FleetServer(_fleet_echo_factory, workers=n_workers,
                            control_port=None)
        try:
            if not fleet.wait_ready(20.0):
                raise RuntimeError("fleet workers never became ready")
            rpc = _drive_clients(_scaleout_rpc_client, fleet.address,
                                 duration_s, nclients)
            pipe = _drive_clients(_scaleout_pipe_client, fleet.address,
                                  duration_s, max(1, n_workers))
            return {"rpc_ops_s": rpc, "pipelined_depth8_ops_s": pipe,
                    "mode": fleet.mode}
        finally:
            fleet.close()

    single = measure(1)
    if workers > 1:
        fleet_n = measure(workers)
    else:
        fleet_n = dict(single)   # one core: the fleet IS one worker
    # the serial baseline for the pipelining speedup: one serial
    # keep-alive connection against a single worker (the PR-5 ceiling's
    # own denominator)
    fleet = FleetServer(_fleet_echo_factory, workers=1, control_port=None)
    try:
        if not fleet.wait_ready(20.0):
            raise RuntimeError("fleet worker never became ready")
        body = b"x" * 256
        with HttpConnection(fleet.address) as conn:
            for _ in range(32):
                conn.post("/bench", body, "application/octet-stream")
            count = 0
            deadline = time.perf_counter() + duration_s
            while time.perf_counter() < deadline:
                conn.post("/bench", body, "application/octet-stream")
                count += 1
        serial_ops = count / duration_s
    finally:
        fleet.close()
    return {
        "cores": cores,
        "workers": workers,
        "mode": fleet_n["mode"],
        "duration_s": duration_s,
        "rpc_client_processes": nclients,
        "single_worker_rpc_ops_s": single["rpc_ops_s"],
        "fleet_rpc_ops_s": fleet_n["rpc_ops_s"],
        "scaling_efficiency": (fleet_n["rpc_ops_s"]
                               / (workers * single["rpc_ops_s"])
                               if single["rpc_ops_s"] else 0.0),
        "serial_ops_s": serial_ops,
        "fleet_pipelined_depth8_ops_s": fleet_n["pipelined_depth8_ops_s"],
        "fleet_pipelined_depth8_speedup_vs_serial": (
            fleet_n["pipelined_depth8_ops_s"] / serial_ops
            if serial_ops else 0.0),
    }


# ----------------------------------------------------------------------
# cache: the content-addressed quality/response cache tier
# ----------------------------------------------------------------------

CACHE_REQUEST_FORMAT = Format.from_dict("RegressCacheRequest",
                                        {"n": "int32"})
CACHE_FULL_FORMAT = Format.from_dict("RegressCacheResponse",
                                     {"seq": "int32", "payload": "float64[]"})
CACHE_HALF_FORMAT = Format.from_dict("RegressCacheHalf",
                                     {"seq": "int32", "payload": "float64[]"})

_CACHE_QUALITY_FILE = """
attribute rtt
history 1
handler RegressCacheHalf slow_stride
0.0 inf - RegressCacheHalf
"""


def _slow_stride_handler(value, app_format, wire_format, registry,
                         attributes):
    """A deliberately Python-level quality handler: per-element arithmetic
    the cache can win back (real deployments put image resizing here)."""
    payload = value["payload"]
    halved = [payload[i] * 0.5 + float(i % 7)
              for i in range(0, len(payload), 2)]
    return {"seq": value["seq"], "payload": halved}


def _cache_service(registry: FormatRegistry, payload_elements: int,
                   response_cache: bool) -> Tuple[SoapBinService, List[int]]:
    """The section's service, and a one-element list counting the runs of
    its ``GetData`` handler."""
    from ..core import HandlerRegistry
    for fmt in (CACHE_REQUEST_FORMAT, CACHE_FULL_FORMAT, CACHE_HALF_FORMAT):
        registry.register(fmt)
    handlers = HandlerRegistry()
    handlers.register("slow_stride", _slow_stride_handler)
    service = SoapBinService(registry, quality_text=_CACHE_QUALITY_FILE,
                             handlers=handlers,
                             response_cache=response_cache)
    result = {"seq": 7,
              "payload": [float(i) * 0.25 for i in range(payload_elements)]}
    handler_runs = [0]

    def get_data(params):
        handler_runs[0] += 1
        return result

    service.add_operation("GetData", CACHE_REQUEST_FORMAT, CACHE_FULL_FORMAT,
                          get_data, pure=True)
    return service, handler_runs


def _cache_rpc_pass(payload_elements: int, calls: int,
                    response_cache: bool) -> Dict[str, Any]:
    """p50/ops_s of the quality-managed RPC, cold path vs cache tier.

    Every call asks for the same value, so with the cache on the steady
    state is all hits — the pure operation handler runs once, the quality
    handler once; with it off every response re-runs both and the encode —
    the exact work ROADMAP item 3 calls out.
    """
    registry = FormatRegistry()
    service, handler_runs = _cache_service(registry, payload_elements,
                                           response_cache)
    server = serve_endpoint(service.endpoint,
                            quality_stats=service.quality_stats)
    pool = HttpConnectionPool()
    value = {"n": payload_elements}
    try:
        channel = PooledHttpChannel(server.address, pool=pool)
        client = SoapBinClient(channel, registry)
        for _ in range(min(10, calls)):
            client.call("GetData", value, CACHE_REQUEST_FORMAT,
                        CACHE_FULL_FORMAT)
        latencies: List[float] = []
        for _ in range(calls):
            start = time.perf_counter()
            client.call("GetData", value, CACHE_REQUEST_FORMAT,
                        CACHE_FULL_FORMAT)
            latencies.append(time.perf_counter() - start)
        quality = service.quality_stats() or {}
    finally:
        pool.close()
        server.close()
    return {
        "p50_call_latency_s": percentile(latencies, 50),
        "p95_call_latency_s": percentile(latencies, 95),
        "ops_s": len(latencies) / sum(latencies),
        "cache_stats": quality.get("cache"),
        "handler_runs": handler_runs[0],
    }


def _cache_304_pass(payload_elements: int, calls: int) -> Dict[str, Any]:
    """Raw-HTTP conditional requests: a cache-hit full response vs a
    ``304 Not Modified`` round-trip that skips encode and body bytes."""
    from ..core.modes import HEADER_CLIENT_ID, PBIO_CONTENT_TYPE
    from ..http11 import Headers
    from ..pbio import PbioSession

    registry = FormatRegistry()
    service, _ = _cache_service(registry, payload_elements,
                                response_cache=True)
    server = serve_endpoint(service.endpoint,
                            quality_stats=service.quality_stats)
    session = PbioSession(registry)
    value = {"n": payload_elements}
    # first pack carries the announcement; the second is the steady-state
    # data-only request every timed round-trip replays
    first_blob = session.pack_bytes(CACHE_REQUEST_FORMAT, value)
    steady_blob = session.pack_bytes(CACHE_REQUEST_FORMAT, value)
    try:
        with HttpConnection(server.address) as conn:
            base = Headers([(HEADER_CLIENT_ID, "bench-cache-304")])
            first = conn.post("/", first_blob, PBIO_CONTENT_TYPE,
                              headers=Headers(list(base)))
            assert first.status == 200, first.status
            etag = first.headers.get("ETag")
            assert etag, "quality cache did not stamp an ETag"
            conditional = Headers(list(base))
            conditional.set("If-None-Match", etag)

            def timed(headers: Headers, expected_status: int,
                      n: int) -> List[float]:
                out: List[float] = []
                for _ in range(n):
                    start = time.perf_counter()
                    resp = conn.post("/", steady_blob, PBIO_CONTENT_TYPE,
                                     headers=Headers(list(headers)))
                    out.append(time.perf_counter() - start)
                    assert resp.status == expected_status, resp.status
                return out

            timed(base, 200, min(10, calls))        # warmup
            full = timed(base, 200, calls)
            not_modified = timed(conditional, 304, calls)
            full_bytes = len(first.body)
        responses_304 = server.responses_304
    finally:
        server.close()
    return {
        "full_response_bytes": full_bytes,
        "full_response_p50_s": percentile(full, 50),
        "full_response_ops_s": len(full) / sum(full),
        "not_modified_p50_s": percentile(not_modified, 50),
        "not_modified_ops_s": (len(not_modified) / sum(not_modified)),
        "responses_304": responses_304,
    }


def _bench_cache(smoke: bool) -> Dict[str, Any]:
    payload_elements = 8192
    calls = 60 if smoke else 400
    cold = _cache_rpc_pass(payload_elements, calls, response_cache=False)
    hit = _cache_rpc_pass(payload_elements, calls, response_cache=True)
    cond = _cache_304_pass(payload_elements, calls)
    out: Dict[str, Any] = {
        "payload_elements": payload_elements,
        "calls": calls,
        "cold_p50_call_latency_s": cold["p50_call_latency_s"],
        "cold_ops_s": cold["ops_s"],
        "hit_p50_call_latency_s": hit["p50_call_latency_s"],
        "hit_ops_s": hit["ops_s"],
        "hit_speedup_vs_cold": (cold["p50_call_latency_s"]
                                / hit["p50_call_latency_s"]
                                if hit["p50_call_latency_s"] else 0.0),
        "cache_stats": hit["cache_stats"],
        # counts over the hit pass (warm-up included): what the tier-1
        # smoke asserts instead of comparing wall clocks
        "hit_handler_runs": hit["handler_runs"],
        "hit_result_hits": hit["cache_stats"]["result_hits"],
        "cold_handler_runs": cold["handler_runs"],
    }
    out.update(cond)
    out["not_modified_speedup_vs_full"] = (
        cond["full_response_p50_s"] / cond["not_modified_p50_s"]
        if cond["not_modified_p50_s"] else 0.0)
    return out


#: Section name -> builder.  Each builder takes ``smoke`` and returns the
#: section document.
SECTIONS: Dict[str, Callable[[bool], Any]] = {
    "codec": lambda smoke: _bench_codecs(0.05 if smoke else 0.5),
    "wire": lambda smoke: _bench_wire(0.05 if smoke else 0.5, smoke),
    "xlate": lambda smoke: _bench_xlate(0.05 if smoke else 0.5),
    "rpc": lambda smoke: _bench_rpc(150 if smoke else 1000,
                                    payload_elements=256),
    "concurrency": _bench_concurrency,
    "scaleout": _bench_scaleout,
    "cache": _bench_cache,
}


def run(smoke: bool = False,
        sections: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run the harness; returns the result document.

    ``sections`` restricts the run to the named sections (default: all).
    """
    if sections is None:
        names = list(SECTIONS)
    else:
        unknown = [name for name in sections if name not in SECTIONS]
        if unknown:
            raise ValueError(
                f"unknown section(s) {unknown}: choose from "
                f"{list(SECTIONS)}")
        names = list(dict.fromkeys(sections))    # dedupe, keep order
    result: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
    }
    for name in names:
        result[name] = SECTIONS[name](smoke)
    return result


def write_report(path: str, smoke: bool = False,
                 sections: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run the harness and write the JSON document to ``path``.

    The file is opened before any measurement runs, so an unwritable path
    fails immediately instead of after minutes of benchmarking.  With a
    ``sections`` subset, sections already present in an existing report at
    ``path`` are carried over unchanged — only the named ones are
    re-measured.
    """
    carried: Dict[str, Any] = {}
    if sections is not None and os.path.exists(path):
        try:
            with open(path) as fh:
                carried = json.load(fh)
        except (OSError, ValueError):
            carried = {}
    with open(path, "w") as fh:
        result = run(smoke=smoke, sections=sections)
        for name in SECTIONS:
            if name not in result and name in carried:
                result[name] = carried[name]
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="SOAP-binQ performance regression harness")
    parser.add_argument("--out", default="BENCH_headline.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="fast mode (<30 s) for CI smoke runs")
    parser.add_argument("--sections", nargs="+", metavar="NAME",
                        choices=sorted(SECTIONS),
                        help="run only the named sections (e.g. "
                             "'--sections scaleout'); other sections are "
                             "carried over from an existing --out file")
    args = parser.parse_args(argv)
    try:
        result = write_report(args.out, smoke=args.smoke,
                              sections=args.sections)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    ran = set(args.sections if args.sections else SECTIONS)
    print(f"wrote {args.out} ({result['mode']} mode, "
          f"sections: {' '.join(sorted(ran))})")
    if "codec" in ran:
        speed = result["codec"]["float64_array_10k_list"]
        print(f"  float64[10k] encode: {speed['encode_ops_s']:,.0f} ops/s "
              f"({speed['encode_speedup_vs_interp']:.1f}x over field walk)")
    if "xlate" in ran:
        xl = result["xlate"]["int32_array_10k"]
        print(f"  int32[10k] to_xml: {xl['to_xml_ops_s']:,.0f} ops/s "
              f"({xl['to_xml_speedup_vs_tree']:.1f}x over tree)")
    if "wire" in ran:
        small = result["wire"]["shapes"]["small_int_heavy"]
        stream = result["wire"]["streaming"]
        print(f"  wire compact: small-int {small['native_bytes']:,} -> "
              f"{small['compact_bytes']:,} bytes "
              f"({small['compact_shrink']:.1f}x smaller)")
        print(f"  wire streaming: {stream['payload_bytes'] >> 20} MiB "
              f"echoed, RSS +{stream['rss_growth_kb']} KiB "
              f"({stream['rss_growth_ratio']:.3f} of payload)")
    if "rpc" in ran:
        print(f"  rpc p50: "
              f"{result['rpc']['p50_call_latency_s'] * 1e3:.3f} ms")
    if "concurrency" in ran:
        conc = result["concurrency"]
        print(f"  pipelined depth-8: {conc['pipelined_depth8_ops_s']:,.0f} "
              f"ops/s ({conc['pipelined_depth8_speedup_vs_serial']:.1f}x "
              f"over serial)")
        hold = conc["idle_hold"]
        print(f"  {hold['connections_held']} idle conns held: active rpc "
              f"p50 {hold['active_p50_latency_s'] * 1e3:.3f} ms, "
              f"+{hold['threads_added']} threads")
    if "cache" in ran:
        ca = result["cache"]
        print(f"  quality cache: cold p50 "
              f"{ca['cold_p50_call_latency_s'] * 1e3:.3f} ms, hit p50 "
              f"{ca['hit_p50_call_latency_s'] * 1e3:.3f} ms "
              f"({ca['hit_speedup_vs_cold']:.1f}x), 304 p50 "
              f"{ca['not_modified_p50_s'] * 1e3:.3f} ms "
              f"({ca['not_modified_speedup_vs_full']:.1f}x over full)")
    if "scaleout" in ran:
        sc = result["scaleout"]
        print(f"  fleet ({sc['workers']} workers on {sc['cores']} cores, "
              f"{sc['mode']}): rpc {sc['fleet_rpc_ops_s']:,.0f} ops/s "
              f"({sc['scaling_efficiency']:.2f} efficiency), "
              f"pipelined depth-8 "
              f"{sc['fleet_pipelined_depth8_speedup_vs_serial']:.1f}x "
              f"over serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
