"""Figure/table computations for the paper's evaluation section.

Each ``fig*``/``table*`` function regenerates the data behind one figure or
table of the paper.  Marshalling costs are *measured* (real Python
execution); transmission costs come from the deterministic link models —
the substitution DESIGN.md documents for the missing 2004 testbed.  Shapes
(who wins, by what factor, where the crossovers are) are the reproduction
target, not absolute times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..compress import get_codec
from ..core import ConversionHandler
from ..http11 import Request, RequestParser, Response, ResponseParser
from ..netsim import LinkModel, adsl, lan_100mbps
from ..pbio import CodecCompiler, Format, FormatRegistry
from ..sunrpc import (CallHeader, decode_call, decode_reply, encode_call,
                      encode_reply)
from ..sunrpc.rpc import SUCCESS
from . import datagen
from .timers import measure

#: The two links of every microbenchmark figure.  Jitter is disabled here:
#: the microbenchmark figures report averages (the paper: "variances are
#: less than 1% on the average"), so the deterministic mean link is the
#: faithful model; the application figures (8/9) keep jitter on.
LINKS: Dict[str, Callable[[], LinkModel]] = {
    "100Mbps": lambda: lan_100mbps(jitter_s=0.0),
    "ADSL": lambda: adsl(jitter_s=0.0),
}


# ----------------------------------------------------------------------
# shared measurement core
# ----------------------------------------------------------------------

@dataclass
class RepresentationCosts:
    """Measured costs of one workload in each representation."""

    label: str
    native_bytes: int
    pbio_bytes: int
    xml_bytes: int
    compressed_bytes: int
    pbio_encode_s: float
    pbio_decode_s: float
    xml_generate_s: float
    xml_parse_s: float
    compress_s: float
    decompress_s: float


def representation_costs(label: str, value: Dict[str, Any], fmt: Format,
                         registry: FormatRegistry, repeat: int = 3,
                         codec_name: str = "zlib") -> RepresentationCosts:
    """Measure every conversion cost for one (value, format) workload."""
    handler = ConversionHandler(fmt, registry)
    codec = get_codec(codec_name)

    payload = handler.to_binary(value)
    xml_text = handler.to_xml(value)
    xml_bytes_ = xml_text.encode("utf-8")
    compressed = codec.compress(xml_bytes_)

    return RepresentationCosts(
        label=label,
        native_bytes=datagen.native_size_bytes(value),
        pbio_bytes=len(payload),
        xml_bytes=len(xml_bytes_),
        compressed_bytes=len(compressed),
        pbio_encode_s=measure(lambda: handler.to_binary(value), repeat),
        pbio_decode_s=measure(lambda: handler.from_binary(payload), repeat),
        xml_generate_s=measure(lambda: handler.to_xml(value), repeat),
        xml_parse_s=measure(lambda: handler.from_xml(xml_text), repeat),
        compress_s=measure(lambda: codec.compress(xml_bytes_), repeat),
        decompress_s=measure(lambda: codec.decompress(compressed), repeat),
    )


def array_workloads(sizes: Optional[List[int]] = None,
                    repeat: int = 3) -> List[RepresentationCosts]:
    """The scientific (int array) sweep."""
    registry = FormatRegistry()
    fmt = datagen.register_array_format(registry)
    out = []
    for n in sizes or datagen.ARRAY_SIZES:
        value = datagen.int_array_value(n)
        out.append(representation_costs(f"{n} ints", value, fmt, registry,
                                        repeat))
    return out


def struct_workloads(depths: Optional[List[int]] = None,
                     repeat: int = 3) -> List[RepresentationCosts]:
    """The business (nested struct) sweep."""
    out = []
    for depth in depths or datagen.STRUCT_DEPTHS:
        registry = FormatRegistry()
        fmt = datagen.register_nested_formats(registry, depth)
        value = datagen.nested_struct_value(depth)
        out.append(representation_costs(f"depth {depth}", value, fmt,
                                        registry, repeat))
    return out


def wide_struct_workloads(depths: Optional[List[int]] = None,
                          repeat: int = 3) -> List[RepresentationCosts]:
    """Bushy struct sweep (exponential XML growth ablation)."""
    out = []
    for depth in depths or [1, 2, 3, 4, 5]:
        registry = FormatRegistry()
        formats = datagen.wide_nested_struct_formats(depth)
        for fmt in formats:
            registry.register(fmt)
        value = datagen.wide_nested_struct_value(depth)
        out.append(representation_costs(f"depth {depth} x3", value,
                                        formats[-1], registry, repeat))
    return out


# ----------------------------------------------------------------------
# Fig. 4 — Sun RPC vs SOAP-bin
# ----------------------------------------------------------------------

@dataclass
class Fig4Row:
    label: str
    sunrpc_cpu_s: float
    sunrpc_wire_bytes: int
    soapbin_cpu_s: float
    soapbin_wire_bytes: int

    def overall(self, which: str, link: LinkModel) -> float:
        """Overall time = measured CPU + modelled wire time.

        The SOAP-bin side is additionally charged a TCP connection setup
        (1.5 RTT = 3 one-way latencies) per call: the paper's Soup-based
        HTTP transport connected per transaction, and the paper attributes
        Sun RPC's struct-case win (up to ~5.4x) mainly to "SOAP-bin's use
        of HTTP for its transactions".  Sun RPC holds its connection open.
        """
        if which == "sunrpc":
            cpu, nbytes = self.sunrpc_cpu_s, self.sunrpc_wire_bytes
            setup = 0.0
        else:
            cpu, nbytes = self.soapbin_cpu_s, self.soapbin_wire_bytes
            setup = 3.0 * link.latency_s
        return cpu + setup + link.transfer_time(nbytes, 0.0)

    def ratio(self, link: LinkModel) -> float:
        """SOAP-bin / Sun RPC overall-time ratio (paper: up to ~5.4)."""
        return self.overall("soapbin", link) / self.overall("sunrpc", link)


def _sunrpc_roundtrip(args: bytes, repeat: int) -> (float, int):
    """Measured CPU cost + wire bytes of one Sun RPC call/reply pair."""
    header = CallHeader(xid=1, prog=0x20000001, vers=1, proc=1)
    call_msg = encode_call(header, args)
    reply_msg = encode_reply(1, SUCCESS, args)

    def roundtrip():
        call = encode_call(header, args)
        _, decoded_args = decode_call(call)
        reply = encode_reply(1, SUCCESS, decoded_args)
        decode_reply(reply)

    cpu = measure(roundtrip, repeat)
    wire = len(call_msg) + len(reply_msg) + 8  # two record-mark words
    return cpu, wire


def _soapbin_roundtrip(payload: bytes, repeat: int) -> (float, int):
    """Measured CPU cost + wire bytes of one SOAP-bin HTTP exchange
    (PBIO payload inside HTTP request/response messages)."""
    request = Request(method="POST", target="/service", body=payload)
    request.headers.set("Content-Type", "application/x-pbio")
    request.headers.set("Host", "127.0.0.1:8080")
    request_bytes = request.to_bytes()
    response = Response(status=200, body=payload)
    response.headers.set("Content-Type", "application/x-pbio")
    response_bytes = response.to_bytes()

    def roundtrip():
        raw = request.to_bytes()
        parsed = RequestParser().read_message(_Wire(raw))
        out = Response(status=200, body=parsed.body)
        out.headers.set("Content-Type", "application/x-pbio")
        ResponseParser().read_message(_Wire(out.to_bytes()))

    cpu = measure(roundtrip, repeat)
    return cpu, len(request_bytes) + len(response_bytes)


class _Wire:
    """One message's bytes, read the way a socket hands them out."""

    def __init__(self, data: bytes) -> None:
        self._view = memoryview(data)

    def recv(self, n: int) -> bytes:
        out, self._view = self._view[:n], self._view[n:]
        return bytes(out)

    def recv_into(self, buffer) -> int:
        n = min(len(buffer), len(self._view))
        buffer[:n] = self._view[:n]
        self._view = self._view[n:]
        return n


def fig4_rows(kind: str, repeat: int = 3) -> List[Fig4Row]:
    """``kind`` is ``"arrays"`` (Fig. 4a) or ``"structs"`` (Fig. 4b)."""
    registry = FormatRegistry()
    compiler = CodecCompiler(registry)
    rows = []
    if kind == "arrays":
        fmt = datagen.register_array_format(registry)
        encoder = compiler.encoder(fmt)
        for n in datagen.ARRAY_SIZES:
            value = datagen.int_array_value(n)
            # Sun RPC marshals the same ints through XDR
            from ..sunrpc import XdrEncoder
            enc = XdrEncoder()
            enc.pack_int_array([int(v) for v in value["data"]])
            args = enc.getvalue()
            rpc_cpu, rpc_wire = _sunrpc_roundtrip(args, repeat)
            payload = encoder(value)
            bin_cpu, bin_wire = _soapbin_roundtrip(payload, repeat)
            # SOAP-bin additionally pays PBIO encode/decode; Sun RPC's XDR
            # costs are inside _sunrpc_roundtrip already.
            pbio_cpu = measure(lambda: encoder(value), repeat) + measure(
                lambda: compiler.decoder(fmt)(payload, 0), repeat)
            rows.append(Fig4Row(f"{n} ints", rpc_cpu, rpc_wire,
                                bin_cpu + 2 * pbio_cpu, bin_wire))
    elif kind == "structs":
        from ..sunrpc import XdrEncoder
        for depth in datagen.STRUCT_DEPTHS:
            fmt = datagen.register_nested_formats(registry, depth)
            value = datagen.nested_struct_value(depth)
            encoder = compiler.encoder(fmt)
            payload = encoder(value)

            def xdr_encode(node, level=depth):
                enc = XdrEncoder()

                def walk(n, lv):
                    enc.pack_int(n["id"])
                    enc.pack_uint(n["flag"])
                    if lv == 0:
                        enc.pack_double(n["amount"])
                    else:
                        enc.pack_int(n["seq"])
                        walk(n["child"], lv - 1)

                walk(node, level)
                return enc.getvalue()

            args = xdr_encode(value)
            rpc_cpu, rpc_wire = _sunrpc_roundtrip(args, repeat)
            bin_cpu, bin_wire = _soapbin_roundtrip(payload, repeat)
            pbio_cpu = measure(lambda: encoder(value), repeat) + measure(
                lambda: compiler.decoder(fmt)(payload, 0), repeat)
            rows.append(Fig4Row(f"depth {depth}", rpc_cpu, rpc_wire,
                                bin_cpu + 2 * pbio_cpu, bin_wire))
    else:
        raise ValueError("kind must be 'arrays' or 'structs'")
    return rows


# ----------------------------------------------------------------------
# Figs. 5/6 — marshalling/unmarshalling + transmission cost breakdowns
# ----------------------------------------------------------------------

def cost_series(costs: List[RepresentationCosts],
                link: LinkModel) -> List[Dict[str, float]]:
    """Per-workload totals for the three paths of Figs. 5/6:

    * ``pbio`` — native->PBIO, transfer, PBIO->native;
    * ``xml`` — direct XML generation, transfer, parse;
    * ``xml_compressed`` — XML generation, compress, transfer, decompress,
      parse.
    """
    out = []
    for c in costs:
        out.append({
            "label": c.label,
            "pbio": (c.pbio_encode_s
                     + link.transfer_time(c.pbio_bytes)
                     + c.pbio_decode_s),
            "xml": (c.xml_generate_s
                    + link.transfer_time(c.xml_bytes)
                    + c.xml_parse_s),
            "xml_compressed": (c.xml_generate_s + c.compress_s
                               + link.transfer_time(c.compressed_bytes)
                               + c.decompress_s + c.xml_parse_s),
            "pbio_bytes": c.pbio_bytes,
            "xml_bytes": c.xml_bytes,
            "compressed_bytes": c.compressed_bytes,
        })
    return out


def xml_source_series(costs: List[RepresentationCosts],
                      link: LinkModel) -> List[Dict[str, float]]:
    """Fig. 6's 'costs with XML data' comparison: the data already *is* XML.

    * ``convert`` — XML->PBIO conversion + transfer + PBIO->XML;
    * ``direct_xml`` — just send the XML text;
    * ``compressed`` — compress the XML, send, decompress.
    """
    out = []
    for c in costs:
        out.append({
            "label": c.label,
            "convert": (c.xml_parse_s + c.pbio_encode_s
                        + link.transfer_time(c.pbio_bytes)
                        + c.pbio_decode_s + c.xml_generate_s),
            "direct_xml": link.transfer_time(c.xml_bytes),
            "compressed": (c.compress_s
                           + link.transfer_time(c.compressed_bytes)
                           + c.decompress_s),
        })
    return out


# ----------------------------------------------------------------------
# Fig. 7 — the three modes of operation
# ----------------------------------------------------------------------

def mode_series(costs: List[RepresentationCosts],
                link: LinkModel) -> List[Dict[str, float]]:
    """Overall cost in each SOAP-bin operating mode.

    * high performance — PBIO encode + transfer + decode (no XML at all);
    * interoperability — one side converts XML just-in-time;
    * compatibility — XML at both ends, binary on the wire.
    """
    out = []
    for c in costs:
        transfer = link.transfer_time(c.pbio_bytes)
        high = c.pbio_encode_s + transfer + c.pbio_decode_s
        interop = c.xml_parse_s + high
        compat = interop + c.xml_generate_s
        out.append({"label": c.label, "high_performance": high,
                    "interoperability": interop, "compatibility": compat})
    return out


# ----------------------------------------------------------------------
# Table I — airline event rates
# ----------------------------------------------------------------------

def table1_rows(repeat: int = 5,
                codec_name: str = "zlib") -> List[Dict[str, Any]]:
    """Event rates for the airline application over the ADSL link."""
    from ..apps.airline import AirlineDataset, event_encodings

    dataset = AirlineDataset()
    value = dataset.catering_for("DL100")
    link = adsl(jitter_s=0.0)
    rows = []
    for name, enc in event_encodings().items():
        blob = enc.encode(value)
        encode_s = measure(lambda: enc.encode(value), repeat)
        decode_s = measure(lambda: enc.decode(blob), repeat)
        per_event = encode_s + link.transfer_time(len(blob)) + decode_s
        rows.append({"protocol": name, "size_bytes": len(blob),
                     "events_per_sec": 1.0 / per_event})
    return rows


# ----------------------------------------------------------------------
# headline — transmission-time improvement at 1 MB
# ----------------------------------------------------------------------

def headline_improvement(n_ints: int = 262_144,
                         repeat: int = 3) -> Dict[str, Any]:
    """The abstract's claim: "message transmission times are improved by a
    factor of about 15 for 1MByte message sizes".

    Compares the full message path (marshal + transfer + unmarshal) for a
    1 MB native array sent as XML SOAP vs SOAP-bin.
    """
    registry = FormatRegistry()
    fmt = datagen.register_array_format(registry)
    value = datagen.int_array_value(n_ints)  # 262144 * 4 B = 1 MiB
    costs = representation_costs("1MB", value, fmt, registry, repeat)
    out: Dict[str, Any] = {"native_bytes": costs.native_bytes,
                           "xml_bytes": costs.xml_bytes,
                           "pbio_bytes": costs.pbio_bytes}
    for name, make_link in LINKS.items():
        link = make_link()
        xml_total = (costs.xml_generate_s + link.transfer_time(costs.xml_bytes)
                     + costs.xml_parse_s)
        bin_total = (costs.pbio_encode_s
                     + link.transfer_time(costs.pbio_bytes)
                     + costs.pbio_decode_s)
        out[name] = {"xml_s": xml_total, "soap_bin_s": bin_total,
                     "factor": xml_total / bin_total}
    return out


# ----------------------------------------------------------------------
# remote visualization response time
# ----------------------------------------------------------------------

def remoteviz_response(repeat: int = 5) -> Dict[str, float]:
    """§IV-C.4: ~2400 us response for ~16 KB over 100 Mbps."""
    from ..apps.remoteviz import DisplayClient, ServicePortal
    from ..netsim import VirtualClock
    from ..transport import SimChannel

    portal = ServicePortal()
    clock = VirtualClock()
    channel = SimChannel(portal.endpoint, lan_100mbps(), clock)
    client = DisplayClient(channel, portal.registry, clock=clock)
    client.refresh()  # announcement + warmup
    samples = []
    for _ in range(repeat):
        before = clock.now()
        out = client.refresh()
        samples.append(clock.now() - before)
    return {"response_time_s": sum(samples) / len(samples),
            "svg_bytes": len(out["svg"]),
            "wire_bytes": channel.log[-1].response_bytes}
