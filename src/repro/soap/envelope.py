"""SOAP 1.1 envelope construction and parsing.

Envelopes are plain :class:`~repro.xmlcore.tree.Element` trees; this module
knows the SOAP namespace conventions — Envelope/Header/Body structure,
Fault encoding — and nothing about parameter marshalling (that lives in
:mod:`repro.soap.encoding`).
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..xmlcore import (BINQ_NS, Element, SOAP_ENV_NS, XmlPullParser, parse,
                       tostring)
from ..xmlcore.errors import XmlParseError
from ..xmlcore.tokenizer import START
from .errors import SoapDecodingError, SoapFault
from .xlate import _SIMPLE_TAG_RX

#: Prefix used for the SOAP envelope namespace in produced documents.
ENV_PREFIX = "SOAP-ENV"

#: The exact serialized framing this stack emits, used by the streaming
#: fast path to frame/deframe envelopes without building a tree.  Byte
#: parity with ``envelope_to_bytes(build_envelope(...))`` is enforced by
#: the differential tests.
XML_DECL = '<?xml version="1.0" encoding="utf-8"?>'
ENVELOPE_OPEN = f'<{ENV_PREFIX}:Envelope xmlns:{ENV_PREFIX}="{SOAP_ENV_NS}">'
ENVELOPE_CLOSE = f'</{ENV_PREFIX}:Envelope>'
HEADER_OPEN = f'<{ENV_PREFIX}:Header>'
HEADER_CLOSE = f'</{ENV_PREFIX}:Header>'
BODY_OPEN = f'<{ENV_PREFIX}:Body>'
BODY_CLOSE = f'</{ENV_PREFIX}:Body>'

#: Exact head/tail of a fast-path envelope document; a Header block, if
#: any, sits between ``ENVELOPE_PREFIX`` and ``BODY_OPEN``.
ENVELOPE_PREFIX = XML_DECL + ENVELOPE_OPEN
FAST_PREFIX = ENVELOPE_PREFIX + BODY_OPEN
FAST_SUFFIX = BODY_CLOSE + ENVELOPE_CLOSE

#: One Header entry as the quality layer reads it: its local name and its
#: attributes.
HeaderEntry = Tuple[str, Dict[str, str]]

#: An attribute value that reads as itself: printable ASCII without '"',
#: '&' or '<' (no entity, no whitespace to normalize, no illegal char).
_PLAIN_VALUE = "([ !#-%'-;=-~]*)"

#: One ``binq`` quality entry exactly as this stack writes it
#: (``build_attribute_headers``, ``message_type_header_xml``).
_BINQ_ENTRY_RX = re.compile(
    f'<binq:(attribute|message-type) xmlns:binq="{re.escape(BINQ_NS)}"'
    f'(?: name="{_PLAIN_VALUE}")?(?: value="{_PLAIN_VALUE}")?/>')


def envelope_bytes_from_xml(body_xml: str, header_xml: str = "") -> bytes:
    """Frame pre-rendered body (and header) fragments as envelope bytes.

    The string fast path of :func:`build_envelope` +
    :func:`envelope_to_bytes`: fragments produced by the compiled XML
    plans (:mod:`repro.soap.xlate`) are wrapped in the exact serialized
    framing the tree path produces, without constructing any
    :class:`~repro.xmlcore.tree.Element`.
    """
    header = f"{HEADER_OPEN}{header_xml}{HEADER_CLOSE}" if header_xml else ""
    body = f"{BODY_OPEN}{body_xml}{BODY_CLOSE}" if body_xml \
        else f"<{ENV_PREFIX}:Body/>"
    return (f"{XML_DECL}<{ENV_PREFIX}:Envelope xmlns:{ENV_PREFIX}="
            f'"{SOAP_ENV_NS}">{header}{body}{ENVELOPE_CLOSE}'
            ).encode("utf-8")


class FastEnvelope(NamedTuple):
    """An envelope as :func:`read_fast_envelope` reads it."""

    #: ``(local name, attributes)`` of each Header entry
    entries: List[HeaderEntry]
    #: local name of the Body's first element
    body_name: str
    #: the Body's inner XML, for a compiled Body plan
    body_xml: str


def read_fast_envelope(payload: bytes) -> Optional[FastEnvelope]:
    """Read an envelope in this stack's exact serialized framing without
    building a tree, or return ``None`` for the tree path.

    The Header, if any, runs from the exact prefix to the first
    ``</SOAP-ENV:Header>``.  A Header made only of ``binq`` entries in
    this stack's exact framing is read with one compiled pattern
    (:data:`_BINQ_ENTRY_RX`); any other is read with the pull parser.
    The pull parser and the tree share one tokenizer, so a fragment it
    reads holds the entries the tree finds; one it refuses (say, a
    comment cut short at a ``</SOAP-ENV:Header>`` inside it) goes to the
    tree path, as do foreign prefixes, extra whitespace and a Body that
    does not open with a plain start tag.  Entry content is read past, as
    the tree path ignores it too.  So the fast deframe never changes
    observable behaviour; the Body itself is checked by the caller's
    Body plan.
    """
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not (text.startswith(ENVELOPE_PREFIX) and text.endswith(FAST_SUFFIX)):
        return None
    pos = len(ENVELOPE_PREFIX)
    header_xml = ""
    if text.startswith(HEADER_OPEN, pos):
        start = pos + len(HEADER_OPEN)
        pos = text.find(HEADER_CLOSE, start)
        if pos < 0:
            return None
        header_xml = text[start:pos]
        pos += len(HEADER_CLOSE)
    if not text.startswith(BODY_OPEN, pos):
        return None
    body_xml = text[pos + len(BODY_OPEN):-len(FAST_SUFFIX)]
    match = _SIMPLE_TAG_RX.match(body_xml)
    if match is None:
        return None
    entries = _header_entries(header_xml)
    if entries is None:
        return None
    return FastEnvelope(entries, match.group(1).rsplit(":", 1)[-1], body_xml)


def _header_entries(header_xml: str) -> Optional[List[HeaderEntry]]:
    """The Header's top-level entries, or ``None`` where the pull parser
    refuses the fragment."""
    entries: List[HeaderEntry] = []
    pos = 0
    while pos < len(header_xml):
        m = _BINQ_ENTRY_RX.match(header_xml, pos)
        if m is None:
            return _pull_header_entries(header_xml)
        local, name, value = m.groups()
        attrs = {"xmlns:binq": BINQ_NS}
        if name is not None:
            attrs["name"] = name
        if value is not None:
            attrs["value"] = value
        entries.append((local, attrs))
        pos = m.end()
    return entries


def _pull_header_entries(header_xml: str) -> Optional[List[HeaderEntry]]:
    """:func:`_header_entries` read with the pull parser."""
    entries: List[HeaderEntry] = []
    try:
        pp = XmlPullParser(header_xml)
        while not pp.at_eof():
            ev = pp.next()
            if ev.kind == START and ev.depth == 1:
                entries.append((ev.name.rsplit(":", 1)[-1], ev.attrs))
    except XmlParseError:
        return None
    return entries


def build_envelope(body_children: List[Element],
                   header_children: Optional[List[Element]] = None) -> Element:
    """Assemble an Envelope around the given Body (and Header) entries."""
    envelope = Element(f"{ENV_PREFIX}:Envelope",
                       {f"xmlns:{ENV_PREFIX}": SOAP_ENV_NS})
    if header_children:
        header = envelope.subelement(f"{ENV_PREFIX}:Header")
        for child in header_children:
            header.append(child)
    body = envelope.subelement(f"{ENV_PREFIX}:Body")
    for child in body_children:
        body.append(child)
    return envelope


def envelope_to_bytes(envelope: Element) -> bytes:
    """Serialize an envelope for the wire (with XML declaration)."""
    return tostring(envelope, xml_declaration=True).encode("utf-8")


class ParsedEnvelope:
    """The result of :func:`parse_envelope`: header entries + body entries."""

    def __init__(self, root: Element) -> None:
        self.root = root
        if root.local_name != "Envelope":
            raise SoapDecodingError(
                f"document root is <{root.tag}>, not a SOAP Envelope")
        self.header: Optional[Element] = root.find("Header")
        body = root.find("Body")
        if body is None:
            raise SoapDecodingError("SOAP Envelope has no Body")
        self.body: Element = body

    @property
    def body_entries(self) -> List[Element]:
        return self.body.elements()

    @property
    def header_entries(self) -> List[Element]:
        if self.header is None:
            return []
        return self.header.elements()

    @property
    def header_pairs(self) -> List[HeaderEntry]:
        """The header entries in :attr:`FastEnvelope.entries`' form."""
        return [(el.local_name, el.attrib) for el in self.header_entries]

    def first_body_element(self) -> Element:
        entries = self.body_entries
        if not entries:
            raise SoapDecodingError("SOAP Body is empty")
        return entries[0]

    def fault(self) -> Optional[SoapFault]:
        """Return the Fault carried by the Body, if any."""
        fault_el = self.body.find("Fault")
        if fault_el is None:
            return None
        code = fault_el.findtext("faultcode", "Server")
        string = fault_el.findtext("faultstring", "unknown fault")
        detail_el = fault_el.find("detail")
        detail = detail_el.text if detail_el is not None else None
        return SoapFault(code.rsplit(":", 1)[-1], string, detail)

    def raise_if_fault(self) -> None:
        fault = self.fault()
        if fault is not None:
            raise fault


def parse_envelope(payload: bytes) -> ParsedEnvelope:
    """Parse wire bytes into a :class:`ParsedEnvelope`."""
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SoapDecodingError(f"SOAP payload is not UTF-8: {exc}")
    return ParsedEnvelope(parse(text))


def build_fault(fault: SoapFault) -> Element:
    """Encode a :class:`SoapFault` as a Body entry."""
    fault_el = Element(f"{ENV_PREFIX}:Fault")
    fault_el.subelement("faultcode", text=f"{ENV_PREFIX}:{fault.faultcode}")
    fault_el.subelement("faultstring", text=fault.faultstring)
    if fault.detail:
        fault_el.subelement("detail", text=fault.detail)
    return fault_el


def fault_envelope(fault: SoapFault) -> bytes:
    """A complete serialized fault response."""
    return envelope_to_bytes(build_envelope([build_fault(fault)]))
