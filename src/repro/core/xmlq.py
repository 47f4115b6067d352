"""Quality management over the XML SOAP path, via SOAP header entries.

§III-B.b ends with: the zero-padding scheme "permits legacy applications to
be integrated seamlessly with SOAP-binQ, but it could be removed by
transmitting quality attributes along with SOAP communications and then
using them to match sender with receiver actions."

This module implements that alternative for XML clients:

* requests carry ``<binq:attribute name=... value=...>`` SOAP header
  entries (the client's RTT estimate, or any application attribute);
* the server's quality policy reacts exactly as it does for binary
  clients, and the response carries a ``<binq:message-type>`` header
  naming the (possibly reduced) message type actually sent;
* :class:`XmlQualityClient` reads that header, decodes the reduced fields
  and projects them up to the application's type — quality-aware end to
  end, without a single binary byte on the wire.

The namespace is :data:`repro.xmlcore.names.BINQ_NS`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..channel import Channel
from ..clock import Clock, WallClock
from ..pbio import Format, FormatRegistry
from ..soap.client import SoapClient
from ..soap.encoding import decode_fields
from ..soap.envelope import (ParsedEnvelope, envelope_bytes_from_xml,
                             parse_envelope)
from ..soap.service import XML_CONTENT_TYPE
from ..xmlcore import BINQ_NS, Element, tostring
from .attributes import AttributeStore
from .quality_handlers import trivial_handler
from .rtt import RttEstimator

#: prefix used for binq header entries in produced envelopes
_PREFIX = "binq"


def build_attribute_headers(attributes: Dict[str, float]) -> List[Element]:
    """SOAP header entries carrying quality attributes.

    >>> [el.tag for el in build_attribute_headers({"rtt": 0.5})]
    ['binq:attribute']
    """
    entries = []
    for name, value in sorted(attributes.items()):
        el = Element(f"{_PREFIX}:attribute", {
            f"xmlns:{_PREFIX}": BINQ_NS,
            "name": name,
            "value": repr(float(value)),
        })
        entries.append(el)
    return entries


def parse_attribute_headers(envelope: ParsedEnvelope) -> Dict[str, float]:
    """Extract quality attributes from an envelope's header entries."""
    out: Dict[str, float] = {}
    for entry in envelope.header_entries:
        if entry.local_name != "attribute":
            continue
        name = entry.get("name")
        raw = entry.get("value")
        if not name or raw is None:
            continue
        try:
            out[name] = float(raw)
        except ValueError:
            continue
    return out


def build_message_type_header(message_type: str) -> Element:
    """The response header naming the message type actually sent."""
    return Element(f"{_PREFIX}:message-type", {
        f"xmlns:{_PREFIX}": BINQ_NS,
        "name": message_type,
    })


def parse_message_type_header(envelope: ParsedEnvelope) -> Optional[str]:
    for entry in envelope.header_entries:
        if entry.local_name == "message-type":
            return entry.get("name")
    return None


class XmlQualityClient:
    """A quality-aware client speaking *pure XML* SOAP.

    Same adaptation behaviour as :class:`~repro.core.binclient
    .SoapBinClient` — RTT measured per call, smoothed, reported — but the
    attribute rides in a SOAP header entry and the reduced response is
    matched through the ``binq:message-type`` header rather than a wire
    format id.
    """

    def __init__(self, channel: Channel, registry: FormatRegistry,
                 clock: Optional[Clock] = None) -> None:
        self.channel = channel
        self.registry = registry
        self.clock = clock or WallClock()
        self.estimator = RttEstimator()
        self._soap = SoapClient(channel, registry)

    def call(self, operation: str, params: Dict[str, Any],
             input_format: Format,
             output_format: Format) -> Dict[str, Any]:
        headers: Dict[str, float] = {}
        if self.estimator.estimate is not None:
            headers["rtt"] = self.estimator.estimate
        payload = self._soap.build_request(
            operation, params, input_format,
            header_entries=build_attribute_headers(headers))
        start = self.clock.now()
        reply = self.channel.call(payload, XML_CONTENT_TYPE,
                                  {"SOAPAction": f'"{operation}"'})
        elapsed = self.clock.now() - start
        self.estimator.update(elapsed)
        envelope = parse_envelope(reply.body)
        envelope.raise_if_fault()
        response_el = envelope.first_body_element()
        wire_name = parse_message_type_header(envelope)
        wire_format = output_format
        if wire_name and wire_name != output_format.name \
                and self.registry.has_name(wire_name):
            wire_format = self.registry.by_name(wire_name)
        value = decode_fields(response_el, wire_format, self.registry)
        if wire_format.fingerprint != output_format.fingerprint:
            value = trivial_handler(value, wire_format, output_format,
                                    self.registry, AttributeStore())
        return value


def encode_quality_response(op_response_name: str, value: Dict[str, Any],
                            wire_format: Format,
                            registry: FormatRegistry) -> bytes:
    """Server side: encode a (possibly reduced) XML response with the
    message-type header."""
    body_xml = registry.xlate.emitter(wire_format)(value, op_response_name)
    header_xml = tostring(build_message_type_header(wire_format.name))
    return envelope_bytes_from_xml(body_xml, header_xml)
