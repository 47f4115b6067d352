"""Client-side SOAP invocation over any channel."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..channel import Channel
from ..compress import get_codec
from ..pbio import Format, FormatRegistry
from ..xmlcore import Element, tostring
from .encoding import decode_fields
from .envelope import (envelope_bytes_from_xml, parse_envelope,
                       read_fast_envelope)
from .errors import SoapDecodingError
from .service import XML_CONTENT_TYPE


class SoapClient:
    """Invoke SOAP operations with XML (optionally compressed) messages.

    One client handles any number of operations; call sites supply the
    message formats (WSDL-compiled stubs bake those in).
    """

    def __init__(self, channel: Channel,
                 registry: Optional[FormatRegistry] = None,
                 compress: bool = False,
                 compression_codec: str = "zlib") -> None:
        self.channel = channel
        self.registry = registry if registry is not None else FormatRegistry()
        self.compress = compress
        self.compression_codec = compression_codec
        #: reliability metadata of the most recent call (attempts, elapsed,
        #: deadline headroom) when the channel runs under a RetryPolicy —
        #: a ReliableChannel or a socket channel with ``retry_policy=``.
        self.last_call = None

    def call(self, operation: str, params: Dict[str, Any],
             input_format: Format, output_format: Format,
             header_entries: Optional[List[Element]] = None) -> Dict[str, Any]:
        """Invoke ``operation`` and return the decoded response fields.

        SOAP faults returned by the server are raised as
        :class:`~repro.soap.errors.SoapFault`.  Transport failures under a
        reliability-enabled channel are typed
        :class:`~repro.reliability.errors.ReliabilityError`\\ s; attempt and
        deadline metadata for either outcome lands in :attr:`last_call`.
        """
        payload = self.build_request(operation, params, input_format,
                                     header_entries)
        headers = {"SOAPAction": f'"{operation}"'}
        if self.compress:
            payload = get_codec(self.compression_codec).compress(payload)
            headers["Content-Encoding"] = "deflate"
        try:
            reply = self.channel.call(payload, XML_CONTENT_TYPE, headers)
        finally:
            self.last_call = getattr(self.channel, "last_call", None)
        body = reply.body
        if _reply_compressed(reply.headers):
            body = get_codec(self.compression_codec).decompress(body)
        return self.parse_response(operation, body, output_format)

    # ------------------------------------------------------------------
    def build_request(self, operation: str, params: Dict[str, Any],
                      input_format: Format,
                      header_entries: Optional[List[Element]] = None) -> bytes:
        body_xml = self.registry.xlate.emitter(input_format)(params, operation)
        header_xml = "".join(tostring(el) for el in header_entries) \
            if header_entries else ""
        return envelope_bytes_from_xml(body_xml, header_xml)

    def parse_response(self, operation: str, body: bytes,
                       output_format: Format) -> Dict[str, Any]:
        fast = self._parse_response_fast(operation, body, output_format)
        if fast is not None:
            return fast
        envelope = parse_envelope(body)
        envelope.raise_if_fault()
        response_el = envelope.first_body_element()
        expected = f"{operation}Response"
        if response_el.local_name != expected:
            raise SoapDecodingError(
                f"expected <{expected}>, got <{response_el.tag}>")
        return decode_fields(response_el, output_format, self.registry)

    def _parse_response_fast(self, operation: str, body: bytes,
                             output_format: Format) -> Optional[Dict[str, Any]]:
        """Decode via the compiled XML plan, or ``None`` for the tree path.

        Only an envelope in this stack's exact framing whose body is one
        ``<{operation}Response>`` element qualifies; Faults (local name
        ``Fault``), name mismatches and malformed or mistyped fragments
        all return ``None`` so the tree path raises its exact
        faults/errors.
        """
        env = read_fast_envelope(body)
        if env is None or env.body_name != f"{operation}Response":
            return None
        return self.registry.xlate.body_parser(output_format)(env.body_xml)


def _reply_compressed(headers: Dict[str, str]) -> bool:
    for name, value in headers.items():
        if name.lower() == "content-encoding":
            return "deflate" in value.lower()
    return False
