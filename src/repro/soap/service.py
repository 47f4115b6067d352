"""Server-side SOAP dispatch.

A :class:`SoapService` maps operation names to handlers and exposes itself
as a transport endpoint (``(body, content_type, headers) -> ChannelReply``),
so the same service object runs over real HTTP sockets or the simulated
link.

RPC conventions (matching Soup's): the request Body's first child element is
named after the operation and wraps one child element per input-message
field; the response wraps the output fields in ``<{operation}Response>``.
Errors travel as SOAP 1.1 Faults with status 500.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..channel import ChannelReply
from ..compress import CompressError, get_codec
from ..pbio import Format, FormatRegistry
from .encoding import decode_fields
from .envelope import (HeaderEntry, envelope_bytes_from_xml, fault_envelope,
                       parse_envelope, read_fast_envelope)
from .errors import SoapDecodingError, SoapEncodingError, SoapFault

XML_CONTENT_TYPE = "text/xml; charset=utf-8"

#: Operation handlers take and return field dicts; they may also accept the
#: request headers when declared with ``wants_headers=True``.
Handler = Callable[..., Dict[str, Any]]


@dataclass
class Operation:
    """One SOAP operation: name, message formats, handler."""

    name: str
    input_format: Format
    output_format: Format
    handler: Handler
    wants_headers: bool = False

    @property
    def response_name(self) -> str:
        return f"{self.name}Response"


class SoapService:
    """A registry of operations exposed as a transport endpoint."""

    def __init__(self, registry: Optional[FormatRegistry] = None,
                 compression: Optional[str] = None) -> None:
        self.registry = registry if registry is not None else FormatRegistry()
        self.operations: Dict[str, Operation] = {}
        #: codec name used when a request arrives compressed; replies are
        #: compressed iff the request was.
        self.compression_codec = compression or "zlib"

    def add_operation(self, name: str, input_format: Format,
                      output_format: Format, handler: Handler,
                      wants_headers: bool = False) -> Operation:
        """Register an operation (also registers its formats)."""
        self.registry.register(input_format)
        self.registry.register(output_format)
        op = Operation(name=name, input_format=input_format,
                       output_format=output_format, handler=handler,
                       wants_headers=wants_headers)
        self.operations[name] = op
        return op

    def operation(self, name: str) -> Operation:
        try:
            return self.operations[name]
        except KeyError:
            raise SoapFault("Client", f"unknown operation {name!r}")

    # ------------------------------------------------------------------
    # transport endpoint
    # ------------------------------------------------------------------
    def endpoint(self, body: bytes, content_type: str,
                 headers: Dict[str, str]) -> ChannelReply:
        """Handle one request (XML, optionally compressed)."""
        compressed = _is_compressed(headers)
        try:
            payload = body
            if compressed:
                payload = get_codec(self.compression_codec).decompress(body)
            response_xml = self.handle_xml(payload, headers)
        except SoapFault as fault:
            return self._fault_reply(fault, compressed)
        except (SoapDecodingError, SoapEncodingError, CompressError) as exc:
            # (a corrupt body, or one inflating past MAX_OUTPUT_BYTES)
            return self._fault_reply(SoapFault("Client", str(exc)),
                                     compressed)
        except Exception as exc:  # noqa: BLE001 - dispatch boundary
            return self._fault_reply(SoapFault("Server", str(exc)),
                                     compressed)
        reply_headers = {}
        out = response_xml
        if compressed:
            out = get_codec(self.compression_codec).compress(response_xml)
            reply_headers["Content-Encoding"] = "deflate"
        return ChannelReply(body=out, content_type=XML_CONTENT_TYPE,
                            headers=reply_headers)

    def _fault_reply(self, fault: SoapFault, compressed: bool) -> ChannelReply:
        payload = fault_envelope(fault)
        headers = {}
        if compressed:
            payload = get_codec(self.compression_codec).compress(payload)
            headers["Content-Encoding"] = "deflate"
        return ChannelReply(body=payload, content_type=XML_CONTENT_TYPE,
                            headers=headers, status=500)

    # ------------------------------------------------------------------
    def handle_xml(self, payload: bytes,
                   headers: Optional[Dict[str, str]] = None) -> bytes:
        """Decode an XML request, run the handler, encode the XML response.

        Split out from :meth:`endpoint` so the SOAP-bin service can reuse it
        for interoperability-mode requests.
        """
        params, op, _ = self.read_request(payload)
        result = self.invoke(op, params, headers or {})
        return self.encode_response(op, result)

    def read_request(self, payload: bytes
                     ) -> Tuple[Dict[str, Any], Operation, List[HeaderEntry]]:
        """Decode a request: ``(params, operation, header entries)``.

        The compiled XML plans decode it when :meth:`_decode_request_fast`
        can, and the tree path (:meth:`decode_request`) otherwise; the
        header entries are ``(local name, attributes)`` pairs either way.
        """
        fast = self._decode_request_fast(payload)
        if fast is not None:
            return fast
        params, op, envelope = self.decode_request(payload)
        return params, op, envelope.header_pairs

    def _decode_request_fast(self, payload: bytes):
        """Decode via the compiled XML plans, or ``None`` for the tree path.

        Applies only to envelopes in this stack's exact serialized framing
        whose Header entries (if any) the pull parser reads and whose Body
        is one element naming a known operation.  *Every* error
        condition — malformed fragment, unknown operation, field type
        mismatch — returns ``None`` so the tree path re-raises with its
        exact message and document positions; the fast path never produces
        an error the tree path wouldn't.
        """
        env = read_fast_envelope(payload)
        if env is None:
            return None
        op = self.operations.get(env.body_name)
        if op is None:
            return None
        params = self.registry.xlate.body_parser(op.input_format)(
            env.body_xml)
        if params is None:
            return None
        return params, op, env.entries

    def decode_request(self, payload: bytes):
        """Parse + decode a request; returns (params, operation, envelope).

        The tree-building general path, and the error-reporting oracle
        for :meth:`_decode_request_fast`.
        """
        envelope = parse_envelope(payload)
        request_el = envelope.first_body_element()
        op = self.operation(request_el.local_name)
        params = decode_fields(request_el, op.input_format, self.registry)
        return params, op, envelope

    def invoke(self, op: Operation, params: Dict[str, Any],
               headers: Dict[str, str]) -> Dict[str, Any]:
        """Run an operation handler with consistent error wrapping."""
        if op.wants_headers:
            return op.handler(params, headers)
        return op.handler(params)

    def encode_response(self, op: Operation,
                        result: Dict[str, Any]) -> bytes:
        body_xml = self.registry.xlate.emitter(op.output_format)(
            result, op.response_name)
        return envelope_bytes_from_xml(body_xml)


def _is_compressed(headers: Dict[str, str]) -> bool:
    for name, value in headers.items():
        if name.lower() == "content-encoding":
            return "deflate" in value.lower()
    return False
