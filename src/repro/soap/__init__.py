"""Standard XML SOAP 1.1 — the baseline protocol SOAP-bin improves on.

Envelope model, RPC parameter encoding driven by PBIO formats, a service
dispatcher usable over any transport channel, a client, and an optional
compressed-XML mode (the paper's third comparison point)::

    from repro import pbio, soap
    from repro.transport import DirectChannel

    registry = pbio.FormatRegistry()
    req = pbio.Format.from_dict("AddRequest", {"a": "int32", "b": "int32"})
    res = pbio.Format.from_dict("AddResponse", {"sum": "int32"})

    service = soap.SoapService(registry)
    service.add_operation("Add", req, res,
                          lambda p: {"sum": p["a"] + p["b"]})

    client = soap.SoapClient(DirectChannel(service.endpoint), registry)
    assert client.call("Add", {"a": 2, "b": 3}, req, res) == {"sum": 5}
"""

from .._lazy import attach
from . import xlate  # noqa: F401 - installs FormatRegistry.xlate's planner

__getattr__, __dir__, __all__ = attach(__name__, {
    "client": ["SoapClient"],
    "encoding": ["encode_value", "encode_fields", "decode_value",
                 "decode_fields", "decode_fields_pull"],
    "envelope": ["build_envelope", "envelope_to_bytes", "parse_envelope",
                 "ParsedEnvelope", "build_fault", "fault_envelope"],
    "errors": ["SoapError", "SoapFault", "SoapEncodingError",
               "SoapDecodingError"],
    "service": ["Operation", "SoapService", "XML_CONTENT_TYPE"],
})
