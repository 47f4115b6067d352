"""Self-contained XML layer for the SOAP-binQ reproduction.

This package stands in for Expat/libxml2 in the original system: a
hand-written tokenizer, a lightweight element tree, a streaming pull parser
(in the style of XPP), a serializer, and the well-known namespace URIs.

Public surface::

    from repro.xmlcore import Element, parse, tostring, XmlPullParser
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "errors": ["XmlError", "XmlParseError", "XmlWriteError"],
    "names": ["local_name", "SOAP_ENV_NS", "SOAP_ENC_NS", "WSDL_NS",
              "WSDL_SOAP_NS", "XSD_NS", "XSI_NS", "BINQ_NS", "SVG_NS"],
    "pull": ["PullEvent", "XmlPullParser"],
    "tokenizer": ["Token", "Tokenizer", "tokenize", "START", "END", "TEXT",
                  "COMMENT", "PI", "CDATA", "DOCTYPE"],
    "tree": ["Element", "parse", "fromstring"],
    "writer": ["tostring", "canonical", "escape_text", "escape_attr"],
})
