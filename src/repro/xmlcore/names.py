"""Qualified-name and namespace utilities.

SOAP 1.1 and WSDL are namespace-heavy; this module provides the small set of
names the rest of the stack needs: the local part of a ``prefix:local``
name, and the well-known namespace URIs used by SOAP/WSDL/XSD.
"""

from __future__ import annotations

#: Well-known namespace URIs.
SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"
SOAP_ENC_NS = "http://schemas.xmlsoap.org/soap/encoding/"
WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
WSDL_SOAP_NS = "http://schemas.xmlsoap.org/wsdl/soap/"
XSD_NS = "http://www.w3.org/2001/XMLSchema"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
SVG_NS = "http://www.w3.org/2000/svg"

#: Namespace used for SOAP-binQ extension headers (quality attributes that
#: ride along with requests, §III-B of the paper).
BINQ_NS = "urn:repro:soap-binq"


def local_name(name: str) -> str:
    """The local part of a possibly prefixed name."""
    return name.rsplit(":", 1)[-1]
