"""Operating modes and content types for SOAP-bin exchanges.

§I defines three modes, distinguished by where XML appears:

* **high performance** — parameters never appear as XML; both endpoints
  produce and consume native (binary) data.  Used for "internal"
  communications between cooperating servers.
* **interoperability** — one endpoint's data lives as XML (a database, a
  legacy producer) and is converted to/from binary just-in-time, one-sided;
  the wire and the other endpoint stay binary.
* **compatibility** — both endpoints need XML (peer-to-peer clients using
  standard tools); data is down-converted to binary for the wire and
  re-generated as XML on arrival.

The mode is a property of how an endpoint *uses* the client/service API
(which conversion calls it makes), not a wire-protocol switch; the enum
exists so benchmarks and stubs can label configurations explicitly.
"""

from __future__ import annotations

from enum import Enum

from ..http11.deadline import HEADER_SEND_TIMESTAMP


class Mode(Enum):
    """Where XML conversions happen in an exchange."""

    HIGH_PERFORMANCE = "high-performance"
    INTEROPERABILITY = "interoperability"
    COMPATIBILITY = "compatibility"

    @property
    def xml_conversions(self) -> int:
        """How many endpoints perform XML<->native conversion."""
        if self is Mode.HIGH_PERFORMANCE:
            return 0
        if self is Mode.INTEROPERABILITY:
            return 1
        return 2


#: Content type for PBIO-encoded SOAP parameter payloads.
PBIO_CONTENT_TYPE = "application/x-pbio"

#: Request header carrying a stable per-client id (PBIO session affinity).
HEADER_CLIENT_ID = "X-PBIO-Client"
#: Request header: client's send timestamp (echoed back for RTT).
HEADER_TIMESTAMP = HEADER_SEND_TIMESTAMP
#: Request header: the client's current RTT estimate, informing the server's
#: quality policy ("the server is informed of the new value during the next
#: request", §IV-C.h).
HEADER_RTT = "X-BinQ-RTT"
#: Response header: seconds the server spent preparing the response, so the
#: client can subtract it from the measured RTT.
HEADER_SERVER_TIME = "X-BinQ-ServerTime"
#: Response header echoing the request timestamp.
HEADER_TIMESTAMP_ECHO = "X-BinQ-Timestamp-Echo"
#: Request header naming the operation (robustness alongside format names).
HEADER_OPERATION = "X-SOAP-Operation"
