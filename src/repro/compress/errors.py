"""Exception types and the output bound of the compression substrate."""

from __future__ import annotations

#: the most bytes a decompress may produce: the same 256 MiB as an HTTP
#: body (``repro.http11.MAX_BODY_BYTES``), so a compressed body can
#: inflate to no more than a plain one may carry.  Read at call time.
MAX_OUTPUT_BYTES = 256 * 1024 * 1024


class CompressError(Exception):
    """Raised on corrupt, truncated or type-invalid codec input."""
