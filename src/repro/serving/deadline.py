"""Deadline propagation; the ``X-Deadline-Ms`` contract lives in
:mod:`repro.http11.deadline`.

The HTTP server reads the header for admission and the client retry
engine writes it, so the contract sits in ``http11``, below both; this
module keeps the names importable from the serving package.
"""

from ..http11.deadline import (HEADER_DEADLINE_MS, HEADER_SEND_TIMESTAMP,
                               HEADER_SHED_REASON, deadline_from_headers,
                               deadline_header_value, header_value,
                               with_deadline_header)

__all__ = ["HEADER_DEADLINE_MS", "HEADER_SHED_REASON",
           "HEADER_SEND_TIMESTAMP", "deadline_header_value",
           "with_deadline_header", "header_value", "deadline_from_headers"]
