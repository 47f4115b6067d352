"""Deadline propagation: the ``X-Deadline-Ms`` header contract.

PR 3 gave clients an end-to-end deadline budget
(:class:`~repro.reliability.policy.RetryPolicy.deadline_s`); this module
carries that budget across the wire so the *server* can refuse work the
client is going to discard anyway.  The contract:

* The client stamps every attempt with ``X-Deadline-Ms``: the integer
  number of milliseconds of budget remaining *at send time*.  Because the
  value is re-computed per attempt, retries carry a shrinking budget.
* The server turns the header into an absolute local deadline.  Without a
  synchronized clock it must assume the budget is still intact on arrival
  (``deadline = arrival + remaining``) — conservative in the client's
  favor: the server never sheds work the client still wants.  When client
  and server share a clock (same process, or a simulation's virtual
  clock), ``assume_synced_clock=True`` additionally consumes the transit
  time using the client's ``X-BinQ-Timestamp`` send stamp, so a request
  whose budget drained on a congested link is recognized as *already
  expired on arrival* and shed without doing any work.

A header value of ``0`` (or negative) means the budget is gone; admission
control sheds such requests immediately.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

#: Request header: milliseconds of end-to-end budget remaining at send time.
HEADER_DEADLINE_MS = "X-Deadline-Ms"

#: Response header on shed replies: why admission refused the request.
HEADER_SHED_REASON = "X-Shed-Reason"

#: Request header: the client's send time.  The SOAP-binQ RTT scheme sends
#: it too (:data:`repro.core.modes.HEADER_TIMESTAMP` is this name); it is
#: declared here, in the lowest layer that reads it.
HEADER_SEND_TIMESTAMP = "X-BinQ-Timestamp"


def deadline_header_value(remaining_s: float) -> str:
    """Render a remaining budget as the wire value (floored at 0)."""
    return str(max(0, int(remaining_s * 1000.0)))


def with_deadline_header(headers: Optional[Dict[str, str]],
                         remaining_s: float) -> Dict[str, str]:
    """A copy of ``headers`` carrying the remaining budget."""
    out = dict(headers or {})
    out[HEADER_DEADLINE_MS] = deadline_header_value(remaining_s)
    return out


def header_value(headers: Mapping[str, str], name: str) -> Optional[str]:
    """The value of header ``name`` in ``headers``, in any letter case.

    An exact-case hit answers at once.  A miss is answered from the
    mapping's lower-case index when it keeps one (``folded``, as a parsed
    request's :class:`~repro.http11.messages.HeaderFields` does), so it
    stays O(1); any other mapping is scanned.
    """
    value = headers.get(name)
    if value is not None:
        return value
    lower = name.lower()
    folded = getattr(headers, "folded", None)
    if folded is not None:
        return folded.get(lower)
    for key, value in headers.items():
        if key.lower() == lower:
            return value
    return None


def deadline_from_headers(headers: Mapping[str, str], now: float,
                          assume_synced_clock: bool = False
                          ) -> Optional[float]:
    """Absolute local deadline for a request, or ``None`` when unbounded.

    ``now`` is the server's arrival timestamp on whatever clock it serves
    under.  An unparsable header is treated as absent (a garbled budget
    must not get a request shed).
    """
    raw = header_value(headers, HEADER_DEADLINE_MS)
    if raw is None:
        return None
    try:
        remaining_s = int(raw) / 1000.0
    except ValueError:
        return None
    base = now
    if assume_synced_clock:
        stamp = header_value(headers, HEADER_SEND_TIMESTAMP)
        if stamp is not None:
            try:
                sent_at = float(stamp)
            except ValueError:
                sent_at = None
            # Guard against a stamp from an unsynced clock: only trust it
            # when it reads as "recently, not in the future".
            if sent_at is not None and 0.0 <= now - sent_at <= 3600.0:
                base = sent_at
    return base + remaining_s
