"""Transport abstraction shared by real-socket and simulated deployments.

The SOAP / SOAP-bin client stacks are written against :class:`Channel` — a
synchronous request/reply pipe with HTTP-ish metadata (content type + flat
headers).  Three implementations exist:

* :class:`~repro.transport.sockets.HttpChannel` — a real HTTP connection;
* :class:`~repro.transport.sim.SimChannel` — an in-process call whose
  timing is charged to a :class:`~repro.netsim.link.LinkModel` on a virtual
  clock (used by every figure-reproduction benchmark);
* :class:`DirectChannel` — an in-process call with no timing at all
  (unit tests).

On the server side both deployments share one shape: an *endpoint*, i.e. a
callable ``(body, content_type, headers) -> ChannelReply``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union


@dataclass
class ChannelReply:
    """The reply half of a channel exchange.

    ``body`` is ``bytes`` or a read-only ``memoryview`` (a response-cache
    replay of bytes first sent inside a larger reply); either way nothing
    writes to it."""

    body: Union[bytes, memoryview]
    content_type: str = "application/octet-stream"
    headers: Dict[str, str] = field(default_factory=dict)
    status: int = 200

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass
class BatchResult:
    """Outcome of one sub-call of a ``call_many`` batch: exactly one of
    ``reply`` / ``error`` is set, and ``meta`` carries the sub-call's
    :class:`~repro.reliability.policy.CallMeta` whenever a retry policy
    drove the batch."""

    reply: Optional[ChannelReply] = None
    error: Optional[Exception] = None
    meta: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.reply is not None


#: ``call_many`` headers: one dict shared by every sub-call, or one each.
BatchHeaders = Union[None, Dict[str, str], Sequence[Optional[Dict[str, str]]]]


def batch_headers(headers: BatchHeaders,
                  total: int) -> List[Optional[Dict[str, str]]]:
    """One header dict (or ``None``) per sub-call of a batch of ``total``."""
    if headers is None or isinstance(headers, dict):
        return [headers] * total
    if len(headers) != total:
        raise ValueError(f"got {len(headers)} header dicts for {total} bodies")
    return list(headers)


#: Server-side request handler shared by all transports.
Endpoint = Callable[[bytes, str, Dict[str, str]], ChannelReply]


class Channel(ABC):
    """A synchronous request/reply transport."""

    @abstractmethod
    def call(self, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> ChannelReply:
        """Send ``body`` and wait for the reply."""

    def close(self) -> None:
        """Release any underlying resources (default: nothing to do)."""

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class DirectChannel(Channel):
    """Zero-overhead in-process channel: calls the endpoint directly."""

    def __init__(self, endpoint: Endpoint) -> None:
        self.endpoint = endpoint
        self.calls = 0

    def call(self, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> ChannelReply:
        self.calls += 1
        return self.endpoint(body, content_type, dict(headers or {}))
