"""Simulated transport: in-process calls charged to a link model.

:class:`SimChannel` is the deterministic testbed.  A call costs:

* request transfer over the link (at the virtual time of sending),
* server processing time (a pluggable model, default zero),
* response transfer (at the virtual time the response starts).

Time advances on the injected virtual clock, so application-level RTT
measurement — the heart of SOAP-binQ's continuous quality management —
observes exactly the congestion the scenario scripts.  Every call is logged
for the response-time figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..channel import Channel, ChannelReply, Endpoint
from ..clock import VirtualClock
from ..netsim.link import LinkModel

#: Model of server-side processing time, given request and response sizes.
ServerTimeModel = Callable[[int, int], float]


@dataclass
class CallRecord:
    """Timing log entry for one simulated exchange."""

    start_time: float
    end_time: float
    request_bytes: int
    response_bytes: int

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time


class SimChannel(Channel):
    """A channel whose latency comes from a :class:`LinkModel`.

    Parameters
    ----------
    endpoint:
        The server-side handler, invoked in-process.
    link:
        Link model; its cross-traffic schedule is evaluated against the
        virtual clock, so congestion happens "when" the scenario says.
    clock:
        The virtual clock shared by client, server and scenario.
    server_time:
        Optional processing-time model (seconds) charged between request
        arrival and response send; defaults to free.
    """

    def __init__(self, endpoint: Endpoint, link: LinkModel,
                 clock: Optional[VirtualClock] = None,
                 server_time: Optional[ServerTimeModel] = None) -> None:
        self.endpoint = endpoint
        self.link = link
        self.clock = clock or VirtualClock()
        self.server_time = server_time
        self.log: List[CallRecord] = []

    def call(self, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> ChannelReply:
        start = self.clock.now()
        self.clock.advance(self.link.transfer_time(len(body), start))
        reply = self.endpoint(body, content_type, dict(headers or {}))
        if self.server_time is not None:
            self.clock.advance(self.server_time(len(body), len(reply.body)))
        self.clock.advance(
            self.link.transfer_time(len(reply.body), self.clock.now()))
        record = CallRecord(start_time=start, end_time=self.clock.now(),
                            request_bytes=len(body),
                            response_bytes=len(reply.body))
        self.log.append(record)
        return reply

    # ------------------------------------------------------------------
    def response_times(self) -> List[float]:
        """Elapsed time of every call, in call order (figure series)."""
        return [record.elapsed for record in self.log]

    def timeline(self) -> List[tuple]:
        """``(start_time, elapsed)`` pairs — x/y series for Figs. 8/9."""
        return [(record.start_time, record.elapsed) for record in self.log]
