"""The SOAP-bin client: binary invocations in all three modes, with
client-side RTT monitoring and optional request-side quality management.

One client object supports the paper's three operating modes:

* :meth:`call` — **high performance**: native in, native out; parameters
  cross the wire as PBIO and XML never exists.
* :meth:`call_from_xml` — **interoperability**: the caller's data is an XML
  fragment (say, out of a database); it is converted to native just-in-time,
  sent as binary, and the *native* response is returned.
* :meth:`call_xml` — **compatibility**: XML in, XML out; binary is used
  only on the wire, with conversions at both ends.

Every call measures RTT with the paper's timestamp scheme — the client
sends its clock reading, the server echoes it and reports its preparation
time, and the client folds ``elapsed - server_time`` into the exponential
average — and reports the current estimate to the server on the *next*
request (§IV-C.h).
"""

from __future__ import annotations

import uuid
from typing import Any, Dict, List, Optional, Tuple

import time

from ..channel import Channel
from ..clock import Clock, WallClock
from ..pbio import Format, FormatRegistry, LITTLE, PbioSession
from .attributes import AttributeStore
from .conversion import ConversionHandler
from .errors import BinProtocolError
from .manager import QualityManager
from .modes import (HEADER_CLIENT_ID, HEADER_OPERATION, HEADER_RTT,
                    HEADER_SERVER_TIME, HEADER_TIMESTAMP, PBIO_CONTENT_TYPE)
from .monitor import ExchangeObservation, MonitorHub
from .quality_handlers import trivial_handler
from .rtt import RttEstimator


class SoapBinClient:
    """Client for :class:`~repro.core.binservice.SoapBinService`."""

    def __init__(self, channel: Channel, registry: FormatRegistry,
                 clock: Optional[Clock] = None,
                 quality: Optional[QualityManager] = None,
                 endian: str = LITTLE,
                 client_id: Optional[str] = None,
                 monitor_hub: Optional[MonitorHub] = None,
                 wire: str = "auto") -> None:
        self.channel = channel
        self.registry = registry
        self.clock = clock or WallClock()
        self.quality = quality
        self.compiler = registry.compiler
        # The server owns the service's formats: when it live-redefines one
        # (same name, new layout) and re-announces, this session adopts the
        # announcement as authoritative.  Server-side sessions keep the
        # default (reject conflicting announcements per-connection).
        self.session = PbioSession(registry, self.compiler, endian=endian,
                                   adopt_redefines=True, wire=wire)
        self.client_id = client_id or uuid.uuid4().hex
        #: used when no quality manager is installed, so RTT reporting to
        #: the server works in plain SOAP-bin deployments too
        self.estimator = RttEstimator()
        self.last_rtt: Optional[float] = None
        #: optional dproc-style monitoring: every exchange is reported here
        self.monitor_hub = monitor_hub
        #: reliability metadata of the most recent exchange (attempts,
        #: elapsed, deadline headroom) when the channel runs under a
        #: RetryPolicy; None otherwise
        self.last_call = None
        #: per-sub-call metadata of the most recent :meth:`call_many` batch
        self.last_calls: List[Any] = []

    # ------------------------------------------------------------------
    # the three modes
    # ------------------------------------------------------------------
    def call(self, operation: str, params: Dict[str, Any],
             input_format: Format,
             output_format: Format) -> Dict[str, Any]:
        """High-performance mode: native request, native response."""
        wire_format, wire_value = self._apply_request_quality(params,
                                                              input_format)
        reply_format, reply_value = self._exchange(operation, wire_format,
                                                   wire_value)
        return self._restore_response(reply_value, reply_format,
                                      output_format)

    def call_from_xml(self, operation: str, request_xml: str,
                      input_format: Format,
                      output_format: Format) -> Dict[str, Any]:
        """Interoperability mode: XML request data, converted one-sided,
        just-in-time; native response."""
        handler = ConversionHandler(input_format, self.registry,
                                    self.compiler)
        params = handler.from_xml(request_xml)
        return self.call(operation, params, input_format, output_format)

    def call_xml(self, operation: str, request_xml: str,
                 input_format: Format, output_format: Format) -> str:
        """Compatibility mode: XML at both ends, binary on the wire."""
        native = self.call_from_xml(operation, request_xml, input_format,
                                    output_format)
        out_handler = ConversionHandler(output_format, self.registry,
                                        self.compiler)
        return out_handler.to_xml(native, f"{operation}Response")

    # ------------------------------------------------------------------
    # concurrent batch mode
    # ------------------------------------------------------------------
    def call_many(self, operation: str, params_list: List[Dict[str, Any]],
                  input_format: Format, output_format: Format,
                  return_exceptions: bool = False) -> List[Any]:
        """High-performance mode for a whole batch: many calls in flight.

        When the channel has a ``call_many`` batch surface (a
        :class:`~repro.transport.sockets.PipelinedHttpChannel`, or a
        :class:`~repro.reliability.channel.ReliableChannel`), the batch is
        dispatched through it; otherwise the calls run sequentially.
        Results come back in input order.  Per-sub-call reliability
        metadata lands in :attr:`last_calls` (a list of ``CallMeta`` or
        ``None``, parallel to the results).

        PBIO session ordering is preserved by **priming**: any sub-call
        whose packed body carries a format announcement (the first message
        of a new wire format on this session) is exchanged serially first,
        so the server has seen every announcement — and the client has
        seen the server's reply-format announcement — before requests
        start racing each other on the wire.

        Partial failures: by default the first failed sub-call's error is
        raised after the whole batch settles; with
        ``return_exceptions=True`` the result list carries the exception
        object in each failed slot instead.

        RTT accounting folds **one** sample per batch into the estimator —
        the wall-clock time divided by the number of pipelined sub-calls —
        since that is the marginal cost of a call in this mode; per-call
        timestamps would count the same wait ``n`` times.
        """
        total = len(params_list)
        if total == 0:
            self.last_calls = []
            return []
        call_many_fn = getattr(self.channel, "call_many", None)
        if call_many_fn is None:
            return self._call_many_sequential(
                operation, params_list, input_format, output_format,
                return_exceptions)

        marshal_started = time.perf_counter()
        bodies: List[bytes] = []
        primers: List[int] = []
        for params in params_list:
            wire_format, wire_value = self._apply_request_quality(
                params, input_format)
            before = self.session.stats.announcements_sent
            bodies.append(self.session.pack_bytes(wire_format, wire_value))
            if self.session.stats.announcements_sent != before:
                primers.append(len(bodies) - 1)
        marshal_s = time.perf_counter() - marshal_started

        results: List[Any] = [None] * total
        metas: List[Any] = [None] * total
        errors: List[Tuple[int, Exception]] = []

        # Announcement-carrying bodies go out serially first (and their
        # replies are unpacked immediately): both sessions are in sync
        # before anything is pipelined.
        for index in primers:
            try:
                reply_format, reply_value = self._exchange_body(
                    operation, bodies[index])
            except Exception as exc:  # noqa: BLE001 - surfaced per slot
                errors.append((index, exc))
                metas[index] = self.last_call
                continue
            metas[index] = self.last_call
            results[index] = self._restore_response(
                reply_value, reply_format, output_format)

        batch = [i for i in range(total) if i not in set(primers)]
        if batch:
            estimate = self._current_estimate()
            headers_list = []
            for _ in batch:
                headers = {
                    HEADER_CLIENT_ID: self.client_id,
                    HEADER_OPERATION: operation,
                    HEADER_TIMESTAMP: f"{self.clock.now():.9f}",
                }
                if estimate is not None:
                    headers[HEADER_RTT] = f"{estimate:.9f}"
                headers_list.append(headers)
            start = self.clock.now()
            batch_results = call_many_fn(
                [bodies[i] for i in batch], PBIO_CONTENT_TYPE, headers_list)
            elapsed = self.clock.now() - start
            per_call_s = elapsed / len(batch)
            sample_headers: Dict[str, str] = {}
            unmarshal_started = time.perf_counter()
            # Replies are unpacked sequentially in index order: with an
            # ordered transport that is exactly the order the server's
            # session emitted them, so reply-format announcements are
            # learned before the messages that rely on them.
            for index, outcome in zip(batch, batch_results):
                metas[index] = outcome.meta
                if not outcome.ok:
                    errors.append((index, outcome.error))
                    continue
                reply = outcome.reply
                if not reply.ok:
                    errors.append((index, BinProtocolError(
                        f"operation {operation!r} failed with status "
                        f"{reply.status}: "
                        f"{reply.body[:200].decode('utf-8', 'replace')}")))
                    continue
                try:
                    reply_format, reply_value = self.session.unpack_stream(
                        reply.body)
                    results[index] = self._restore_response(
                        reply_value, reply_format, output_format)
                except Exception as exc:  # noqa: BLE001 - per-slot result
                    errors.append((index, exc))
                    continue
                sample_headers = reply.headers
            unmarshal_s = time.perf_counter() - unmarshal_started
            server_time = self._observe_rtt(per_call_s, sample_headers)
            if self.monitor_hub is not None:
                self.monitor_hub.observe(ExchangeObservation(
                    elapsed_s=elapsed,
                    request_bytes=sum(len(bodies[i]) for i in batch),
                    response_bytes=sum(
                        len(r.reply.body) for r in batch_results if r.ok),
                    server_time_s=server_time,
                    marshal_s=marshal_s, unmarshal_s=unmarshal_s))
        self.last_calls = metas
        if errors:
            errors.sort(key=lambda pair: pair[0])
            if not return_exceptions:
                raise errors[0][1]
            for index, exc in errors:
                results[index] = exc
        return results

    def _call_many_sequential(self, operation: str,
                              params_list: List[Dict[str, Any]],
                              input_format: Format, output_format: Format,
                              return_exceptions: bool) -> List[Any]:
        results: List[Any] = []
        metas: List[Any] = []
        first_error: Optional[Exception] = None
        for params in params_list:
            try:
                results.append(self.call(operation, params, input_format,
                                         output_format))
            except Exception as exc:  # noqa: BLE001 - surfaced per slot
                if first_error is None:
                    first_error = exc
                results.append(exc)
            metas.append(self.last_call)
        self.last_calls = metas
        if first_error is not None and not return_exceptions:
            raise first_error
        return results

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _exchange(self, operation: str, wire_format: Format,
                  wire_value: Dict[str, Any]) -> Tuple[Format, Dict[str, Any]]:
        marshal_started = time.perf_counter()
        body = self.session.pack_bytes(wire_format, wire_value)
        marshal_s = time.perf_counter() - marshal_started
        return self._exchange_body(operation, body, marshal_s)

    def _exchange_body(self, operation: str, body: bytes,
                       marshal_s: float = 0.0
                       ) -> Tuple[Format, Dict[str, Any]]:
        headers = {
            HEADER_CLIENT_ID: self.client_id,
            HEADER_OPERATION: operation,
            HEADER_TIMESTAMP: f"{self.clock.now():.9f}",
        }
        estimate = self._current_estimate()
        if estimate is not None:
            headers[HEADER_RTT] = f"{estimate:.9f}"
        start = self.clock.now()
        try:
            reply = self.channel.call(body, PBIO_CONTENT_TYPE, headers)
        finally:
            self.last_call = getattr(self.channel, "last_call", None)
        elapsed = self.clock.now() - start
        if not reply.ok:
            raise BinProtocolError(
                f"operation {operation!r} failed with status {reply.status}:"
                f" {reply.body[:200].decode('utf-8', 'replace')}")
        server_time = self._observe_rtt(elapsed, reply.headers)
        unmarshal_started = time.perf_counter()
        result = self.session.unpack_stream(reply.body)
        unmarshal_s = time.perf_counter() - unmarshal_started
        if self.monitor_hub is not None:
            self.monitor_hub.observe(ExchangeObservation(
                elapsed_s=elapsed, request_bytes=len(body),
                response_bytes=len(reply.body), server_time_s=server_time,
                marshal_s=marshal_s, unmarshal_s=unmarshal_s))
        return result

    def _apply_request_quality(self, params: Dict[str, Any],
                               input_format: Format):
        if self.quality is None:
            return input_format, params
        return self.quality.outgoing(params, input_format)

    def _restore_response(self, reply_value: Dict[str, Any],
                          reply_format: Format,
                          output_format: Format) -> Dict[str, Any]:
        if reply_format.fingerprint == output_format.fingerprint:
            return reply_value
        if self.quality is not None:
            return self.quality.restore(reply_value, reply_format,
                                        output_format)
        return trivial_handler(reply_value, reply_format, output_format,
                               self.registry, AttributeStore())

    def _observe_rtt(self, elapsed: float,
                     headers: Dict[str, str]) -> float:
        """Fold the measured RTT into the estimators; returns server time."""
        server_time = 0.0
        raw = _header(headers, HEADER_SERVER_TIME)
        if raw is not None:
            try:
                server_time = float(raw)
            except ValueError:
                server_time = 0.0
        self.last_rtt = max(0.0, elapsed - server_time)
        if self.quality is not None:
            self.quality.observe_rtt(elapsed, server_time)
        else:
            self.estimator.update(elapsed, server_time)
        return server_time

    def _current_estimate(self) -> Optional[float]:
        if self.quality is not None:
            return self.quality.estimator.estimate
        return self.estimator.estimate

    def update_attribute(self, name: str, value: float) -> None:
        """Forward to the quality manager's attribute store (§III-B.d)."""
        if self.quality is None:
            raise BinProtocolError(
                "update_attribute requires a quality manager")
        self.quality.update_attribute(name, value)


def _header(headers: Dict[str, str], name: str) -> Optional[str]:
    lower = name.lower()
    for key, value in headers.items():
        if key.lower() == lower:
            return value
    return None
