"""The SOAP-bin service: binary-first dispatch with optional quality
management and full XML interoperability.

A :class:`SoapBinService` wraps the operation table of a standard
:class:`~repro.soap.service.SoapService` and accepts *both* payload kinds on
one endpoint:

* ``application/x-pbio`` — the SOAP-bin fast path.  The request payload is
  a PBIO message (announcement + data on first contact); the operation is
  identified by the request's format name; the response goes back as PBIO.
* ``text/xml`` — standard SOAP.  External clients interoperate with zero
  changes; the server converts at the boundary ("servers receive requests
  from and return data to external clients [as] standard XML data, but
  servers use binary data", §I).

When constructed with a quality policy (SOAP-binQ), the service consults it
just before sending every response: the client's reported RTT picks the
interval, the interval picks the message type, the message type's quality
handler shrinks the payload.  Request-side reduced message types are
transparently restored ("padded with zeroes") before handlers run.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Set, Tuple, Union

from ..channel import ChannelReply
from ..http11.deadline import header_value
from ..pbio import (Format, FormatRegistry, PbioSession,
                    UnknownFormatError, WIRE_MODES)
from ..soap.errors import SoapFault
from ..soap.service import XML_CONTENT_TYPE, Operation, SoapService
from .attributes import AttributeStore
from .errors import BinProtocolError
from .lru import LruTtlCache
from .manager import QualityManager
from .modes import (HEADER_CLIENT_ID, HEADER_OPERATION, HEADER_RTT,
                    HEADER_SERVER_TIME, HEADER_TIMESTAMP,
                    HEADER_TIMESTAMP_ECHO, PBIO_CONTENT_TYPE)
from .qcache import QualityCache, canonical_digest
from .quality_handlers import HandlerRegistry, trivial_handler
from .sandbox import HandlerSandbox
from .xmlq import attributes_from_entries, encode_quality_response


class SoapBinService:
    """Binary SOAP dispatcher with continuous quality management."""

    def __init__(self, registry: Optional[FormatRegistry] = None,
                 quality_text: Optional[str] = None,
                 handlers: Optional[HandlerRegistry] = None,
                 prep_time_fn: Optional[Callable[[], float]] = None,
                 max_sessions: int = 4096,
                 session_idle_ttl_s: Optional[float] = None,
                 sandbox: Optional[object] = None,
                 response_cache: bool = True,
                 cache_entries: int = 1024,
                 cache_max_payload_bytes: int = 64 << 20,
                 cache_ttl_s: Optional[float] = None,
                 wire: str = "auto") -> None:
        if wire not in WIRE_MODES:
            raise ValueError(f"wire must be one of {WIRE_MODES}, got {wire!r}")
        #: compact-encoding policy handed to every per-client session
        self.wire = wire
        self.registry = registry if registry is not None else FormatRegistry()
        self.xml_service = SoapService(self.registry)
        self.compiler = self.registry.compiler
        self.handlers = handlers or HandlerRegistry()
        #: measures server response-preparation time for RTT rectification;
        #: overridable so simulated deployments report virtual prep time.
        #: Doubles as the session-idle and cache-TTL time source.
        self._prep_time_fn = prep_time_fn or time.perf_counter
        #: quality handlers run under this boundary (see
        #: repro.core.sandbox): a raising/stalling handler falls back to
        #: the trivial projection instead of failing the request.
        self.sandbox = sandbox if sandbox is not None \
            else self._default_sandbox()
        #: response-cache sizing (per process: the per-worker RSS budget)
        self.response_cache = response_cache
        self.cache_entries = cache_entries
        self.cache_max_payload_bytes = cache_max_payload_bytes
        self.cache_ttl_s = cache_ttl_s
        self.quality: Optional[QualityManager] = None
        if quality_text is not None:
            self.quality = QualityManager.from_text(
                quality_text, self.registry, handlers=self.handlers,
                sandbox=self.sandbox, cache=self._make_quality_cache())
        #: per-client PBIO sessions (format announcements are per client),
        #: LRU-ordered and bounded: beyond ``max_sessions`` (or past
        #: ``session_idle_ttl_s`` of inactivity) the coldest session is
        #: evicted, so a million distinct client ids cannot retain a
        #: million sessions.  An evicted client's next data-only message
        #: fails format lookup and must re-announce (first-contact rules).
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.session_idle_ttl_s = session_idle_ttl_s
        self._sessions: LruTtlCache = LruTtlCache(
            capacity=max_sessions, ttl_s=session_idle_ttl_s,
            time_fn=self._prep_time_fn)
        self._ops_by_format: Dict[str, Operation] = {}
        #: names of operations registered ``pure=True``
        self._pure_ops: Set[str] = set()

    @staticmethod
    def _default_sandbox():
        return HandlerSandbox()

    def _make_quality_cache(self) -> Optional[QualityCache]:
        if not self.response_cache:
            return None
        return QualityCache(self.registry, capacity=self.cache_entries,
                            ttl_s=self.cache_ttl_s,
                            max_payload_bytes=self.cache_max_payload_bytes,
                            time_fn=self._prep_time_fn)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_operation(self, name: str, input_format: Format,
                      output_format: Format, handler: Callable,
                      wants_headers: bool = False,
                      request_message_types: Tuple[str, ...] = (),
                      pure: bool = False) -> Operation:
        """Register an operation for both the XML and binary paths.

        ``request_message_types`` lists additional (reduced) request formats
        that a quality-managed client may substitute for ``input_format``.

        ``pure=True`` declares the handler a pure function of its decoded
        params: same params, same result, no side effect worth repeating.
        With a response cache the service then keeps each result (and its
        canonical digest) in that cache and answers a repeat request
        without running the handler; whatever the result depends on besides
        the params must change only together with a cache flush.  The
        result's ndarrays become read-only.  Without a response cache the
        flag does nothing.
        """
        if pure and wants_headers:
            raise ValueError(
                f"operation {name!r}: a handler that reads the request "
                f"headers is not a function of its params alone")
        op = self.xml_service.add_operation(name, input_format, output_format,
                                            handler,
                                            wants_headers=wants_headers)
        self._ops_by_format[input_format.name] = op
        for type_name in request_message_types:
            self._ops_by_format[type_name] = op
        if pure:
            self._pure_ops.add(name)
        else:
            self._pure_ops.discard(name)
        return op

    def install_quality(self, quality_text: str) -> QualityManager:
        """Attach (or replace) the response-side quality policy at runtime.

        Together with :meth:`install_handler_source` this realizes the
        paper's future-work goal of dynamically re-defining quality
        management (§V).
        """
        self.quality = QualityManager.from_text(
            quality_text, self.registry, handlers=self.handlers,
            sandbox=self.sandbox, cache=self._make_quality_cache())
        return self.quality

    def install_handler_source(self, name: str, source: str) -> None:
        """Compile handler *source* and install it under ``name`` at
        runtime (dynamic code generation, §V future work)."""
        from .dynamic import compile_quality_handler
        self.handlers.register(name, compile_quality_handler(source, name))

    # ------------------------------------------------------------------
    # transport endpoint
    # ------------------------------------------------------------------
    def endpoint(self, body: bytes, content_type: str,
                 headers: Dict[str, str]) -> ChannelReply:
        """Dispatch one request, binary or XML.

        XML requests get quality management too when a policy is installed
        (attributes arrive as ``binq`` SOAP header entries, §III-B.b's
        alternative to zero-padding); compressed XML requests skip the
        quality path and go through plain dispatch.
        """
        if content_type == PBIO_CONTENT_TYPE \
                or content_type.split(";")[0].strip() == PBIO_CONTENT_TYPE:
            return self._binary_request(body, headers)
        if self.quality is not None and header_value(
                headers, "Content-Encoding") is None:
            return self._xml_quality_request(body, headers)
        # Interoperability: plain SOAP clients hit the same endpoint.
        return self.xml_service.endpoint(body, content_type, headers)

    def _xml_quality_request(self, body: bytes,
                             headers: Dict[str, str]) -> ChannelReply:
        try:
            params, op, entries = self.xml_service.read_request(body)
            for name, value in attributes_from_entries(entries).items():
                self.quality.attributes.update_attribute(name, value)
            result, digest = self._invoke(op, params, headers)
            # The XML body depends on the response element name, so the
            # validator variant is per-operation: two ops sharing an
            # output format and value must not 304 for each other.
            wire_format, wire_value, etag, not_modified = \
                self.quality.outgoing_keyed(
                    result, op.output_format,
                    if_none_match=header_value(headers, "If-None-Match"),
                    variant=f"xml:{op.response_name}",
                    value_digest=digest)
            if not_modified:
                return ChannelReply(body=b"", content_type=XML_CONTENT_TYPE,
                                    headers={"ETag": etag}, status=304)
            payload = encode_quality_response(op.response_name, wire_value,
                                              wire_format, self.registry)
            reply_headers = {"ETag": etag} if etag is not None else {}
            return ChannelReply(body=payload, content_type=XML_CONTENT_TYPE,
                                headers=reply_headers)
        except SoapFault as fault:
            return self.xml_service._fault_reply(fault, compressed=False)
        except Exception as exc:  # noqa: BLE001 - dispatch boundary
            return self.xml_service._fault_reply(
                SoapFault("Server", str(exc)), compressed=False)

    # ------------------------------------------------------------------
    def _binary_request(self, body: bytes,
                        headers: Dict[str, str]) -> ChannelReply:
        """Decode, dispatch and — under a quality policy — select the
        reply; the catch-all below turns any failure of those into a 500.
        Without a policy there is no ETag and no cache."""
        prep_started = self._prep_time_fn()
        session = self._session_for(headers.get(HEADER_CLIENT_ID, "anon"),
                                    prep_started)
        try:
            wire_format, wire_value = session.unpack_stream(body)
            op = self._operation_for(wire_format, headers)
            params = self._restore_request(wire_value, wire_format, op)
            if self.quality is None:
                reply_value = self.xml_service.invoke(op, params, headers)
                reply_format, etag = op.output_format, None
                not_modified = memoised = False
            else:
                (reply_value, reply_format, etag, not_modified,
                 memoised) = self._select_reply(op, params, headers,
                                                session)
        except (BinProtocolError, UnknownFormatError, SoapFault) as exc:
            return ChannelReply(str(exc).encode("utf-8"), "text/plain",
                                status=500)
        except Exception as exc:  # noqa: BLE001 - dispatch boundary
            return ChannelReply(f"internal error: {exc}".encode(),
                                "text/plain", status=500)
        # The RTT timestamp echo, and the preparation time so far: the
        # encode below is not part of it.
        reply_headers: Dict[str, str] = {}
        timestamp = headers.get(HEADER_TIMESTAMP)
        if timestamp is not None:
            reply_headers[HEADER_TIMESTAMP_ECHO] = timestamp
        prep = self._prep_time_fn() - prep_started
        reply_headers[HEADER_SERVER_TIME] = f"{max(0.0, prep):.9f}"
        if not_modified:
            # Header-only fast path: the client's cached representation is
            # current, so the quality handler AND the encode are skipped.
            reply_headers["ETag"] = etag
            return ChannelReply(b"", PBIO_CONTENT_TYPE, reply_headers, 304)
        payload = self._pack_reply(session, reply_format, reply_value, etag,
                                   memoised)
        if etag is not None:
            reply_headers["ETag"] = etag
        return ChannelReply(payload, PBIO_CONTENT_TYPE, reply_headers)

    def _select_reply(self, op: Operation, params: Dict[str, Any],
                      headers: Dict[str, str], session: PbioSession):
        """Ingest the reported RTT, run the operation and select the
        reply's quality; returns ``(reply_value, reply_format, etag,
        not_modified, memoised)``, the last True when the reply is a
        memoised result sent at full fidelity."""
        self._ingest_reported_rtt(headers)
        result, digest = self._invoke(op, params, headers)
        # The cache/ETag variant must reflect the representation this reply
        # will be *encoded* in, and the session may have just learned the
        # peer's compact capability from announcements in this very body —
        # so it is computed after unpack_stream, never before.
        variant = f"pbio:{session.wire_rep()}"
        reply_format, reply_value, etag, not_modified = (
            self.quality.outgoing_keyed(
                result, op.output_format,
                if_none_match=header_value(headers, "If-None-Match"),
                variant=variant, value_digest=digest))
        # a degraded reply's bytes ride on its quality entry and must never
        # make one: a value-less entry under its key would read as a hit
        memoised = digest is not None and reply_format is op.output_format
        return reply_value, reply_format, etag, not_modified, memoised

    def _invoke(self, op: Operation, params: Dict[str, Any],
                headers: Dict[str, str]
                ) -> Tuple[Dict[str, Any], Optional[str]]:
        """Run ``op``'s handler — or, for a pure operation on a service
        with a response cache, reuse what it returned for these params.

        Returns ``(result, canonical_digest(result) or None)``; the digest
        is known only for memoised results and saves the quality layer
        re-hashing them.  Only the handler is skipped: restoring the
        request, RTT ingestion and the quality selection run on every
        request either side of this call.  A raising handler stores
        nothing.
        """
        cache = self.quality.cache if self.quality is not None else None
        if cache is None or op.name not in self._pure_ops:
            return self.xml_service.invoke(op, params, headers), None
        params_digest = canonical_digest(params)
        memo = cache.result(op.name, params_digest)
        if memo is not None:
            return memo
        flushes_before = cache.flushes
        result = self.xml_service.invoke(op, params, headers)
        return cache.store_result(op.name, params_digest, result,
                                  flushes_before)

    def _pack_reply(self, session: PbioSession, reply_format: Format,
                    reply_value: Dict[str, Any], etag: Optional[str],
                    memoised: bool) -> Union[bytes, memoryview]:
        """Encode the reply, reusing cached data-message bytes when safe.

        Steady-state PBIO data bytes depend only on the registry-wide
        format id and the value — not on which session sends them — so
        once a session has announced the reply format, a payload cached
        under the same content-addressed key can be replayed verbatim.
        A first-contact reply carries the announcement, which belongs to
        its session: it is never replayed, but the data message after it
        is stored (as a view into the reply, joined once) like any other
        encoding.

        A degraded message type stores the bytes on its quality entry, and
        drops them when that entry is gone (flushed or refused by the
        budget).  The full-fidelity type has no entry; it gets one of its
        own only when the value is a ``memoised`` result — that value stays
        resident in the memo anyway, whereas a unique reply would be copied
        into the cache for no later hit.
        """
        # an ETag means a quality policy chose the reply
        if etag is None or self.quality.cache is None:
            return session.pack_bytes(reply_format, reply_value)
        cache = self.quality.cache
        if not session.has_announced(reply_format):
            reply, data = session.pack_split(reply_format, reply_value)
            cache.attach_payload(etag, data, create=memoised)
            return reply
        blob = cache.payload(etag)
        if blob is not None:
            return session.send_cached(blob)
        payload = session.pack_bytes(reply_format, reply_value)
        cache.attach_payload(etag, payload, create=memoised)
        return payload

    def _operation_for(self, wire_format: Format,
                       headers: Dict[str, str]) -> Operation:
        op = self._ops_by_format.get(wire_format.name)
        if op is not None:
            return op
        name = headers.get(HEADER_OPERATION)
        if name and name in self.xml_service.operations:
            return self.xml_service.operations[name]
        raise BinProtocolError(
            f"no operation accepts message format {wire_format.name!r}")

    def _restore_request(self, wire_value: Dict[str, Any],
                         wire_format: Format, op: Operation) -> Dict[str, Any]:
        if wire_format.fingerprint == op.input_format.fingerprint:
            return wire_value
        if self.quality is not None:
            return self.quality.restore(wire_value, wire_format,
                                        op.input_format)
        return trivial_handler(wire_value, wire_format, op.input_format,
                               self.registry, AttributeStore())

    def _ingest_reported_rtt(self, headers: Dict[str, str]) -> None:
        if self.quality is None:
            return
        reported = headers.get(HEADER_RTT)
        if reported is None:
            return
        try:
            value = float(reported)
        except ValueError:
            return
        self.quality.attributes.update_attribute("rtt", value)

    def _session_for(self, client_id: str,
                     now: Optional[float] = None) -> PbioSession:
        """The client's session; ``now``, a ``prep_time_fn`` reading the
        caller already took, spares the table another."""
        return self._sessions.get_or_create(client_id, self._new_session,
                                            now)

    def _new_session(self) -> PbioSession:
        return PbioSession(self.registry, self.compiler, wire=self.wire)

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    @property
    def sessions_evicted(self) -> int:
        """Sessions dropped by capacity pressure or the idle TTL."""
        return self._sessions.evicted_total

    # ------------------------------------------------------------------
    def quality_stats(self) -> Optional[Dict[str, Any]]:
        """The quality manager's observability snapshot (handler
        fallbacks, sandbox state, cache counters) plus the ``wire``
        negotiation block, or ``None`` when no policy is installed.
        Surfaced in the server ``/healthz`` and ``/metrics``."""
        if self.quality is None:
            return None
        stats = self.quality.stats()
        stats["wire"] = self.wire_stats()
        return stats

    def wire_stats(self) -> Dict[str, Any]:
        """Compact-wire negotiation counters aggregated over the live
        per-client sessions — surfaced as ``/metrics`` families."""
        sessions = self._sessions.values()
        compact_sessions = 0
        compact_sent = compact_received = 0
        for session in sessions:
            if session.wire_rep() == "compact":
                compact_sessions += 1
            compact_sent += session.stats.compact_sent
            compact_received += session.stats.compact_received
        return {
            "mode": self.wire,
            "sessions": len(sessions),
            "compact_sessions": compact_sessions,
            "compact_messages_sent": compact_sent,
            "compact_messages_received": compact_received,
        }
