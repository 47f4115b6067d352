"""The quality manager: policy + monitoring + handlers, per endpoint.

"The information given in the quality file is used by both the client and
the server just before sending the message.  Based on the estimated RTT
value, the corresponding interval in the policy is selected and the
appropriate message type is chosen for transmission." (§IV-C.h)

A :class:`QualityManager` owns:

* the parsed :class:`~repro.core.quality_file.QualityPolicy`,
* an :class:`~repro.core.attributes.AttributeStore` (with
  ``update_attribute()``),
* the :class:`~repro.core.rtt.RttEstimator` feeding the monitored
  attribute when it is RTT,
* a :class:`~repro.core.rtt.HysteresisSelector` implementing the paper's
  history-based anti-oscillation,
* the :class:`~repro.core.quality_handlers.HandlerRegistry` that maps
  policy handler names to code.

Both client and server stubs hold one and call :meth:`outgoing` just before
sending; the receiving side calls :meth:`restore` to project the (possibly
smaller) wire message back up to the message type the application expects,
padding missing fields with zeroes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from ..http11.messages import etag_matches
from ..pbio import Format, FormatRegistry
from .attributes import RTT, AttributeStore
from .errors import QualityFileError
from .qcache import QualityCache
from .quality_file import QualityPolicy, parse_quality_file
from .quality_handlers import HandlerRegistry, trivial_handler
from .rtt import HysteresisSelector, RttEstimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sandbox import HandlerSandbox


class QualityManager:
    """Runtime quality management for one endpoint.

    ``sandbox`` (a :class:`~repro.core.sandbox.HandlerSandbox`) puts a
    timeout + exception boundary around *named* quality handlers: when one
    raises, stalls or is quarantined, :meth:`outgoing` falls back to the
    trivial projection handler — and to the full-fidelity application
    format if even that fails — instead of letting user handler code fail
    the request.

    .. warning:: **Handler purity under caching.**  With a ``cache``
       attached, a handler's output must be a pure function of the input
       value, the format pair, and attributes *other than* the policy's
       monitored attribute and the RTT telemetry.  Those two are exempt
       from the attribute-update flush (the monitored attribute's effect
       is the chosen message type, which is part of the cache key; RTT
       changes on essentially every exchange), so a handler that reads
       either one *directly* from the :class:`AttributeStore` would have
       stale output replayed from the cache — and incorrectly
       ``304``-validated.  Handlers needing the monitored value must act
       on it only through the quality file's interval → message-type
       mapping; handlers that genuinely depend on other per-request state
       must run cache-less (``cache=None``).  See ``docs/caching.md``.
    """

    def __init__(self, policy: QualityPolicy, registry: FormatRegistry,
                 handlers: Optional[HandlerRegistry] = None,
                 attributes: Optional[AttributeStore] = None,
                 alpha: float = 0.875,
                 sandbox: Optional["HandlerSandbox"] = None,
                 cache: Optional[QualityCache] = None) -> None:
        self.policy = policy
        self.registry = registry
        self.handlers = handlers or HandlerRegistry()
        self.attributes = attributes or AttributeStore()
        self.estimator = RttEstimator(alpha=alpha)
        self.selector: HysteresisSelector[str] = HysteresisSelector(
            history=policy.history)
        self.sandbox = sandbox
        #: times a named handler failed and the trivial projection (or the
        #: full-fidelity format) was substituted
        self.handler_fallbacks = 0
        #: content-addressed memoization of handler outputs (server side);
        #: None keeps the manager zero-cost for cache-less deployments.
        self.cache = cache
        if cache is not None:
            # Handlers may read any attribute, so a change to one the key
            # does not capture must flush.  Two are exempt: the policy's
            # monitored attribute (its effect is the chosen message type,
            # already a key component) and the RTT telemetry attribute
            # (fed on essentially every request).
            self.attributes.subscribe(self._on_attribute_update)
        for message_type in policy.message_types():
            if not registry.has_name(message_type):
                raise QualityFileError(
                    f"policy references unregistered format "
                    f"{message_type!r}")

    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, quality_text: str, registry: FormatRegistry,
                  handlers: Optional[HandlerRegistry] = None,
                  attributes: Optional[AttributeStore] = None,
                  sandbox: Optional["HandlerSandbox"] = None,
                  cache: Optional[QualityCache] = None) -> "QualityManager":
        """Build a manager straight from quality-file text."""
        return cls(parse_quality_file(quality_text), registry,
                   handlers=handlers, attributes=attributes, sandbox=sandbox,
                   cache=cache)

    # ------------------------------------------------------------------
    def _on_attribute_update(self, name: str, _value: float) -> None:
        if name != self.policy.attribute and name != RTT:
            self.cache.invalidate()

    # ------------------------------------------------------------------
    # monitoring inputs
    # ------------------------------------------------------------------
    def observe_rtt(self, measured: float, server_time: float = 0.0) -> float:
        """Fold a measured RTT into the estimate and the attribute store."""
        estimate = self.estimator.update(measured, server_time)
        self.attributes.update_attribute(RTT, estimate)
        return estimate

    def update_attribute(self, name: str, value: float) -> None:
        """Application-driven attribute change (paper §III-B.d)."""
        self.attributes.update_attribute(name, value)

    def current_attribute_value(self) -> float:
        return self.attributes.get(self.policy.attribute, 0.0)

    # ------------------------------------------------------------------
    # message-type selection and transformation
    # ------------------------------------------------------------------
    def choose_message_type(self) -> str:
        """Debounced message type for the current attribute value."""
        rule = self.policy.select(self.current_attribute_value())
        return self.selector.observe(rule.message_type)

    def outgoing(self, value: Dict[str, Any],
                 app_format: Format) -> Tuple[Format, Dict[str, Any]]:
        """Transform an application message just before sending.

        Looks up the policy, applies the chosen message type's quality
        handler (trivial projection unless the quality file names one) and
        returns ``(wire_format, wire_value)``.
        """
        wire_format, wire_value, _etag, _not_modified = self.outgoing_keyed(
            value, app_format)
        return wire_format, wire_value

    def outgoing_keyed(
            self, value: Dict[str, Any], app_format: Format,
            if_none_match: Optional[str] = None,
            variant: str = "pbio",
            value_digest: Optional[str] = None,
    ) -> Tuple[Format, Optional[Dict[str, Any]], Optional[str], bool]:
        """:meth:`outgoing` with content-addressed memoization.

        Returns ``(wire_format, wire_value, etag, not_modified)``.  With a
        :class:`~repro.core.qcache.QualityCache` attached, ``etag`` is the
        strong validator addressing the bytes of this representation
        (``variant`` distinguishes PBIO from per-operation XML encodings);
        a matching ``if_none_match`` short-circuits *before* the handler
        runs — ``wire_value`` comes back ``None`` and ``not_modified``
        True.  Fallback output (sandboxed handler failed or quarantined)
        is never cached and carries no validator: the key addresses the
        healthy handler's output, not the substitute's.  ``value_digest``
        is ``canonical_digest(value)`` when the caller already has it (the
        service's result memo); the key is the same with or without it.
        """
        chosen_name = self.choose_message_type()
        identity = chosen_name == app_format.name
        wire_format = (app_format if identity
                       else self.registry.by_name(chosen_name))
        cache = self.cache
        if cache is None:
            if identity:
                return app_format, value, None, False
            out_format, wire_value, _ok = self._transform(
                value, app_format, wire_format)
            return out_format, wire_value, None, False
        key = cache.key(app_format, wire_format, value, variant,
                        value_digest)
        if etag_matches(if_none_match, key):
            return wire_format, None, key, True
        if identity:
            return app_format, value, key, False
        entry = cache.lookup(key)
        if entry is not None:
            return entry.wire_format, entry.wire_value, key, False
        out_format, wire_value, ok = self._transform(
            value, app_format, wire_format)
        if not ok:
            return out_format, wire_value, None, False
        cache.store(key, out_format, wire_value)
        return out_format, wire_value, key, False

    def _transform(self, value: Dict[str, Any], app_format: Format,
                   wire_format: Format
                   ) -> Tuple[Format, Dict[str, Any], bool]:
        """Run the quality handler; the bool is False when a fallback
        substituted for the named handler (such output must not be cached
        or validated against the degraded representation's key)."""
        handler_name = self.policy.handler_for(wire_format.name)
        handler = self.handlers.get(handler_name)
        if self.sandbox is not None and handler_name is not None:
            ok, wire_value = self.sandbox.run(
                handler_name, handler, value, app_format, wire_format,
                self.registry, self.attributes)
            if not ok:
                self.handler_fallbacks += 1
                try:
                    wire_value = trivial_handler(value, app_format,
                                                 wire_format, self.registry,
                                                 self.attributes)
                except Exception:  # noqa: BLE001 - last-resort fallback
                    return app_format, value, False
                return wire_format, wire_value, False
        else:
            wire_value = handler(value, app_format, wire_format,
                                 self.registry, self.attributes)
        return wire_format, wire_value, True

    def restore(self, wire_value: Dict[str, Any], wire_format: Format,
                app_format: Format) -> Dict[str, Any]:
        """Project a received wire message up to the application's type.

        "the relevant fields are copied from the message received from the
        transport, and the remaining entries are padded with zeroes.  This
        feature permits legacy applications to be integrated seamlessly."
        """
        if wire_format.fingerprint == app_format.fingerprint:
            return wire_value
        return trivial_handler(wire_value, wire_format, app_format,
                               self.registry, self.attributes)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Observability snapshot used by benchmarks and examples."""
        stats = {
            "attribute": self.policy.attribute,
            "value": self.current_attribute_value(),
            "rtt_estimate": self.estimator.estimate,
            "rtt_samples": self.estimator.samples,
            "current_message_type": self.selector.current,
            "switches": self.selector.switches,
            "handler_fallbacks": self.handler_fallbacks,
        }
        if self.sandbox is not None:
            stats["sandbox"] = self.sandbox.stats()
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        return stats
