"""Quality handlers: code modules that transform message values.

"The resulting quality handlers are code modules that take as inputs both
the binary representations of SOAP parameters and quality attributes that
determine handlers' behaviors." (§I)

A handler maps a value of one message format into another (usually smaller)
format.  When the quality file names no handler for a message type, the
*trivial* handler generated from the formats is used — field projection
with zero padding (:mod:`repro.pbio.convert`), exactly what §III-B.b
describes for legacy integration.

Handlers are registered by name in a :class:`HandlerRegistry`; applications
register domain handlers (image resizing, timestep batching) and quality
files reference them with ``handler <message_type> <name>`` lines.

**Purity contract** (enforced by convention, required for response
caching): a handler must compute its output only from the value, the
format pair and quality attributes *other than* the policy's monitored
attribute and the ``rtt`` telemetry attribute.  The response cache
(``docs/caching.md``) flushes on every other attribute update but exempts
those two, so a handler reading them directly would be served stale from
the cache.  React to the monitored attribute through the quality file's
interval → message-type mapping instead.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..pbio import (Array, Format, FormatRegistry, compile_converter,
                    zero_value)
from .attributes import AttributeStore
from .errors import QualityHandlerError

#: handler(value, src_format, dst_format, format_registry, attributes) -> value
QualityHandler = Callable[
    [Dict[str, Any], Format, Format, FormatRegistry, AttributeStore],
    Dict[str, Any]]


def trivial_handler(value: Dict[str, Any], src: Format, dst: Format,
                    registry: FormatRegistry,
                    attrs: AttributeStore) -> Dict[str, Any]:
    """Field projection + zero padding (the generated default handler)."""
    return compile_converter(src, dst, registry)(value)


def downsample_arrays_handler(value: Dict[str, Any], src: Format, dst: Format,
                              registry: FormatRegistry,
                              attrs: AttributeStore) -> Dict[str, Any]:
    """Shrink fixed-length arrays by striding instead of truncating.

    The paper's example: "data with a specified number of array values could
    be replaced by a smaller sized array, if the loss in precision is not as
    critical as the time ... serializing, transmitting and deserializing a
    larger array" (§III-B.b).  Striding spreads the precision loss across
    the whole array instead of chopping off its tail.
    """
    out: Dict[str, Any] = {}
    for dst_field in dst.fields:
        name = dst_field.name
        if not src.has_field(name):
            out[name] = zero_value(dst_field.ftype, registry)
            continue
        src_type = src.field(name).ftype
        dst_type = dst_field.ftype
        item = value[name]
        if (isinstance(src_type, Array) and isinstance(dst_type, Array)
                and dst_type.length is not None
                and len(item) > dst_type.length > 0):
            stride = len(item) / dst_type.length
            out[name] = [item[int(i * stride)] for i in range(dst_type.length)]
        else:
            out[name] = item
    return trivial_handler(out, src, dst, registry, attrs)


class HandlerRegistry:
    """Named quality handlers, with the built-ins pre-registered."""

    def __init__(self) -> None:
        self._handlers: Dict[str, QualityHandler] = {}
        self.register("project", trivial_handler)
        self.register("downsample", downsample_arrays_handler)

    def register(self, name: str, handler: QualityHandler) -> None:
        if not name:
            raise QualityHandlerError("handler name must be non-empty")
        self._handlers[name] = handler

    def handler(self, name: str):
        """Decorator form of :meth:`register`."""
        def wrap(fn: QualityHandler) -> QualityHandler:
            self.register(name, fn)
            return fn
        return wrap

    def get(self, name: Optional[str]) -> QualityHandler:
        """Resolve a handler name; None gives the trivial handler."""
        if name is None:
            return trivial_handler
        try:
            return self._handlers[name]
        except KeyError:
            raise QualityHandlerError(
                f"no quality handler named {name!r} "
                f"(registered: {sorted(self._handlers)})")

    def names(self):
        return sorted(self._handlers)

    def __contains__(self, name: str) -> bool:
        return name in self._handlers
