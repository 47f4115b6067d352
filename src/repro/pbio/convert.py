"""Format-to-format value conversion.

This implements the mechanism behind SOAP-binQ's trivial quality handlers
(§III-B): when the transport substitutes a smaller message type for the
application's larger one, it "copies the relevant fields (those fields that
are common to the data structure acquired from the application and those to
be sent) and ignores the rest.  At the other end ... the relevant fields are
copied from the message received from the transport, and the remaining
entries are padded with zeroes."

:func:`compile_converter` builds a reusable converter between two formats:

* fields present in both and type-compatible are copied (recursively for
  nested structs, with truncate/zero-pad for fixed-length arrays),
* fields only in the destination are zero-filled,
* fields only in the source are dropped.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .errors import ConversionError
from .fmt import Format
from .registry import FormatRegistry
from .types import Array, FieldType, Primitive, StructRef

Converter = Callable[[Dict[str, Any]], Dict[str, Any]]


def zero_value(ftype: FieldType, registry: Optional[FormatRegistry] = None) -> Any:
    """The padding value for a field type, expanding struct refs.

    >>> zero_value(Primitive("int32"))
    0
    """
    if isinstance(ftype, Primitive):
        return ftype.zero()
    if isinstance(ftype, Array):
        if ftype.length is None:
            return []
        return [zero_value(ftype.element, registry)
                for _ in range(ftype.length)]
    if isinstance(ftype, StructRef):
        if registry is None or not registry.has_name(ftype.format_name):
            return {}
        sub = registry.by_name(ftype.format_name)
        return {f.name: zero_value(f.ftype, registry) for f in sub.fields}
    raise ConversionError(f"no zero value for {ftype!r}")


def _numeric(kind: str) -> bool:
    return kind not in ("string", "char")


def _compatible(src: FieldType, dst: FieldType) -> bool:
    """Whether a value of ``src`` can be carried in a ``dst`` slot."""
    if isinstance(src, Primitive) and isinstance(dst, Primitive):
        if src.kind == dst.kind:
            return True
        return _numeric(src.kind) and _numeric(dst.kind)
    if isinstance(src, Array) and isinstance(dst, Array):
        return _compatible(src.element, dst.element)
    if isinstance(src, StructRef) and isinstance(dst, StructRef):
        return True  # field-wise matching happens recursively
    return False


def _convert_field(value: Any, src: FieldType, dst: FieldType,
                   registry: FormatRegistry) -> Any:
    if isinstance(dst, Primitive):
        if isinstance(src, Primitive) and src.kind != dst.kind:
            if dst.kind.startswith("float"):
                return float(value)
            return int(value)
        return value
    if isinstance(dst, Array):
        assert isinstance(src, Array)
        items = value
        if dst.length is not None:
            n = len(items)
            if n > dst.length:
                items = items[:dst.length]
            elif n < dst.length:
                pad = [zero_value(dst.element, registry)
                       for _ in range(dst.length - n)]
                items = list(items) + pad
        if isinstance(dst.element, (Array, StructRef)) or (
                isinstance(src.element, Primitive)
                and isinstance(dst.element, Primitive)
                and src.element.kind != dst.element.kind):
            return [_convert_field(item, src.element, dst.element, registry)
                    for item in items]
        return items
    if isinstance(dst, StructRef):
        assert isinstance(src, StructRef)
        src_fmt = registry.by_name(src.format_name)
        dst_fmt = registry.by_name(dst.format_name)
        return compile_converter(src_fmt, dst_fmt, registry)(value)
    raise ConversionError(f"cannot convert into {dst!r}")


def compile_converter(src_fmt: Format, dst_fmt: Format,
                      registry: FormatRegistry) -> Converter:
    """Build a converter mapping values of ``src_fmt`` into ``dst_fmt``.

    The returned callable performs "a single copy" per invocation, as the
    paper describes for quality-file message substitution.  Identical
    formats get an identity-shaped fast path.  Compiled converters are
    memoized on the registry (cleared by
    :meth:`~repro.pbio.registry.FormatRegistry.redefine`), so per-message
    up/down-translation never re-walks the two formats.
    """
    if src_fmt.fingerprint == dst_fmt.fingerprint:
        return dict  # shallow copy preserves caller's ownership expectations

    cache = getattr(registry, "converter_cache", None)
    cache_key = (src_fmt.fingerprint, dst_fmt.fingerprint)
    if cache is not None:
        cached = cache.get(cache_key)
        if cached is not None:
            return cached

    plan = []  # (dst_name, src_field_or_None, dst_type)
    for dst_field in dst_fmt.fields:
        src_field = None
        if src_fmt.has_field(dst_field.name):
            candidate = src_fmt.field(dst_field.name)
            if _compatible(candidate.ftype, dst_field.ftype):
                src_field = candidate
        plan.append((dst_field.name, src_field, dst_field.ftype))

    def convert(value: Dict[str, Any]) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, src_field, dst_type in plan:
            if src_field is None:
                out[name] = zero_value(dst_type, registry)
            else:
                out[name] = _convert_field(value[name], src_field.ftype,
                                           dst_type, registry)
        return out

    if cache is not None:
        cache[cache_key] = convert
    return convert


def project(value: Dict[str, Any], src_fmt: Format, dst_fmt: Format,
            registry: FormatRegistry) -> Dict[str, Any]:
    """One-shot convenience wrapper around :func:`compile_converter`."""
    return compile_converter(src_fmt, dst_fmt, registry)(value)
