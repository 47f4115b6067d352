"""The interpreted PBIO codec — the reference "slow path".

This is the field-walk the paper's measurements argue against: for every
message it re-traverses the format metadata, dispatching per field and per
array element.  It produces byte-for-byte the same wire encoding as the
compiled codecs in :mod:`repro.pbio.compiler`, which makes it the oracle
for differential tests and the fallback when dynamic code generation is
disabled (``CodecCompiler(use_codegen=False)``).

Keep this module boring on purpose: correctness and readability over
speed.  Anything clever belongs in the compiler.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Tuple

from .errors import DecodeError, EncodeError, FormatError
from .fmt import Format
from .types import Array, FieldType, Primitive, StructRef

LITTLE = "<"
BIG = ">"


def _registry_lookup(registry: Any, name: str) -> Format:
    if registry is None:
        raise FormatError(f"nested struct {name!r} needs a registry")
    return registry.by_name(name)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------

def interp_encode(fmt: Format, value: Dict[str, Any],
                  registry: Any = None, endian: str = LITTLE) -> bytes:
    """Encode ``value`` by walking ``fmt`` field by field."""
    out: list = []
    for field in fmt.fields:
        try:
            field_value = value[field.name]
        except (KeyError, TypeError):
            raise EncodeError(
                f"format {fmt.name!r}: missing field '{field.name}'")
        _encode_value(out, field.name, field_value, field.ftype, registry,
                      endian)
    return b"".join(out)


def _encode_value(out: list, fname: str, value: Any, ftype: FieldType,
                  registry: Any, endian: str) -> None:
    if isinstance(ftype, Primitive):
        out.append(_encode_primitive(fname, value, ftype, endian))
        return
    if isinstance(ftype, Array):
        if ftype.length is not None:
            if len(value) != ftype.length:
                raise EncodeError(
                    f"field {fname!r}: expected {ftype.length} elements, "
                    f"got {len(value)}")
        else:
            out.append(struct.pack("<I", len(value)))
        for item in value:
            _encode_value(out, fname, item, ftype.element, registry, endian)
        return
    if isinstance(ftype, StructRef):
        sub = _registry_lookup(registry, ftype.format_name)
        out.append(interp_encode(sub, value, registry, endian))
        return
    raise FormatError(f"cannot encode type {ftype!r}")


def _encode_primitive(fname: str, value: Any, ftype: Primitive,
                      endian: str) -> bytes:
    try:
        if ftype.kind == "string":
            raw = value.encode("utf-8")
            return struct.pack("<I", len(raw)) + raw
        if ftype.kind == "char":
            return value.encode("latin-1")
        return struct.pack(endian + ftype.struct_char, value)
    except (struct.error, AttributeError, TypeError) as exc:
        raise EncodeError(f"field {fname!r}: {exc}")


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------

def interp_decode(fmt: Format, buf: Any, offset: int = 0,
                  registry: Any = None,
                  endian: str = LITTLE) -> Tuple[Dict[str, Any], int]:
    """Decode one ``fmt`` value starting at ``offset``; returns
    ``(value, new_offset)``."""
    value: Dict[str, Any] = {}
    for field in fmt.fields:
        value[field.name], offset = _decode_value(
            fmt.name, buf, offset, field.ftype, registry, endian)
    return value, offset


def _decode_value(ctx: str, buf: Any, offset: int, ftype: FieldType,
                  registry: Any, endian: str) -> Tuple[Any, int]:
    if isinstance(ftype, Primitive):
        return _decode_primitive(ctx, buf, offset, ftype, endian)
    if isinstance(ftype, Array):
        if ftype.length is not None:
            count = ftype.length
        else:
            count, offset = _unpack(ctx, "<I", buf, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_value(ctx, buf, offset, ftype.element,
                                         registry, endian)
            items.append(item)
        return items, offset
    if isinstance(ftype, StructRef):
        sub = _registry_lookup(registry, ftype.format_name)
        return interp_decode(sub, buf, offset, registry, endian)
    raise FormatError(f"cannot decode type {ftype!r}")


def _decode_primitive(ctx: str, buf: Any, offset: int, ftype: Primitive,
                      endian: str) -> Tuple[Any, int]:
    if ftype.kind == "string":
        n, offset = _unpack(ctx, "<I", buf, offset)
        end = offset + n
        if end > len(buf):
            raise DecodeError(f"format {ctx!r}: truncated string body")
        return bytes(buf[offset:end]).decode("utf-8"), end
    if ftype.kind == "char":
        if offset + 1 > len(buf):
            raise DecodeError(f"format {ctx!r}: truncated char")
        return bytes(buf[offset:offset + 1]).decode("latin-1"), offset + 1
    value, offset = _unpack(ctx, endian + ftype.struct_char, buf, offset)
    return value, offset


def _unpack(ctx: str, spec: str, buf: Any, offset: int) -> Tuple[Any, int]:
    try:
        (value,) = struct.unpack_from(spec, buf, offset)
    except struct.error as exc:
        raise DecodeError(f"format {ctx!r}: truncated message: {exc}")
    return value, offset + struct.calcsize(spec)


# ----------------------------------------------------------------------
# the compact (varint/zigzag) encoding
# ----------------------------------------------------------------------
#
# The negotiated alternative to the native layout (docs/wire-compact.md):
#
# * int8 / uint8      -> the one native byte (a varint is never shorter
#                        than a byte, and costs a byte more from 0x80 up),
# * wider signed ints -> zigzag-mapped unsigned varint,
# * wider unsigned    -> unsigned varint,
# * float32/float64   -> fixed 4/8 little-endian bytes (IEEE 754),
# * char              -> one latin-1 byte,
# * string            -> varint byte length + UTF-8 bytes,
# * variable arrays   -> varint element count + elements,
# * fixed arrays      -> elements only (the count lives in the format),
# * nested structs    -> fields inline.
#
# The encoding is endianness-independent, so compact codec plans are
# cached per fingerprint alone.  These interpreted walkers are the
# byte-exact oracle for the compiled plans in ``compiler.py``.

#: integer kind -> inclusive wire range (checked on encode *and* decode:
#: the native layout enforces the same ranges through ``struct.pack``)
_INT_RANGES = {
    "int8": (-(1 << 7), (1 << 7) - 1),
    "int16": (-(1 << 15), (1 << 15) - 1),
    "int32": (-(1 << 31), (1 << 31) - 1),
    "int64": (-(1 << 63), (1 << 63) - 1),
    "uint8": (0, (1 << 8) - 1),
    "uint16": (0, (1 << 16) - 1),
    "uint32": (0, (1 << 32) - 1),
    "uint64": (0, (1 << 64) - 1),
}

#: one-byte kind -> struct char: written as the native byte, never a varint
_BYTE_KINDS = {"int8": "b", "uint8": "B"}

_FLOAT_STRUCTS = {"float32": struct.Struct("<f"),
                  "float64": struct.Struct("<d")}

#: a 64-bit unsigned varint never needs more than 10 groups of 7 bits
MAX_VARINT_BYTES = 10


def zigzag(n: int) -> int:
    """Map a signed integer onto the unsigned varint space (-1 -> 1)."""
    return (n << 1) ^ (n >> 63)


def unzigzag(u: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (u >> 1) ^ -(u & 1)


def encode_uvarint(n: int) -> bytes:
    """Encode a non-negative integer as an LEB128-style varint."""
    if n < 0:
        raise EncodeError(f"varint cannot encode negative value {n}")
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(buf: Any, offset: int) -> Tuple[int, int]:
    """Decode one varint at ``offset``; returns ``(value, new_offset)``.

    Raises :class:`DecodeError` on truncation and on overlong encodings
    (more than :data:`MAX_VARINT_BYTES` bytes, or bits beyond 64).
    """
    result = 0
    shift = 0
    end = len(buf)
    while True:
        if offset >= end:
            raise DecodeError("truncated varint")
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result >> 64:
                raise DecodeError("varint exceeds 64 bits")
            return result, offset
        shift += 7
        if shift >= 7 * MAX_VARINT_BYTES:
            raise DecodeError("varint longer than 10 bytes")


def interp_encode_compact(fmt: Format, value: Dict[str, Any],
                          registry: Any = None) -> bytes:
    """Encode ``value`` in the compact representation (field walk)."""
    out: list = []
    for field in fmt.fields:
        try:
            field_value = value[field.name]
        except (KeyError, TypeError):
            raise EncodeError(
                f"format {fmt.name!r}: missing field '{field.name}'")
        _encode_compact_value(out, field.name, field_value, field.ftype,
                              registry)
    return b"".join(out)


def _encode_compact_value(out: list, fname: str, value: Any,
                          ftype: FieldType, registry: Any) -> None:
    if isinstance(ftype, Primitive):
        out.append(_encode_compact_primitive(fname, value, ftype))
        return
    if isinstance(ftype, Array):
        if ftype.length is not None:
            if len(value) != ftype.length:
                raise EncodeError(
                    f"field {fname!r}: expected {ftype.length} elements, "
                    f"got {len(value)}")
        else:
            out.append(encode_uvarint(len(value)))
        for item in value:
            _encode_compact_value(out, fname, item, ftype.element, registry)
        return
    if isinstance(ftype, StructRef):
        sub = _registry_lookup(registry, ftype.format_name)
        out.append(interp_encode_compact(sub, value, registry))
        return
    raise FormatError(f"cannot encode type {ftype!r}")


def _encode_compact_primitive(fname: str, value: Any,
                              ftype: Primitive) -> bytes:
    kind = ftype.kind
    rng = _INT_RANGES.get(kind)
    if rng is not None:
        try:
            n = value.__index__()
        except (AttributeError, TypeError):
            raise EncodeError(
                f"field {fname!r}: required an integer, got "
                f"{type(value).__name__}")
        if not rng[0] <= n <= rng[1]:
            raise EncodeError(
                f"field {fname!r}: {n} out of range for {kind}")
        if kind in _BYTE_KINDS:
            return bytes((n & 0xFF,))
        if kind[0] == "i":
            n = zigzag(n)
        return encode_uvarint(n)
    try:
        if kind == "string":
            raw = value.encode("utf-8")
            return encode_uvarint(len(raw)) + raw
        if kind == "char":
            return value.encode("latin-1")
        return _FLOAT_STRUCTS[kind].pack(value)
    except (struct.error, AttributeError, TypeError,
            UnicodeEncodeError) as exc:
        raise EncodeError(f"field {fname!r}: {exc}")


def interp_decode_compact(fmt: Format, buf: Any, offset: int = 0,
                          registry: Any = None
                          ) -> Tuple[Dict[str, Any], int]:
    """Decode one compact ``fmt`` value starting at ``offset``."""
    value: Dict[str, Any] = {}
    for field in fmt.fields:
        value[field.name], offset = _decode_compact_value(
            fmt.name, buf, offset, field.ftype, registry)
    return value, offset


def _decode_compact_value(ctx: str, buf: Any, offset: int,
                          ftype: FieldType, registry: Any
                          ) -> Tuple[Any, int]:
    if isinstance(ftype, Primitive):
        return _decode_compact_primitive(ctx, buf, offset, ftype)
    if isinstance(ftype, Array):
        if ftype.length is not None:
            count = ftype.length
        else:
            count, offset = decode_uvarint(buf, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_compact_value(ctx, buf, offset,
                                                 ftype.element, registry)
            items.append(item)
        return items, offset
    if isinstance(ftype, StructRef):
        sub = _registry_lookup(registry, ftype.format_name)
        return interp_decode_compact(sub, buf, offset, registry)
    raise FormatError(f"cannot decode type {ftype!r}")


def _decode_compact_primitive(ctx: str, buf: Any, offset: int,
                              ftype: Primitive) -> Tuple[Any, int]:
    kind = ftype.kind
    rng = _INT_RANGES.get(kind)
    if kind in _BYTE_KINDS:
        if offset >= len(buf):
            raise DecodeError(f"format {ctx!r}: truncated {kind}")
        n = buf[offset]
        if kind == "int8" and n >= 0x80:
            n -= 0x100
        return n, offset + 1
    if rng is not None:
        u, offset = decode_uvarint(buf, offset)
        n = unzigzag(u) if kind[0] == "i" else u
        if not rng[0] <= n <= rng[1]:
            raise DecodeError(f"format {ctx!r}: {n} out of range for {kind}")
        return n, offset
    if kind == "string":
        n, offset = decode_uvarint(buf, offset)
        end = offset + n
        if end > len(buf):
            raise DecodeError(f"format {ctx!r}: truncated string body")
        try:
            return bytes(buf[offset:end]).decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise DecodeError(f"format {ctx!r}: bad string bytes: {exc}")
    if kind == "char":
        if offset + 1 > len(buf):
            raise DecodeError(f"format {ctx!r}: truncated char")
        return bytes(buf[offset:offset + 1]).decode("latin-1"), offset + 1
    st = _FLOAT_STRUCTS[kind]
    try:
        (value,) = st.unpack_from(buf, offset)
    except struct.error as exc:
        raise DecodeError(f"format {ctx!r}: truncated {kind}: {exc}")
    return value, offset + st.size
