"""Dynamic code generation for PBIO encoders and decoders.

PBIO's defining trick is *dynamic code generation*: rather than interpreting
a format description for every message, it generates native conversion code
once per (format, endian) pair and runs that on the hot path.  This module
is the Python realization — for each format we generate Python source for a
specialized ``encode``/``decode`` function, compile it with :func:`compile`,
and cache the resulting function.

Three codec *plans* exist, picked at compile time:

``fixed``
    The single-pack fast path.  A format whose fields are all fixed-size
    primitives — including, recursively, nested structs of fixed-size
    primitives — compiles to exactly one precompiled :class:`struct.Struct`
    covering the whole message.  Encode is one ``pack`` call, decode is one
    ``unpack_from`` plus a dict literal; nested structs are flattened into
    the parent's layout, so a depth-10 business record costs one call, not
    eleven.

``general``
    Everything else.  Runs of consecutive fixed-size fields are collapsed
    into single precompiled :class:`struct.Struct` calls (nested fixed
    structs are still inlined into those runs), homogeneous primitive
    arrays take a single batch ``Struct(f"<{n}d")``-style call (or a NumPy
    bulk path), and variable-size fields (strings, ragged arrays, dynamic
    struct references) fall back to per-field logic.

``interp``
    The reference field-walk in :mod:`repro.pbio.interp`, used when the
    compiler is constructed with ``use_codegen=False`` (debugging,
    differential testing).

Encoders come in two shapes: ``encoder()`` returns the payload as one
``bytes``, ``encoder_parts()`` returns the un-joined list of buffers so
framing layers can do a single writev-style join with their headers instead
of re-copying the payload.

The generated code implements the PBIO wire encoding:

* fixed-size primitives — native-size two's complement / IEEE754, in the
  *sender's* byte order (the receiver converts: "receiver makes right"),
* ``string`` — u32 byte length + UTF-8 bytes,
* variable-length arrays — u32 element count + elements,
* fixed-length arrays — elements only (length is part of the format),
* nested structs — encoded inline, in field order.

Decoders accept any buffer supporting :func:`struct.unpack_from` —
``bytes``, ``bytearray`` or ``memoryview`` — without copying.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Tuple)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a hard dep in practice
    _np = None

from .errors import DecodeError, EncodeError, FormatError
from .fmt import Format
from .interp import (_BYTE_KINDS, _INT_RANGES, MAX_PACKED_WIDTH, MODE_PACKED,
                     MODE_VARINT, PACKED_MIN_COUNT, decode_uvarint,
                     encode_uvarint, interp_decode, interp_decode_compact,
                     interp_encode, interp_encode_compact, unzigzag, zigzag)
from .registry import FormatRegistry
from .types import Array, FieldType, Primitive, StructRef

LITTLE = "<"
BIG = ">"

_NP_CHARS = {
    "b": "i1", "h": "i2", "i": "i4", "q": "i8",
    "B": "u1", "H": "u2", "I": "u4", "Q": "u8",
    "f": "f4", "d": "f8",
}

#: element count from which primitive arrays decode to an ndarray (and
#: the compact int codec runs its NumPy kernels) instead of a list: below
#: it NumPy's fixed per-call cost exceeds the per-element loop.  Never
#: below the wire's ``PACKED_MIN_COUNT``: the kernels read a mode byte
_NP_MIN_COUNT = 64
#: elements per block of the compact int-array kernels, bounding every
#: temporary they allocate whatever the array's length (a multiple of 8:
#: a bit-packed block ends on a whole group)
_COMPACT_BLOCK = 1 << 13

EncodeFn = Callable[[Dict[str, Any]], bytes]
EncodePartsFn = Callable[[Dict[str, Any]], List[bytes]]
DecodeFn = Callable[[Any, int], Tuple[Dict[str, Any], int]]


# ----------------------------------------------------------------------
# runtime helpers referenced from generated code
# ----------------------------------------------------------------------

@lru_cache(maxsize=512)
def _array_struct(endian: str, count: int, char: str) -> struct.Struct:
    """Precompiled batch codec for ``count`` homogeneous elements."""
    return struct.Struct(f"{endian}{count}{char}")


def _pack_prim_array(values: Any, char: str, endian: str) -> bytes:
    """Bulk-encode an array of one primitive kind.

    NumPy arrays are serialized with a single dtype cast + ``tobytes`` —
    this is what makes the 1 MB-image benchmarks representative.  Plain
    sequences go through one precompiled batch :class:`struct.Struct`.
    """
    if char == "c":
        if isinstance(values, str):
            raw = values.encode("latin-1")
        elif isinstance(values, (bytes, bytearray)):
            raw = bytes(values)
        else:
            raw = "".join(values).encode("latin-1")
        return raw
    if _np is not None and isinstance(values, _np.ndarray):
        dtype = _np.dtype(endian + _NP_CHARS[char])
        if _np.can_cast(values.dtype, dtype, "safe") or \
                _cast_keeps_values(values, dtype):
            return values.astype(dtype, copy=False).tobytes()
        values = values.tolist()        # the list path names the refusal
    try:
        return _array_struct(endian, len(values), char).pack(*values)
    except (struct.error, OverflowError) as exc:
        raise EncodeError(f"bad array value: {exc}")


def _cast_keeps_values(values: Any, dtype: Any) -> bool:
    """Whether an unsafe cast of ``values`` to ``dtype`` keeps every
    element: the range check the list path makes."""
    kind = values.dtype.kind
    if dtype.kind == "f":       # a narrower float overflows to inf
        with _np.errstate(over="ignore"):
            return kind in "iuf" and (_np.isinf(values.astype(dtype)).sum()
                                      == _np.isinf(values).sum())
    return kind in "iu" and values.size > 0 and (
        _np.iinfo(dtype).min <= int(values.min())
        and int(values.max()) <= _np.iinfo(dtype).max)


def _unpack_prim_array(buf: Any, off: int, char: str, count: int,
                       endian: str) -> Tuple[Any, int]:
    """Bulk-decode ``count`` primitives starting at ``off`` (zero-copy for
    the NumPy path: the returned array is a view over ``buf``)."""
    if char == "c":
        end = off + count
        if end > len(buf):
            raise DecodeError("truncated char array")
        return bytes(buf[off:end]).decode("latin-1"), end
    size = struct.calcsize(char) * count
    end = off + size
    if end > len(buf):
        raise DecodeError("truncated primitive array")
    if _np is not None and count >= _NP_MIN_COUNT and char in _NP_CHARS:
        dtype = _np.dtype(endian + _NP_CHARS[char])
        arr = _np.frombuffer(buf, dtype=dtype, count=count, offset=off)
        return arr, end
    values = list(_array_struct(endian, count, char).unpack_from(buf, off))
    return values, end


def _pack_string(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _unpack_string(buf: Any, off: int) -> Tuple[str, int]:
    if off + 4 > len(buf):
        raise DecodeError("truncated string length")
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    if off + n > len(buf):
        raise DecodeError("truncated string body")
    return bytes(buf[off:off + n]).decode("utf-8"), off + n


def _check_len(values: Any, expected: int, field: str) -> Any:
    if len(values) != expected:
        raise EncodeError(
            f"field {field!r}: expected {expected} elements, "
            f"got {len(values)}")
    return values


# ----------------------------------------------------------------------
# runtime helpers for the compact (varint/zigzag) plan
# ----------------------------------------------------------------------

def _pack_compact_string(value: str) -> bytes:
    raw = value.encode("utf-8")
    return encode_uvarint(len(raw)) + raw


def _unpack_compact_string(buf: Any, off: int) -> Tuple[str, int]:
    n, off = decode_uvarint(buf, off)
    if off + n > len(buf):
        raise DecodeError("truncated string body")
    return bytes(buf[off:off + n]).decode("utf-8"), off + n


def _index(value: Any, kind: str) -> int:
    """``value.__index__()``, or the compact plan's type error for it."""
    try:
        return value.__index__()
    except (AttributeError, TypeError):
        raise EncodeError(f"required an integer for {kind}, got "
                          f"{type(value).__name__}")


def _pack_compact_int_array_scalar(values: Any, kind: str) -> bytes:
    """Encode an array of one integer kind, one element at a time: native
    bytes for a one-byte kind; for a wider kind, from
    :data:`PACKED_MIN_COUNT` elements a mode byte and the elements
    bit-packed against their minimum (or varints, when the span needs more
    than :data:`MAX_PACKED_WIDTH` bits), below it varints alone.

    The path for arrays under :data:`_NP_MIN_COUNT` elements, and the one
    that names the error when the bulk path refuses its input.
    """
    lo, hi = _INT_RANGES[kind]
    signed = kind[0] == "i"
    if _np is not None and isinstance(values, _np.ndarray):
        values = values.tolist()
    ints: List[int] = []
    append = ints.append
    for value in values:
        try:
            n = value.__index__()
        except (AttributeError, TypeError):
            raise EncodeError(
                f"required an integer for {kind}, got "
                f"{type(value).__name__}")
        if not lo <= n <= hi:
            raise EncodeError(f"{n} out of range for {kind}")
        append(n)
    if kind in _BYTE_KINDS:
        return bytes(n & 0xFF for n in ints)
    out = bytearray()
    if len(ints) >= PACKED_MIN_COUNT:
        least = min(ints)
        width = (max(ints) - least).bit_length()
        if width <= MAX_PACKED_WIDTH:
            return _pack_packed_scalar(ints, least, max(width, 1), signed)
        out.append(MODE_VARINT)
    for n in ints:
        if signed:
            n = (n << 1) ^ (n >> 63)
        while n > 0x7F:
            out.append((n & 0x7F) | 0x80)
            n >>= 7
        out.append(n)
    return bytes(out)


def _pack_packed_scalar(ints: List[int], least: int, width: int,
                        signed: bool) -> bytes:
    """Mode byte, minimum, width byte and ``n - least`` in ``width`` bits
    each, little-endian in bit order, one element at a time."""
    out = bytearray((MODE_PACKED,))
    out += encode_uvarint(zigzag(least) if signed else least)
    out.append(width)
    acc = nbits = 0
    for n in ints:
        acc |= (n - least) << nbits
        nbits += width
        if nbits >= 8:          # width <= 8: at most one whole byte
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8
    if nbits:
        out.append(acc)
    return bytes(out)


def _read_int_array_head(buf: Any, off: int, kind: str,
                         count: int) -> Tuple[int, int, int, int]:
    """``(mode, minimum, width, offset of the elements)`` of an array of
    ``count >= PACKED_MIN_COUNT`` elements of ``kind`` at ``off``.

    Every check on the header is made here, before anything is sized by
    ``count``: the mode, then (varints) at least one byte per element
    left, or (packed) the minimum in the kind's range, the width in
    ``1..MAX_PACKED_WIDTH`` and ``count·width`` bits left."""
    end = len(buf)
    if off >= end:
        raise DecodeError("truncated int array header")
    mode = buf[off]
    off += 1
    if mode == MODE_VARINT:
        if count > end - off:
            raise DecodeError("truncated varint")
        return mode, 0, 0, off
    if mode != MODE_PACKED:
        raise DecodeError(f"unknown int array mode {mode}")
    least, off = decode_uvarint(buf, off)
    if kind[0] == "i":
        least = unzigzag(least)
    lo, hi = _INT_RANGES[kind]
    if not lo <= least <= hi:
        raise DecodeError(f"{least} out of range for {kind}")
    if off >= end:
        raise DecodeError("truncated int array header")
    width = buf[off]
    off += 1
    if not 1 <= width <= MAX_PACKED_WIDTH:
        raise DecodeError(
            f"int array width {width} outside 1..{MAX_PACKED_WIDTH}")
    if count * width > 8 * (end - off):
        raise DecodeError("truncated packed int array")
    return mode, least, width, off


def _unpack_compact_int_array_scalar(buf: Any, off: int, kind: str,
                                     count: int) -> Tuple[List[int], int]:
    """Decode ``count`` compact integers of one kind (not a one-byte
    kind), one byte at a time (small arrays, and naming the error in a
    malformed buffer)."""
    lo, hi = _INT_RANGES[kind]
    signed = kind[0] == "i"
    values: List[int] = []
    append = values.append
    end = len(buf)
    if count < PACKED_MIN_COUNT:
        if count > end - off:
            # every varint is at least one byte
            raise DecodeError("truncated varint")
    else:
        mode, least, width, off = _read_int_array_head(buf, off, kind, count)
        if mode == MODE_PACKED:
            mask = (1 << width) - 1
            acc = nbits = 0
            for _ in range(count):
                if nbits < width:       # the head checked these bytes exist
                    acc |= buf[off] << nbits
                    off += 1
                    nbits += 8
                n = least + (acc & mask)
                if n > hi:
                    raise DecodeError(f"{n} out of range for {kind}")
                append(n)
                acc >>= width
                nbits -= width
            if acc:
                raise DecodeError("nonzero padding bits in packed int array")
            return values, off
    for _ in range(count):
        result = 0
        shift = 0
        while True:
            if off >= end:
                raise DecodeError("truncated varint")
            byte = buf[off]
            off += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift >= 70:
                raise DecodeError("varint longer than 10 bytes")
        if result >> 64:
            raise DecodeError("varint exceeds 64 bits")
        n = ((result >> 1) ^ -(result & 1)) if signed else result
        if not lo <= n <= hi:
            raise DecodeError(f"{n} out of range for {kind}")
        append(n)
    return values, off


class _IntKind(NamedTuple):
    """What the block kernels need to know about one integer kind (the
    one-byte kinds never reach them and use ``char`` and ``dtype`` only)."""

    char: str        # struct char of the element
    dtype: Any       # little-endian element dtype (what native decodes to)
    udtype: Any      # unsigned dtype of the same width (zigzag space)
    bits: int
    max_len: int     # bytes in the longest canonical varint of this width
    top_max: int     # largest value byte ``max_len - 1`` may carry


def _int_kind(kind: str) -> _IntKind:
    prim = Primitive(kind)
    bits = 8 * prim.size
    max_len = -(-bits // 7)
    return _IntKind(prim.struct_char,
                    _np.dtype("<" + _NP_CHARS[prim.struct_char]),
                    _np.dtype(f"<u{prim.size}"), bits, max_len,
                    (1 << (bits - 7 * (max_len - 1))) - 1)


_INT_KINDS: Dict[str, _IntKind] = (
    {kind: _int_kind(kind) for kind in _INT_RANGES} if _np is not None else {})


def _as_int_ndarray(values: Any, kind: str,
                    info: _IntKind) -> Optional[Tuple[Any, int, int]]:
    """``(values as a 1-D integer ndarray, its minimum, its maximum)``,
    validated exactly as the scalar loop would — or ``None`` when that
    loop must run instead (to name the bad element, or because the input
    is not a flat integer array)."""
    if isinstance(values, _np.ndarray):
        if values.ndim != 1 or values.dtype.kind not in "iub":
            return None
        arr = values
    else:
        try:
            # one batch pack checks every element's type and range — the
            # same check the native plan makes
            raw = _array_struct(LITTLE, len(values), info.char).pack(*values)
        except struct.error:
            return None
        arr = _np.frombuffer(raw, dtype=info.dtype)
    least, top = int(arr.min()), int(arr.max())
    lo, hi = _INT_RANGES[kind]
    if least < lo or top > hi:
        return None
    return arr, least, top


def _pack_compact_int_block(block: Any, info: _IntKind) -> bytes:
    """Varint-encode one block of elements already of ``info.dtype``."""
    if info.dtype.kind == "i":
        # zigzag in the element's own width
        block = ((block << 1) ^ (block >> (info.bits - 1))).view(info.udtype)
    top = int(block.max())
    if top < 0x80:
        return block.astype(_np.uint8).tobytes()
    # small values in a wide kind: every pass below runs that much narrower
    block = block.astype(_np.min_scalar_type(top), copy=False)
    width = -(-top.bit_length() // 7)
    # one column per 7-bit plane, as wide as the largest element needs;
    # ``keep`` marks the bytes each element really has, so compressing the
    # rows in order is the wire
    planes = _np.empty((len(block), width), dtype=_np.uint8)
    keep = _np.empty((len(block), width), dtype=_np.bool_)
    keep[:, 0] = True
    for k in range(width - 1):
        more = block >= 0x80
        keep[:, k + 1] = more
        planes[:, k] = (block & 0x7F) | (more.view(_np.uint8) << 7)
        block = block >> 7
    planes[:, width - 1] = block
    return planes.ravel().compress(keep.ravel()).tobytes()


@lru_cache(maxsize=MAX_PACKED_WIDTH)
def _group_shifts(width: int) -> Any:
    """``0, width, …, 7·width`` repeated for one block: where each value
    of a group of 8 sits in the group's ``width`` bytes."""
    shifts = _np.tile(_np.arange(0, 8 * width, width, dtype=_np.uint64),
                      _COMPACT_BLOCK // 8)
    shifts.flags.writeable = False
    return shifts


@lru_cache(maxsize=MAX_PACKED_WIDTH)
def _group_weights(width: int) -> Any:
    """``2**(k·width)`` for ``k`` in ``0..7``: the weight of value ``k`` of
    a group of 8 in its packed ``uint64``."""
    weights = _np.left_shift(_np.uint64(1), _group_shifts(width)[:8])
    weights.flags.writeable = False
    return weights


def _pack_packed_block(block: Any, least: int, width: int) -> bytes:
    """Bit-pack ``block - least`` (each below ``2**width``): a group of 8
    values becomes one ``uint64``, the sum of value ``k`` times
    ``2**(k·width)`` (their bits never overlap), whose low ``width`` bytes
    are the wire."""
    count = len(block)
    groups = -(-count // 8)
    values = _np.zeros((groups, 8), dtype=_np.uint8)
    _np.subtract(block, block.dtype.type(least),
                 out=values.reshape(-1)[:count], casting="unsafe")
    packed = _np.einsum("ij,j->i", values, _group_weights(width))
    wire = packed.astype("<u8", copy=False).view(_np.uint8)
    return wire.reshape(groups, 8)[:, :width].tobytes()[
        :(count * width + 7) // 8]


def _pack_compact_int_array(values: Any, kind: str) -> bytes:
    """Bulk-encode an array of one integer kind in the compact form.

    Byte-identical to :func:`_pack_compact_int_array_scalar`; from
    :data:`_NP_MIN_COUNT` elements up the work is done by NumPy in blocks
    of :data:`_COMPACT_BLOCK` elements, so temporaries stay O(block): the
    elements bit-packed against the array's minimum, or varints (in the
    narrowest unsigned dtype that holds the zigzagged kind) when the span
    is wider than :data:`MAX_PACKED_WIDTH` bits; a one-byte kind,
    validated the same way, as the native bulk copy.
    """
    n = len(values)
    if n < _NP_MIN_COUNT or _np is None:
        return _pack_compact_int_array_scalar(values, kind)
    info = _INT_KINDS[kind]
    checked = _as_int_ndarray(values, kind, info)
    if checked is None:
        return _pack_compact_int_array_scalar(values, kind)
    arr, least, top = checked
    if kind in _BYTE_KINDS:
        return _pack_prim_array(arr, info.char, LITTLE)
    blocks = (arr[i:i + _COMPACT_BLOCK].astype(info.dtype, copy=False)
              for i in range(0, n, _COMPACT_BLOCK))
    width = (top - least).bit_length()
    if width > MAX_PACKED_WIDTH:
        return b"".join([bytes((MODE_VARINT,)),
                         *(_pack_compact_int_block(b, info) for b in blocks)])
    width = max(width, 1)
    head = (bytes((MODE_PACKED,))
            + encode_uvarint(zigzag(least) if info.dtype.kind == "i"
                             else least)
            + bytes((width,)))
    return b"".join([head, *(_pack_packed_block(b, least, width)
                             for b in blocks)])


def _unpack_compact_int_block(buf: Any, off: int, info: _IntKind,
                              out: Any) -> Optional[int]:
    """Decode ``len(out)`` canonical varints at ``off`` into ``out`` (of
    ``info.udtype``; un-zigzagged in place) and return the new offset —
    or ``None`` when the window holds anything the scalar loop has to
    judge: too few terminators, a varint longer than the kind needs, or a
    top byte carrying bits the kind has no room for."""
    count = len(out)
    window = _np.frombuffer(
        buf, dtype=_np.uint8, offset=off,
        count=min(len(buf) - off, info.max_len * count))
    if len(window) < count:
        return None
    if int(window[:count].max()) < 0x80:
        out[:] = window[:count]
        used = count
    else:
        # the first ``count`` terminators are the element boundaries
        ends = _np.flatnonzero(window < 0x80)[:count]
        if len(ends) < count:
            return None
        starts = _np.empty_like(ends)
        starts[0] = 0
        _np.add(ends[:-1], 1, out=starts[1:])
        extra = ends - starts           # continuation bytes per element
        width = int(extra.max()) + 1
        if width > info.max_len:
            return None
        # accumulate one 7-bit plane per pass; once the kind's last byte
        # is known to carry no bit beyond its width, nothing can overflow
        # ``info.udtype`` or leave the kind's range
        out[:] = window[starts] & 0x7F
        for k in range(1, width):
            idx = _np.flatnonzero(extra >= k)
            plane = window[starts[idx] + k]
            if k == info.max_len - 1 and int(plane.max()) > info.top_max:
                return None
            out[idx] |= (plane & 0x7F).astype(info.udtype) << (7 * k)
        used = int(ends[-1]) + 1
    if info.dtype.kind == "i":
        sign = out & 1
        out >>= 1
        out ^= _np.negative(sign, out=sign)
    return off + used


def _unpack_packed_block(buf: Any, off: int, least: int, width: int,
                         room: int, out: Any) -> Optional[int]:
    """Unpack ``len(out)`` values of ``width`` bits at ``off`` into ``out``
    (of the kind's unsigned dtype, ``least`` added modulo its width) and
    return the new offset — or ``None`` when a value is above ``room``
    (the kind's maximum less ``least``) or the padding bits of a last,
    partial group are not zero, for the scalar loop to name."""
    count = len(out)
    groups = -(-count // 8)
    size = (count * width + 7) // 8
    padded = _np.zeros(groups * width + 8, dtype=_np.uint8)
    padded[:size] = _np.frombuffer(buf, dtype=_np.uint8, count=size,
                                   offset=off)
    # each group read as the 8 bytes from its first: the bytes past its
    # ``width`` belong to the next group and fall above every mask below
    packed = _np.ndarray((groups,), dtype="<u8", buffer=padded,
                         strides=(width,))
    tail = count % 8
    if tail and int(packed[-1]) >> (tail * width):
        return None
    values = _np.repeat(packed, 8)
    values >>= _group_shifts(width)[:groups * 8]
    values &= (1 << width) - 1
    values = values[:count]
    if room < (1 << width) - 1 and int(values.max()) > room:
        return None
    _np.add(values, _np.uint64(least % (1 << 8 * out.itemsize)), out=out,
            casting="unsafe")
    return off + size


def _unpack_compact_int_array(buf: Any, off: int, kind: str,
                              count: int) -> Tuple[Any, int]:
    """Bulk-decode ``count`` compact integers of one kind.

    Returns the container the native plan returns for that count (a list
    under :data:`_NP_MIN_COUNT` elements, an ndarray of the kind's dtype
    from there up).  The header is checked by
    :func:`_read_int_array_head`; well-formed elements are decoded in
    NumPy blocks, anything else is handed to the scalar loop, which
    raises the typed error.  A one-byte kind has no varints to scan: it
    *is* the native bulk decode, a zero-copy view over ``buf``.
    """
    if kind in _BYTE_KINDS:
        return _unpack_prim_array(buf, off, _BYTE_KINDS[kind], count, LITTLE)
    if count < _NP_MIN_COUNT or _np is None:
        return _unpack_compact_int_array_scalar(buf, off, kind, count)
    mode, least, width, pos = _read_int_array_head(buf, off, kind, count)
    info = _INT_KINDS[kind]
    room = _INT_RANGES[kind][1] - least
    out = _np.empty(count, dtype=info.udtype)
    for i in range(0, count, _COMPACT_BLOCK):
        block = out[i:i + _COMPACT_BLOCK]
        if mode == MODE_PACKED:
            pos = _unpack_packed_block(buf, pos, least, width, room, block)
        else:
            pos = _unpack_compact_int_block(buf, pos, info, block)
        if pos is None:
            values, end = _unpack_compact_int_array_scalar(buf, off, kind,
                                                           count)
            return _np.array(values, dtype=info.dtype), end
    return out.view(info.dtype), pos


# ----------------------------------------------------------------------
# flat-plan analysis
# ----------------------------------------------------------------------

def flatten_fixed_format(fmt: Format, registry: Optional[FormatRegistry],
                         _visiting: Optional[frozenset] = None
                         ) -> Optional[List[Tuple[Tuple[str, ...], str]]]:
    """The flat plan of a fixed-layout format, or ``None``.

    A format has a fixed layout when every field is a fixed-size primitive
    or a nested struct that itself has a fixed layout.  The plan is the
    ordered list of ``(field path, struct char)`` leaves — exactly the
    arguments of the single :class:`struct.Struct` that covers the whole
    message.  Strings, arrays and unresolvable/recursive struct references
    make the format dynamic (``None``): those stay on the general plan.
    """
    if not fmt.fields:
        return None
    visiting = (_visiting or frozenset()) | {fmt.name}
    leaves: List[Tuple[Tuple[str, ...], str]] = []
    for f in fmt.fields:
        sub = _flatten_fixed_type(f.ftype, registry, visiting)
        if sub is None:
            return None
        leaves.extend(((f.name,) + path, char) for path, char in sub)
    return leaves


def _flatten_fixed_type(ftype: FieldType, registry: Optional[FormatRegistry],
                        visiting: frozenset
                        ) -> Optional[List[Tuple[Tuple[str, ...], str]]]:
    if isinstance(ftype, Primitive):
        if not ftype.is_fixed:
            return None
        return [((), ftype.struct_char)]
    if isinstance(ftype, StructRef):
        if registry is None or ftype.format_name in visiting:
            return None
        try:
            sub_fmt = registry.by_name(ftype.format_name)
        except FormatError:
            return None
        return flatten_fixed_format(sub_fmt, registry, visiting)
    return None


def _dict_expr(leaves: List[Tuple[Tuple[str, ...], str]]) -> str:
    """A nested dict-literal expression rebuilding values from leaf targets.

    ``leaves`` pairs each field path with the local variable holding its
    decoded value, in format field order.
    """
    order: List[Tuple[str, Optional[str]]] = []
    groups: Dict[str, List[Tuple[Tuple[str, ...], str]]] = {}
    for path, target in leaves:
        head = path[0]
        if len(path) == 1:
            order.append((head, target))
        else:
            if head not in groups:
                order.append((head, None))
                groups[head] = []
            groups[head].append((path[1:], target))
    parts = []
    for head, target in order:
        if target is not None:
            parts.append(f"{head!r}: {target}")
        else:
            parts.append(f"{head!r}: {_dict_expr(groups[head])}")
    return "{" + ", ".join(parts) + "}"


# ----------------------------------------------------------------------
# source generation
# ----------------------------------------------------------------------

class _SourceBuilder:
    """Accumulates generated source with struct-batching of fixed fields."""

    def __init__(self, endian: str) -> None:
        self.endian = endian
        self.lines: List[str] = []
        self.namespace: Dict[str, Any] = {
            "_struct": struct,
            "_pack_prim_array": _pack_prim_array,
            "_unpack_prim_array": _unpack_prim_array,
            "_pack_string": _pack_string,
            "_unpack_string": _unpack_string,
            "_check_len": _check_len,
            "_EncodeError": EncodeError,
            "_DecodeError": DecodeError,
        }
        self._counter = 0

    def emit(self, text: str, depth: int = 1) -> None:
        """Append the lines of ``text`` indented by ``depth`` (blank lines
        dropped, so a template can leave an optional line empty)."""
        self.lines.extend("    " * depth + line
                          for line in text.splitlines() if line.strip())

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"_{prefix}{self._counter}"

    def add_const(self, prefix: str, value: Any) -> str:
        name = self.fresh(prefix)
        self.namespace[name] = value
        return name

    def compile(self, func_name: str, filename: str) -> Callable:
        source = "\n".join(self.lines)
        code = compile(source, filename, "exec")
        exec(code, self.namespace)
        fn = self.namespace[func_name]
        fn.__pbio_source__ = source  # kept for introspection / debugging
        return fn


class _EncodeBatch:
    """A pending run of fixed-size encode expressions, stored by ``sink``."""

    def __init__(self, sb: _SourceBuilder, sink: str = "_a({})") -> None:
        self.sb = sb
        self.sink = sink
        self.items: List[Tuple[str, str]] = []  # (struct char, value expr)

    def add(self, char: str, expr: str) -> None:
        self.items.append((char, expr))

    def flush(self, depth: int) -> None:
        if not self.items:
            return
        chars = "".join(c for c, _ in self.items)
        packer = self.sb.add_const("s", struct.Struct(self.sb.endian + chars))
        exprs = ", ".join(e for _, e in self.items)
        self.sb.emit(self.sink.format(f"{packer}.pack({exprs})"), depth)
        self.items.clear()


class _DecodeBatch:
    """A pending run of fixed-size decode targets, plus deferred lines that
    must run right after the batch unpacks (nested-struct dict rebuilds)."""

    def __init__(self, sb: _SourceBuilder) -> None:
        self.sb = sb
        self.items: List[Tuple[str, str]] = []  # (struct char, target name)
        self.post: List[str] = []

    def add(self, char: str, target: str) -> None:
        self.items.append((char, target))

    def add_post(self, line: str) -> None:
        self.post.append(line)

    def flush(self, depth: int) -> None:
        if self.items:
            chars = "".join(c for c, _ in self.items)
            unpacker = self.sb.add_const(
                "s", struct.Struct(self.sb.endian + chars))
            targets = ", ".join(t for _, t in self.items)
            trailing = "," if len(self.items) == 1 else ""
            self.sb.emit(
                f"{targets}{trailing} = {unpacker}.unpack_from(_buf, _off)",
                depth)
            # decode chars from bytes to 1-char strings
            for c, t in self.items:
                if c == "c":
                    self.sb.emit(f"{t} = {t}.decode('latin-1')", depth)
            self.sb.emit(f"_off += {unpacker}.size", depth)
            self.items.clear()
        for line in self.post:
            self.sb.emit(line, depth)
        self.post.clear()


def _emit_encode_excepts(sb: _SourceBuilder, name: str, depth: int) -> None:
    """The ``except`` clauses turning a bad value into an
    :class:`EncodeError` naming the format ``name`` evaluates to (``name``
    is generated code: a literal, or the compact plan's ``_fmt``)."""
    prefix = f"'format ' + repr({name}) + ': '"
    sb.emit(f"except KeyError as _e:\n"
            f"    raise _EncodeError({prefix} + 'missing field ' + str(_e))\n"
            f"except (_struct.error, OverflowError, TypeError, "
            f"AttributeError) as _e:\n"
            f"    raise _EncodeError({prefix} + str(_e))", depth)


def _emit_decode_excepts(sb: _SourceBuilder, name: str, depth: int) -> None:
    """The ``except`` clause naming the format ``name`` evaluates to in a
    truncation."""
    sb.emit(f"except _struct.error as _e:\n    raise _DecodeError('format ' "
            f"+ repr({name}) + ': truncated message: ' + str(_e))", depth)


def _emit_varint_encode(sb: _SourceBuilder, src: str, kind: Optional[str],
                        depth: int) -> None:
    """Append ``src`` to the scalar run ``_b`` as a compact integer of
    ``kind`` (``None``: an array count): the oracle's checks and messages
    minus its ``field`` prefix, then the raw byte of a one-byte kind or a
    varint, unrolled under 2**21.  (CPython specialises ``+`` on ints, not
    shifts: hence zigzag as ``2n`` / ``~2n``.)"""
    n = z = sb.fresh("n")
    sb.emit(f"{n} = {src}", depth)
    bits = 64
    if kind is not None:
        lo, hi = _INT_RANGES[kind]
        sb.emit(f"if type({n}) is not int: {n} = _index({n}, {kind!r})\n"
                f"if not {lo} <= {n} <= {hi}: raise _EncodeError("
                f"f'{{{n}}} out of range for {kind}')", depth)
        if kind in _BYTE_KINDS:
            sb.emit(f"_ba({n} & 255)", depth)
            return
        bits = 8 * Primitive(kind).size
        if kind[0] == "i":
            z = sb.fresh("z")
            sb.emit(f"{z} = {n} + {n} if {n} >= 0 else ~({n} + {n})", depth)
    three = (f"_ba({z} & 127 | 128); _ba({z} >> 7 & 127 | 128); "
             f"_ba({z} >> 14)")
    sb.emit(f"if {z} < 128: _ba({z})\n"
            f"elif {z} < 16384: _ba({z} & 127 | 128); _ba({z} >> 7)\n"
            + (f"else: {three}" if bits == 16 else
               f"elif {z} < 2097152: {three}\nelse: _b += _uv({z})"), depth)


def _emit_varint_decode(sb: _SourceBuilder, t: str, kind: Optional[str],
                        depth: int) -> None:
    """Read a compact integer of ``kind`` (``None``: an array count) at
    ``_off`` into ``t``, with :func:`decode_uvarint`'s checks and then the
    kind's range check (needless while the value has too few bits).

    Bytes 2 and 3 are unrolled, then a loop: each is added as ``(byte - 1)
    << shift``, which also drops the continuation bit the byte before left
    at ``shift``.  A varint cut short indexes past the buffer, named
    ``truncated varint`` by the decoder's one ``except IndexError``; a
    one-byte kind is checked explicitly instead."""
    if kind in _BYTE_KINDS:
        sb.emit(f"if _off >= _end: raise _DecodeError('truncated {kind}')\n"
                f"{t} = _buf[_off]\n_off += 1\n"
                + (f"if {t} > 127: {t} -= 256" if kind == "int8" else ""),
                depth)
        return
    bits = 64 if kind is None else 8 * Primitive(kind).size
    signed = kind is not None and kind[0] == "i"
    c, sh = sb.fresh("c"), sb.fresh("sh")
    bad = (f"if {t} >> {bits}: raise _DecodeError(f'{{"
           + (f"{t} >> 1 ^ -({t} & 1)" if signed else t)
           + f"}} out of range for {kind}')")
    sb.emit(f"""{t} = _buf[_off]
if {t} < 128: _off += 1
else:
    {c} = _buf[_off + 1]
    {t} += ({c} - 1) * 128
    if {c} < 128: _off += 2
    else:
        {c} = _buf[_off + 2]
        {t} += ({c} - 1) * 16384
        _off += 3
        if {c} > 127:
            {sh} = 21
            while True:
                {c} = _buf[_off]
                _off += 1
                {t} += ({c} - 1) << {sh}
                if {c} < 128: break
                {sh} += 7
                if {sh} >= 70: raise _DecodeError('varint longer than 10 bytes')
            if {t} >> 64: raise _DecodeError('varint exceeds 64 bits')
            {bad if bits == 32 else ""}
        {bad if bits == 16 else ""}
{f"{t} = ~({t} >> 1) if {t} & 1 else {t} >> 1" if signed else ""}""",
            depth)


def _emit_part(sb: _SourceBuilder, expr: str, depth: int) -> None:
    """Append ``expr`` as a part of its own, never copied into the run."""
    sb.emit(f"if _b:\n    _a(_b); _b = bytearray(); _ba = _b.append\n"
            f"_a({expr})", depth)


class CodecCompiler:
    """Compiles and caches encode/decode functions per (format, endian).

    One compiler is typically shared per registry (see
    :attr:`FormatRegistry.compiler`); nested struct fields resolve their
    sub-codecs lazily through the compiler so that formats can be
    registered in any order.  The caches are invalidated when the registry
    redefines a format (:meth:`FormatRegistry.redefine`).

    ``use_codegen=False`` swaps every codec for the reference interpreter —
    the slow path — which is handy for differential tests and debugging
    generated code.
    """

    def __init__(self, registry: FormatRegistry,
                 use_codegen: bool = True) -> None:
        self.registry = registry
        self.use_codegen = use_codegen
        self._encoders: Dict[Tuple[str, str], EncodeFn] = {}
        self._encoder_parts: Dict[Tuple[str, str], EncodePartsFn] = {}
        self._decoders: Dict[Tuple[str, str], DecodeFn] = {}
        # compact plans are endianness-independent: keyed by fingerprint only
        self._compact_encoders: Dict[str, EncodeFn] = {}
        self._compact_encoder_parts: Dict[str, EncodePartsFn] = {}
        self._compact_decoders: Dict[str, DecodeFn] = {}
        attach = getattr(registry, "_attach_compiler", None)
        if attach is not None:
            attach(self)

    # ------------------------------------------------------------------
    def encoder(self, fmt: Format, endian: str = LITTLE) -> EncodeFn:
        """Return (compiling if needed) the encode function for ``fmt``."""
        key = (fmt.fingerprint, endian)
        fn = self._encoders.get(key)
        if fn is None:
            self._build_encoders(fmt, endian)
            fn = self._encoders[key]
        return fn

    def encoder_parts(self, fmt: Format,
                      endian: str = LITTLE) -> EncodePartsFn:
        """Like :meth:`encoder` but the function returns the un-joined list
        of buffers, for writev-style framing."""
        key = (fmt.fingerprint, endian)
        fn = self._encoder_parts.get(key)
        if fn is None:
            self._build_encoders(fmt, endian)
            fn = self._encoder_parts[key]
        return fn

    def decoder(self, fmt: Format, endian: str = LITTLE) -> DecodeFn:
        """Return the decode function for ``fmt`` with payload ``endian``."""
        key = (fmt.fingerprint, endian)
        fn = self._decoders.get(key)
        if fn is None:
            fn = self._compile_decoder(fmt, endian)
            self._decoders[key] = fn
        return fn

    def compact_encoder(self, fmt: Format, endian: str = LITTLE) -> EncodeFn:
        """The compact (varint/zigzag) encode function for ``fmt``.

        The compact representation is endianness-independent; ``endian``
        is accepted for interface symmetry and ignored.
        """
        fn = self._compact_encoders.get(fmt.fingerprint)
        if fn is None:
            self._build_compact_encoders(fmt)
            fn = self._compact_encoders[fmt.fingerprint]
        return fn

    def compact_encoder_parts(self, fmt: Format,
                              endian: str = LITTLE) -> EncodePartsFn:
        """Like :meth:`compact_encoder` but returning un-joined buffers."""
        fn = self._compact_encoder_parts.get(fmt.fingerprint)
        if fn is None:
            self._build_compact_encoders(fmt)
            fn = self._compact_encoder_parts[fmt.fingerprint]
        return fn

    def compact_decoder(self, fmt: Format, endian: str = LITTLE) -> DecodeFn:
        """The compact (varint/zigzag) decode function for ``fmt``."""
        fn = self._compact_decoders.get(fmt.fingerprint)
        if fn is None:
            fn = self._compile_compact_decoder(fmt)
            self._compact_decoders[fmt.fingerprint] = fn
        return fn

    def invalidate(self) -> None:
        """Drop every cached codec (a registry format was redefined).

        Functions already handed out keep encoding the layout they were
        compiled for; fetch codecs through the compiler after a
        redefinition to pick up the new layout.
        """
        self._encoders.clear()
        self._encoder_parts.clear()
        self._decoders.clear()
        self._compact_encoders.clear()
        self._compact_encoder_parts.clear()
        self._compact_decoders.clear()

    def _interp_plan(self, walk: Callable, fmt: Format,
                     *tail: Any) -> Callable:
        """The ``use_codegen=False`` plan: an :mod:`.interp` ``walk``."""
        registry = self.registry

        def run(*args: Any) -> Any:
            return walk(fmt, *args, registry, *tail)

        run.__pbio_plan__ = "interp"
        return run

    # ------------------------------------------------------------------
    # encoder generation
    # ------------------------------------------------------------------
    def _build_encoders(self, fmt: Format, endian: str) -> None:
        key = (fmt.fingerprint, endian)
        if not self.use_codegen:
            encode = self._interp_plan(interp_encode, fmt, endian)
            self._encoders[key] = encode
            self._encoder_parts[key] = lambda value: [encode(value)]
            return
        leaves = flatten_fixed_format(fmt, self.registry)
        if leaves is not None:
            self._compile_fixed_encoder(fmt, endian, leaves)
        else:
            self._compile_general_encoder(fmt, endian)

    def _compile_fixed_encoder(self, fmt: Format, endian: str,
                               leaves: List[Tuple[Tuple[str, ...], str]]
                               ) -> None:
        sb = _SourceBuilder(endian)
        chars = "".join(char for _, char in leaves)
        packer = sb.add_const("s", struct.Struct(endian + chars))
        exprs = ", ".join(_leaf_encode_expr("_v", path, char)
                          for path, char in leaves)
        for name, ret in (("_encode", f"return {packer}.pack({exprs})"),
                          ("_encode_parts",
                           f"return [{packer}.pack({exprs})]")):
            sb.emit(f"def {name}(_v):\n    try:\n        {ret}", 0)
            _emit_encode_excepts(sb, repr(fmt.name), 1)
        fn = sb.compile("_encode", f"<pbio-encode:{fmt.name}>")
        parts_fn = sb.namespace["_encode_parts"]
        fn.__pbio_plan__ = parts_fn.__pbio_plan__ = "fixed"
        key = (fmt.fingerprint, endian)
        self._encoders[key] = fn
        self._encoder_parts[key] = parts_fn

    def _compile_general_encoder(self, fmt: Format, endian: str) -> None:
        sb = _SourceBuilder(endian)
        sb.emit("def _encode_parts(_v):", 0)
        sb.emit("_out = []")
        sb.emit("_a = _out.append")
        sb.emit("try:")
        sb.emit("pass", 2)
        batch = _EncodeBatch(sb)
        for f in fmt.fields:
            self._gen_encode_field(sb, f.name, f"_v[{f.name!r}]", f.ftype,
                                   batch, depth=2)
        batch.flush(2)
        _emit_encode_excepts(sb, repr(fmt.name), 1)
        body = sb.lines[1:]
        sb.emit("return _out")
        sb.emit("def _encode(_v):", 0)
        sb.lines.extend(body)
        sb.emit("return b''.join(_out)")
        fn = sb.compile("_encode", f"<pbio-encode:{fmt.name}>")
        parts_fn = sb.namespace["_encode_parts"]
        parts_fn.__pbio_source__ = fn.__pbio_source__
        fn.__pbio_plan__ = parts_fn.__pbio_plan__ = "general"
        key = (fmt.fingerprint, endian)
        self._encoders[key] = fn
        self._encoder_parts[key] = parts_fn

    def _gen_encode_field(self, sb: _SourceBuilder, fname: str, src: str,
                          ftype: FieldType, batch: _EncodeBatch,
                          depth: int) -> None:
        if isinstance(ftype, Primitive):
            if ftype.kind == "string":
                batch.flush(depth)
                sb.emit(f"_a(_pack_string({src}))", depth)
            elif ftype.kind == "char":
                batch.add("c", f"{src}.encode('latin-1')")
            else:
                batch.add(ftype.struct_char, src)
            return
        if isinstance(ftype, Array):
            batch.flush(depth)
            var = sb.fresh("arr")
            sb.emit(f"{var} = {src}", depth)
            if ftype.length is not None:
                sb.emit(f"_check_len({var}, {ftype.length}, {fname!r})", depth)
            else:
                lp = sb.add_const("lp", struct.Struct("<I"))
                sb.emit(f"_a({lp}.pack(len({var})))", depth)
            el = ftype.element
            if isinstance(el, Primitive) and el.is_fixed:
                sb.emit(f"_a(_pack_prim_array({var}, {el.struct_char!r}, "
                        f"{sb.endian!r}))", depth)
            else:
                item = sb.fresh("it")
                sb.emit(f"for {item} in {var}:", depth)
                inner = _EncodeBatch(sb)
                self._gen_encode_field(sb, fname, item, el, inner, depth + 1)
                inner.flush(depth + 1)
            return
        if isinstance(ftype, StructRef):
            inlined = self._inline_struct_leaves(ftype)
            if inlined is not None:
                for path, char in inlined:
                    batch.add(char, _leaf_encode_expr(src, path, char))
                return
            batch.flush(depth)
            sub = sb.add_const("sub", _LazyCodec(self, ftype.format_name,
                                                 sb.endian, "encoder"))
            sb.emit(f"_a({sub}({src}))", depth)
            return
        raise FormatError(f"cannot encode type {ftype!r}")

    def _inline_struct_leaves(self, ftype: StructRef
                              ) -> Optional[List[Tuple[Tuple[str, ...], str]]]:
        """The flat plan of a referenced struct, if it has a fixed layout
        and is already registered — lets mixed formats keep nested fixed
        structs inside a single pack/unpack run."""
        try:
            sub_fmt = self.registry.by_name(ftype.format_name)
        except FormatError:
            return None
        return flatten_fixed_format(sub_fmt, self.registry)

    # ------------------------------------------------------------------
    # decoder generation
    # ------------------------------------------------------------------
    def _compile_decoder(self, fmt: Format, endian: str) -> DecodeFn:
        if not self.use_codegen:
            return self._interp_plan(interp_decode, fmt, endian)
        leaves = flatten_fixed_format(fmt, self.registry)
        if leaves is not None:
            return self._compile_fixed_decoder(fmt, endian, leaves)
        return self._compile_general_decoder(fmt, endian)

    def _compile_fixed_decoder(self, fmt: Format, endian: str,
                               leaves: List[Tuple[Tuple[str, ...], str]]
                               ) -> DecodeFn:
        sb = _SourceBuilder(endian)
        unpacker_struct = struct.Struct(
            endian + "".join(char for _, char in leaves))
        unpacker = sb.add_const("s", unpacker_struct)
        pairs = [(path, f"_f{i}") for i, (path, _) in enumerate(leaves)]
        targets = ", ".join(t for _, t in pairs)
        trailing = "," if len(pairs) == 1 else ""
        sb.emit(f"def _decode(_buf, _off):\n    try:\n        {targets}"
                f"{trailing} = {unpacker}.unpack_from(_buf, _off)", 0)
        _emit_decode_excepts(sb, repr(fmt.name), 1)
        for (_, char), (_, target) in zip(leaves, pairs):
            if char == "c":
                sb.emit(f"{target} = {target}.decode('latin-1')")
        sb.emit(f"return {_dict_expr(pairs)}, _off + {unpacker_struct.size}")
        fn = sb.compile("_decode", f"<pbio-decode:{fmt.name}>")
        fn.__pbio_plan__ = "fixed"
        return fn

    def _compile_general_decoder(self, fmt: Format, endian: str) -> DecodeFn:
        sb = _SourceBuilder(endian)
        sb.emit("def _decode(_buf, _off):", 0)
        sb.emit("_v = {}\ntry:\n    pass")
        batch = _DecodeBatch(sb)
        tmp_targets: Dict[str, str] = {}
        for f in fmt.fields:
            target = sb.fresh("f")
            tmp_targets[f.name] = target
            self._gen_decode_field(sb, f.name, target, f.ftype, batch,
                                   depth=2)
        batch.flush(2)
        for fname, target in tmp_targets.items():
            sb.emit(f"_v[{fname!r}] = {target}", 2)
        _emit_decode_excepts(sb, repr(fmt.name), 1)
        sb.emit("return _v, _off")
        fn = sb.compile("_decode", f"<pbio-decode:{fmt.name}>")
        fn.__pbio_plan__ = "general"
        return fn

    def _gen_decode_field(self, sb: _SourceBuilder, fname: str, target: str,
                          ftype: FieldType, batch: _DecodeBatch,
                          depth: int) -> None:
        if isinstance(ftype, Primitive):
            if ftype.kind == "string":
                batch.flush(depth)
                sb.emit(f"{target}, _off = _unpack_string(_buf, _off)", depth)
            else:
                batch.add(ftype.struct_char, target)
            return
        if isinstance(ftype, Array):
            batch.flush(depth)
            if ftype.length is not None:
                count_expr = str(ftype.length)
            else:
                lp = sb.add_const("lp", struct.Struct("<I"))
                cnt = sb.fresh("n")
                sb.emit(f"({cnt},) = {lp}.unpack_from(_buf, _off)", depth)
                sb.emit("_off += 4", depth)
                count_expr = cnt
            el = ftype.element
            if isinstance(el, Primitive) and el.is_fixed:
                sb.emit(f"{target}, _off = _unpack_prim_array(_buf, _off, "
                        f"{el.struct_char!r}, {count_expr}, {sb.endian!r})",
                        depth)
            else:
                sb.emit(f"{target} = []", depth)
                idx = sb.fresh("i")
                sb.emit(f"for {idx} in range({count_expr}):", depth)
                item = sb.fresh("e")
                inner = _DecodeBatch(sb)
                self._gen_decode_field(sb, fname, item, el, inner, depth + 1)
                inner.flush(depth + 1)
                sb.emit(f"{target}.append({item})", depth + 1)
            return
        if isinstance(ftype, StructRef):
            inlined = self._inline_struct_leaves(ftype)
            if inlined is not None:
                pairs = []
                for path, char in inlined:
                    leaf = sb.fresh("g")
                    batch.add(char, leaf)
                    pairs.append((path, leaf))
                batch.add_post(f"{target} = {_dict_expr(pairs)}")
                return
            batch.flush(depth)
            sub = sb.add_const("sub", _LazyCodec(self, ftype.format_name,
                                                 sb.endian, "decoder"))
            sb.emit(f"{target}, _off = {sub}(_buf, _off)", depth)
            return
        raise FormatError(f"cannot decode type {ftype!r}")

    # ------------------------------------------------------------------
    # compact (varint/zigzag) plan generation
    # ------------------------------------------------------------------
    #
    # One generated function per format: registered, non-recursive nested
    # structs are inlined and scalar ints emitted inline, encode writing
    # every scalar into one ``bytearray`` run; strings, arrays and
    # ``_LazyCodec`` sub-plans stay parts of their own.  The local ``_fmt``
    # names the struct whose fields run (an inlined struct names its parent
    # again as it ends), so the function's one set of handlers names the
    # format an error occurred in.  ``path`` is the chain of structs being
    # inlined, outermost first.
    def _compact_inline(self, ftype: StructRef,
                        path: Tuple[str, ...]) -> Optional[Format]:
        """The format to inline for ``ftype``, or ``None`` for a
        ``_LazyCodec``: the ref is recursive or not registered yet."""
        name = ftype.format_name
        if name in path or not self.registry.has_name(name):
            return None
        return self.registry.by_name(name)

    def _compact_source_builder(self) -> _SourceBuilder:
        """A source builder whose struct batches (floats, chars) are
        little-endian — the compact plan's one fixed-layout byte order."""
        sb = _SourceBuilder(LITTLE)
        sb.namespace.update({
            "_uv": encode_uvarint,
            "_index": _index,
            "_pack_compact_string": _pack_compact_string,
            "_unpack_compact_string": _unpack_compact_string,
            "_pack_compact_int_array": _pack_compact_int_array,
            "_unpack_compact_int_array": _unpack_compact_int_array,
        })
        return sb

    def _build_compact_encoders(self, fmt: Format) -> None:
        key = fmt.fingerprint
        if not self.use_codegen:
            encode = self._interp_plan(interp_encode_compact, fmt)
            self._compact_encoders[key] = encode
            self._compact_encoder_parts[key] = lambda value: [encode(value)]
            return
        sb = self._compact_source_builder()
        sb.emit("def _encode_parts(_v):", 0)
        sb.emit("_out = []\n_a = _out.append\n_b = bytearray()\n"
                "_ba = _b.append\ntry:")
        self._gen_compact_encode_struct(sb, fmt, "_v", 2, ())
        _emit_encode_excepts(sb, "_fmt", 1)
        # one copy of a body this long: ``_encode`` only joins the parts
        sb.emit("if _b:\n    _a(_b)\nreturn _out")
        sb.emit("def _encode(_v):\n    return b''.join(_encode_parts(_v))", 0)
        fn = sb.compile("_encode", f"<pbio-compact-encode:{fmt.name}>")
        parts_fn = sb.namespace["_encode_parts"]
        parts_fn.__pbio_source__ = fn.__pbio_source__
        fn.__pbio_plan__ = parts_fn.__pbio_plan__ = "compact"
        self._compact_encoders[key] = fn
        self._compact_encoder_parts[key] = parts_fn

    def _gen_compact_encode_struct(self, sb: _SourceBuilder, fmt: Format,
                                   src: str, depth: int,
                                   path: Tuple[str, ...]) -> None:
        """Encode the fields of ``fmt`` held in local ``src``."""
        batch = _EncodeBatch(sb, "_b += {}")
        sb.emit(f"_fmt = {fmt.name!r}", depth)
        for f in fmt.fields:
            self._gen_compact_encode_field(sb, f.name, f"{src}[{f.name!r}]",
                                           f.ftype, batch, depth,
                                           path + (fmt.name,))
        batch.flush(depth)
        if path:
            sb.emit(f"_fmt = {path[-1]!r}", depth)

    def _gen_compact_encode_field(self, sb: _SourceBuilder, fname: str,
                                  src: str, ftype: FieldType,
                                  batch: _EncodeBatch, depth: int,
                                  path: Tuple[str, ...]) -> None:
        if isinstance(ftype, Primitive):
            kind = ftype.kind
            if kind in _INT_RANGES:
                batch.flush(depth)
                _emit_varint_encode(sb, src, kind, depth)
            elif kind == "string":
                batch.flush(depth)
                _emit_part(sb, f"_pack_compact_string({src})", depth)
            elif kind == "char":
                batch.add("c", f"{src}.encode('latin-1')")
            else:
                batch.add(ftype.struct_char, src)
            return
        if isinstance(ftype, Array):
            batch.flush(depth)
            var = sb.fresh("arr")
            sb.emit(f"{var} = {src}", depth)
            if ftype.length is not None:
                sb.emit(f"_check_len({var}, {ftype.length}, {fname!r})",
                        depth)
            else:
                _emit_varint_encode(sb, f"len({var})", None, depth)
            el = ftype.element
            if isinstance(el, Primitive) and el.kind in _INT_RANGES:
                _emit_part(sb, f"_pack_compact_int_array({var}, "
                           f"{el.kind!r})", depth)
            elif isinstance(el, Primitive) and el.is_fixed:
                _emit_part(sb, f"_pack_prim_array({var}, "
                           f"{el.struct_char!r}, '<')", depth)
            else:
                item = sb.fresh("it")
                sb.emit(f"for {item} in {var}:", depth)
                inner = _EncodeBatch(sb, "_b += {}")
                self._gen_compact_encode_field(sb, fname, item, el, inner,
                                               depth + 1, path)
                inner.flush(depth + 1)
            return
        if isinstance(ftype, StructRef):
            batch.flush(depth)
            sub = self._compact_inline(ftype, path)
            if sub is not None:
                var = sb.fresh("s")
                sb.emit(f"{var} = {src}", depth)
                self._gen_compact_encode_struct(sb, sub, var, depth, path)
                return
            lazy = sb.add_const("sub", _LazyCodec(self, ftype.format_name,
                                                  LITTLE, "compact_encoder"))
            _emit_part(sb, f"{lazy}({src})", depth)
            return
        raise FormatError(f"cannot encode type {ftype!r}")

    def _compile_compact_decoder(self, fmt: Format) -> DecodeFn:
        if not self.use_codegen:
            return self._interp_plan(interp_decode_compact, fmt)
        sb = self._compact_source_builder()
        sb.emit("def _decode(_buf, _off):", 0)
        sb.emit("_end = len(_buf)\ntry:")
        value = self._gen_compact_decode_struct(sb, fmt, 2, ())
        _emit_decode_excepts(sb, "_fmt", 1)
        sb.emit("except IndexError:\n"
                "    raise _DecodeError('truncated varint') from None\n"
                f"return {value}, _off")
        fn = sb.compile("_decode", f"<pbio-compact-decode:{fmt.name}>")
        fn.__pbio_plan__ = "compact"
        return fn

    def _gen_compact_decode_struct(self, sb: _SourceBuilder, fmt: Format,
                                   depth: int, path: Tuple[str, ...]) -> str:
        """Decode the fields of ``fmt``; returns the dict literal that
        rebuilds the value."""
        batch = _DecodeBatch(sb)
        sb.emit(f"_fmt = {fmt.name!r}", depth)
        items = [f"{f.name!r}: " + self._gen_compact_decode_field(
            sb, sb.fresh("f"), f.ftype, batch, depth, path + (fmt.name,))
            for f in fmt.fields]
        batch.flush(depth)
        if path:
            sb.emit(f"_fmt = {path[-1]!r}", depth)
        return "{" + ", ".join(items) + "}"

    def _gen_compact_decode_field(self, sb: _SourceBuilder, target: str,
                                  ftype: FieldType, batch: _DecodeBatch,
                                  depth: int, path: Tuple[str, ...]) -> str:
        """Decode one value into ``target``; returns the expression that
        holds it (``target``, or an inlined struct's dict literal)."""
        if isinstance(ftype, Primitive):
            kind = ftype.kind
            if kind in _INT_RANGES:
                batch.flush(depth)
                _emit_varint_decode(sb, target, kind, depth)
            elif kind == "string":
                batch.flush(depth)
                sb.emit(f"{target}, _off = _unpack_compact_string(_buf, "
                        f"_off)", depth)
            else:
                batch.add(ftype.struct_char, target)
            return target
        if isinstance(ftype, Array):
            batch.flush(depth)
            if ftype.length is not None:
                count_expr = str(ftype.length)
            else:
                count_expr = sb.fresh("n")
                _emit_varint_decode(sb, count_expr, None, depth)
            el = ftype.element
            if isinstance(el, Primitive) and el.kind in _INT_RANGES:
                sb.emit(f"{target}, _off = _unpack_compact_int_array(_buf, "
                        f"_off, {el.kind!r}, {count_expr})", depth)
            elif isinstance(el, Primitive) and el.is_fixed:
                sb.emit(f"{target}, _off = _unpack_prim_array(_buf, _off, "
                        f"{el.struct_char!r}, {count_expr}, '<')", depth)
            else:
                sb.emit(f"{target} = []", depth)
                idx = sb.fresh("i")
                sb.emit(f"for {idx} in range({count_expr}):", depth)
                inner = _DecodeBatch(sb)
                item = self._gen_compact_decode_field(
                    sb, sb.fresh("e"), el, inner, depth + 1, path)
                inner.flush(depth + 1)
                sb.emit(f"{target}.append({item})", depth + 1)
            return target
        if isinstance(ftype, StructRef):
            batch.flush(depth)
            sub = self._compact_inline(ftype, path)
            if sub is not None:
                return self._gen_compact_decode_struct(sb, sub, depth, path)
            lazy = sb.add_const("sub", _LazyCodec(self, ftype.format_name,
                                                  LITTLE, "compact_decoder"))
            sb.emit(f"{target}, _off = {lazy}(_buf, _off)", depth)
            return target
        raise FormatError(f"cannot decode type {ftype!r}")


def _leaf_encode_expr(root: str, path: Tuple[str, ...], char: str) -> str:
    expr = root + "".join(f"[{p!r}]" for p in path)
    if char == "c":
        expr += ".encode('latin-1')"
    return expr


class _LazyCodec:
    """Callable that resolves a nested format's codec on first use.

    Lets mutually referencing formats be registered and compiled in any
    order; after the first call the resolved function is cached on the
    instance, so the steady-state cost is one attribute load.
    """

    __slots__ = ("_compiler", "_name", "_endian", "_which", "_fn")

    def __init__(self, compiler: CodecCompiler, name: str, endian: str,
                 which: str) -> None:
        self._compiler = compiler
        self._name = name
        self._endian = endian
        self._which = which
        self._fn: Optional[Callable] = None

    def __call__(self, *args: Any) -> Any:
        fn = self._fn
        if fn is None:
            fmt = self._compiler.registry.by_name(self._name)
            getter = getattr(self._compiler, self._which)
            fn = getter(fmt, self._endian)
            self._fn = fn
        return fn(*args)
