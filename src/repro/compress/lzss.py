"""A from-scratch LZSS (Lempel-Ziv-Storer-Szymanski) codec.

The paper's compressed-XML baseline uses "Lempel-Ziv encoding" (§IV-B.e).
This module implements the classic LZSS variant of LZ77: a sliding window
with (offset, length) back-references, literals passed through, and a flag
byte grouping eight tokens.

Wire layout::

    magic 'LZS1' | u32 original length | token stream

    token stream := groups of 1 flag byte + 8 tokens
    flag bit i (LSB first) = 1 -> token i is a literal byte
                           = 0 -> token i is a match: u16 packed as
                                  (offset-1) << 4 | (length - MIN_MATCH),
                                  little-endian

Window 4096 bytes, match lengths 3..18 — the textbook parameters.

Matching uses a chained hash table over 3-byte prefixes, so compression is
O(n · chain) rather than O(n · window).
"""

from __future__ import annotations

import struct
from typing import Dict, List

from . import errors
from .errors import CompressError

MAGIC = b"LZS1"
WINDOW = 4096
MIN_MATCH = 3
MAX_MATCH = 18
_MAX_CHAIN = 32  # bound on match-candidate probes per position


def compress(data: bytes) -> bytes:
    """Compress ``data`` with LZSS.

    >>> decompress(compress(b"abcabcabcabc")) == b"abcabcabcabc"
    True
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CompressError("LZSS input must be bytes-like")
    data = bytes(data)
    n = len(data)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", n)

    # position chains keyed by 3-byte prefix
    heads: Dict[bytes, List[int]] = {}

    tokens: List[bytes] = []   # pending group of up to 8 tokens
    flags = 0
    nflags = 0

    def flush_group() -> None:
        nonlocal flags, nflags
        if nflags == 0:
            return
        out.append(flags)
        for t in tokens:
            out.extend(t)
        tokens.clear()
        flags = 0
        nflags = 0

    pos = 0
    while pos < n:
        best_len = 0
        best_off = 0
        if pos + MIN_MATCH <= n:
            key = data[pos:pos + MIN_MATCH]
            candidates = heads.get(key)
            if candidates:
                limit = min(MAX_MATCH, n - pos)
                lo = pos - WINDOW
                # probe most recent candidates first
                for cand in reversed(candidates[-_MAX_CHAIN:]):
                    if cand < lo:
                        break
                    length = MIN_MATCH
                    while (length < limit
                           and data[cand + length] == data[pos + length]):
                        length += 1
                    if length > best_len:
                        best_len = length
                        best_off = pos - cand
                        if length == limit:
                            break

        if best_len >= MIN_MATCH:
            packed = ((best_off - 1) << 4) | (best_len - MIN_MATCH)
            tokens.append(struct.pack("<H", packed))
            # flag bit stays 0
            nflags += 1
            end = pos + best_len
            while pos < end:
                if pos + MIN_MATCH <= n:
                    heads.setdefault(data[pos:pos + MIN_MATCH], []).append(pos)
                pos += 1
        else:
            tokens.append(data[pos:pos + 1])
            flags |= 1 << nflags
            nflags += 1
            if pos + MIN_MATCH <= n:
                heads.setdefault(data[pos:pos + MIN_MATCH], []).append(pos)
            pos += 1

        if nflags == 8:
            flush_group()

    flush_group()
    return bytes(out)


def decompress(blob: bytes) -> bytes:
    """Inverse of :func:`compress`.

    Raises :class:`~repro.compress.errors.CompressError` on truncated or
    corrupt input, including back-references that point before the start of
    the output, and on a declared length over
    :data:`~repro.compress.errors.MAX_OUTPUT_BYTES` before decoding any.
    """
    blob = bytes(blob)
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise CompressError("bad LZSS header")
    (orig_len,) = struct.unpack_from("<I", blob, 4)
    if orig_len > errors.MAX_OUTPUT_BYTES:
        raise CompressError(f"LZSS stream declares {orig_len} bytes, over "
                            f"{errors.MAX_OUTPUT_BYTES}")
    out = bytearray()
    pos = 8
    n = len(blob)
    while len(out) < orig_len:
        if pos >= n:
            raise CompressError("truncated LZSS stream (missing flag byte)")
        flags = blob[pos]
        pos += 1
        for bit in range(8):
            if len(out) >= orig_len:
                break
            if flags & (1 << bit):
                if pos >= n:
                    raise CompressError("truncated LZSS literal")
                out.append(blob[pos])
                pos += 1
            else:
                if pos + 2 > n:
                    raise CompressError("truncated LZSS match token")
                (packed,) = struct.unpack_from("<H", blob, pos)
                pos += 2
                offset = (packed >> 4) + 1
                length = (packed & 0x0F) + MIN_MATCH
                start = len(out) - offset
                if start < 0:
                    raise CompressError("LZSS back-reference out of range")
                for i in range(length):
                    out.append(out[start + i])
    if len(out) != orig_len:
        raise CompressError("LZSS length mismatch")
    return bytes(out)
