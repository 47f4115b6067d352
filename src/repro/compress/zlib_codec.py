"""zlib (DEFLATE) adapter behind the common codec interface.

DEFLATE is LZ77 + Huffman coding, i.e. exactly the "Lempel-Ziv encoding"
family the paper's compressed-XML baseline uses.  The benchmarks default to
this codec because its C implementation gives compression times on modern
hardware that are *relatively* comparable to the paper's 2004 C setup,
whereas the from-scratch pure-Python LZSS would distort time-based
comparisons (it remains fully exercised by the unit/property tests and the
compression ablation bench).
"""

from __future__ import annotations

import zlib

from . import errors
from .errors import CompressError

#: zlib level 6 is the library default and a sane speed/size middle ground.
DEFAULT_LEVEL = 6


def compress(data: bytes, level: int = DEFAULT_LEVEL) -> bytes:
    """Compress with DEFLATE."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CompressError("zlib input must be bytes-like")
    return zlib.compress(bytes(data), level)


def decompress(blob: bytes) -> bytes:
    """Decompress DEFLATE data, normalizing zlib errors.

    Inflates at most :data:`~repro.compress.errors.MAX_OUTPUT_BYTES`: a
    stream that would produce more is refused once that much is out, so
    a small bomb never costs more memory than a plain body could.
    """
    limit = errors.MAX_OUTPUT_BYTES
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(blob, limit + 1)
    except zlib.error as exc:
        raise CompressError(f"corrupt zlib stream: {exc}")
    if len(out) > limit:
        raise CompressError(f"zlib stream inflates past {limit} bytes")
    if not inflater.eof:
        raise CompressError("corrupt zlib stream: incomplete or truncated "
                            "stream")
    return out
