"""Uniform codec interface over the Lempel-Ziv implementations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from . import lzss, zlib_codec
from .errors import CompressError


@dataclass(frozen=True)
class Codec:
    """A (compress, decompress) pair with a name, usable as a strategy."""

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]

    def ratio(self, data: bytes) -> float:
        """Compression ratio (original / compressed) on ``data``."""
        compressed = self.compress(data)
        if not compressed:
            return float("inf")
        return len(data) / len(compressed)


_CODECS: Dict[str, Codec] = {
    "lzss": Codec("lzss", lzss.compress, lzss.decompress),
    "zlib": Codec("zlib", zlib_codec.compress, zlib_codec.decompress),
}

#: Codec used by the SOAP compressed-XML path unless overridden.
DEFAULT_CODEC_NAME = "zlib"


def get_codec(name: str = DEFAULT_CODEC_NAME) -> Codec:
    """Look up a codec by name (``lzss`` or ``zlib``).

    >>> get_codec("lzss").name
    'lzss'
    """
    try:
        return _CODECS[name]
    except KeyError:
        raise CompressError(
            f"unknown codec {name!r}; available: {sorted(_CODECS)}")


def codec_names() -> list:
    """All registered codec names, sorted."""
    return sorted(_CODECS)
