"""Lempel-Ziv compression substrate (compressed-XML SOAP baseline).

Three codecs behind one interface: a from-scratch LZSS (sliding window), a
from-scratch LZW (dictionary), and a zlib/DEFLATE adapter::

    from repro.compress import get_codec
    codec = get_codec("lzss")
    blob = codec.compress(b"data")
    assert codec.decompress(blob) == b"data"
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "api": ["Codec", "get_codec", "codec_names", "DEFAULT_CODEC_NAME"],
    "errors": ["CompressError"],
}, submodules=("lzss", "lzw", "zlib_codec"))
