"""PBIO — Portable Binary I/O, the binary substrate of SOAP-bin.

This package reimplements the PBIO system the paper builds on (Eisenhauer,
Bustamante, Schwan — "Native Data Representation", TPDS 2002): named binary
*formats* that play the role of XML schemas, a *format server* with one-time
registration and caching, native-byte-order sending with receiver-side
conversion ("receiver makes right"), and dynamically generated per-format
encode/decode code.

Typical use::

    from repro import pbio

    registry = pbio.FormatRegistry()
    fmt = pbio.Format.from_dict("sample", {"seq": "int32", "data": "float64[]"})
    registry.register(fmt)

    session = pbio.PbioSession(registry)
    blobs = session.pack(fmt, {"seq": 1, "data": [1.0, 2.0]})
    # ... transmit blobs; at the receiver:
    for blob in blobs:
        result = session.unpack(blob)
    fmt, value = result
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "compiler": ["CodecCompiler", "LITTLE", "BIG", "flatten_fixed_format"],
    "convert": ["compile_converter", "project", "zero_value"],
    "interp": ["interp_encode", "interp_decode", "interp_encode_compact",
               "interp_decode_compact", "encode_uvarint", "decode_uvarint",
               "zigzag", "unzigzag"],
    "errors": ["PbioError", "FormatError", "UnknownFormatError",
               "EncodeError", "DecodeError", "ConversionError"],
    "fmt": ["Field", "Format"],
    "registry": ["FormatRegistry", "default_registry"],
    "server": ["FormatServer", "FormatClient"],
    "stream": ["RecordStreamReader", "RecordStreamWriter",
               "PbioStreamHandler", "pbio_stream_route", "iter_frames",
               "encode_frame", "FRAME_HEADER_SIZE"],
    "types": ["Primitive", "Array", "StructRef", "FieldType", "parse_type",
              "schema_type", "INT8", "INT16", "INT32", "INT64", "UINT8",
              "UINT16", "UINT32", "UINT64", "FLOAT32", "FLOAT64", "CHAR",
              "STRING"],
    "wire": ["PbioSession", "SessionStats", "encode_message",
             "KIND_DATA", "KIND_FORMAT", "HEADER_SIZE", "FLAG_COMPACT",
             "COMPACT_REVISION", "WIRE_MODES"],
})
