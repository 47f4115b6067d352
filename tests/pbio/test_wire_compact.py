"""Compact varint wire representation: codec, negotiation, hard cases.

Three layers under test:

* the compact codec itself — compiled plans must be byte-identical to
  the interpreted oracle, and decode back to exactly what the native
  layout decodes to, across every application format the repo ships;
* the per-link handshake — ``wire="auto"`` peers converge on compact
  only after seeing the capability flag, ``"native"`` never sends it,
  and compact *decode* is universal so a forced-compact sender is never
  stranded;
* the failure surface — tampered, truncated and overlong varints must
  die with typed :class:`DecodeError`, never a struct.error or a wrong
  value.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pbio import (DecodeError, EncodeError, Format, FormatRegistry,
                        PbioSession, decode_uvarint, encode_uvarint,
                        interp_decode_compact, interp_encode_compact,
                        unzigzag, zigzag)
from repro.pbio import compiler as compiler_module
from repro.pbio.compiler import (_pack_compact_int_array_scalar,
                                 _unpack_compact_int_array_scalar)
from repro.pbio.types import Array, Primitive, StructRef


def make_fmt(name="sample", spec=None):
    return Format.from_dict(name, spec or {"seq": "int32",
                                           "data": "float64[]"})


def exchange(tx, rx, fmt, value):
    """One application message tx -> rx (announcement rides along)."""
    result = None
    for blob in tx.pack(fmt, value):
        out = rx.unpack(blob)
        if out is not None:
            result = out
    return result


class TestVarintPrimitives:
    def test_zigzag_roundtrip_edges(self):
        for n in (0, -1, 1, 63, -64, 2**63 - 1, -2**63):
            assert unzigzag(zigzag(n)) == n

    def test_uvarint_roundtrip(self):
        for n in (0, 1, 127, 128, 300, 2**32, 2**64 - 1):
            blob = encode_uvarint(n)
            value, offset = decode_uvarint(blob, 0)
            assert (value, offset) == (n, len(blob))

    def test_single_byte_for_small_values(self):
        assert len(encode_uvarint(0)) == 1
        assert len(encode_uvarint(127)) == 1
        assert len(encode_uvarint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(EncodeError):
            encode_uvarint(-1)

    def test_truncated_varint(self):
        with pytest.raises(DecodeError):
            decode_uvarint(b"\x80\x80", 0)

    def test_overlong_varint(self):
        # eleven continuation bytes: more than any 64-bit value needs
        with pytest.raises(DecodeError):
            decode_uvarint(b"\x80" * 11 + b"\x01", 0)

    def test_bits_beyond_64_rejected(self):
        # ten bytes whose top byte pushes past 2**64
        with pytest.raises(DecodeError):
            decode_uvarint(b"\xff" * 9 + b"\x7f", 0)


class TestNegotiation:
    def setup_method(self):
        self.reg = FormatRegistry()
        self.fmt = make_fmt()
        self.reg.register(self.fmt)
        self.value = {"seq": 1, "data": [1.5, 2.5]}

    def test_bad_wire_mode_rejected(self):
        with pytest.raises(ValueError):
            PbioSession(self.reg, wire="gzip")

    def test_auto_peers_converge_on_compact(self):
        a = PbioSession(self.reg, wire="auto")
        b = PbioSession(self.reg, wire="auto")
        # round 1: a has not heard from b yet, so its first send is
        # native — but the announcement it carries advertises capability
        exchange(a, b, self.fmt, self.value)
        assert a.stats.compact_sent == 0
        assert b.peer_compact_capable
        # b replies: it has seen a's advert, so it sends compact
        exchange(b, a, self.fmt, self.value)
        assert b.stats.compact_sent == 1
        # round 2: a has now seen b's advert too — steady state is
        # compact in both directions
        exchange(a, b, self.fmt, self.value)
        assert a.stats.compact_sent == 1
        assert a.wire_rep() == "compact"
        assert b.wire_rep() == "compact"

    def test_native_mode_never_sends_compact(self):
        native = PbioSession(self.reg, wire="native")
        auto = PbioSession(self.reg, wire="auto")
        for _ in range(3):
            exchange(auto, native, self.fmt, self.value)
            exchange(native, auto, self.fmt, self.value)
        assert native.stats.compact_sent == 0
        assert native.wire_rep() == "native"
        # ... and because native never advertised, auto stayed native too
        assert auto.stats.compact_sent == 0

    def test_compact_decode_is_universal(self):
        forced = PbioSession(self.reg, wire="compact")
        plain = PbioSession(self.reg, wire="native")
        _, decoded = exchange(forced, plain, self.fmt, self.value)
        assert forced.stats.compact_sent == 1
        assert plain.stats.compact_received == 1
        assert decoded["seq"] == 1
        assert list(decoded["data"]) == [1.5, 2.5]

    def test_capability_learned_from_compact_data(self):
        """Receiving compact *data* proves the peer speaks compact even
        if its announcement was consumed elsewhere."""
        forced = PbioSession(self.reg, wire="compact")
        forced.pack(self.fmt, self.value)           # burn announcement
        data_only = forced.pack(self.fmt, self.value)
        assert len(data_only) == 1
        rx = PbioSession(self.reg, wire="auto")
        assert not rx.peer_compact_capable
        rx.unpack(data_only[0])
        assert rx.peer_compact_capable
        assert rx.wire_rep() == "compact"

    def test_mark_peer_bridges_paired_sessions(self):
        """The request/reply bridge the stream handler uses: one peer,
        two sessions."""
        out = PbioSession(self.reg, wire="auto")
        assert out.wire_rep() == "native"
        out.mark_peer_compact_capable()
        assert out.wire_rep() == "compact"

    def test_pack_bytes_counts_compact(self):
        tx = PbioSession(self.reg, wire="compact")
        rx = PbioSession(self.reg)
        blob = tx.pack_bytes(self.fmt, self.value)
        _, decoded = rx.unpack_stream(blob)
        assert tx.stats.compact_sent == 1
        assert rx.stats.compact_received == 1
        assert decoded["seq"] == 1


class TestMidSessionRedefine:
    def test_redefine_of_compact_announced_format(self):
        reg = FormatRegistry()
        fmt = make_fmt("evolving", {"seq": "int32", "data": "int32[]"})
        reg.register(fmt)
        tx = PbioSession(reg, wire="compact")
        rx = PbioSession(reg, wire="auto")
        _, decoded = exchange(tx, rx, fmt, {"seq": 1, "data": [7, -7]})
        assert decoded["data"] == [7, -7]

        new_fmt = make_fmt("evolving", {"seq": "int32", "data": "int32[]",
                                        "tag": "string"})
        reg.redefine(new_fmt)
        tx.invalidate()
        rx.invalidate()
        # capability survives invalidation: it belongs to the peer, not
        # to any format
        assert rx.peer_compact_capable
        blobs = tx.pack(new_fmt, {"seq": 2, "data": [1], "tag": "v2"})
        assert len(blobs) == 2                      # re-announced
        result = None
        for blob in blobs:
            out = rx.unpack(blob)
            result = out or result
        _, decoded = result
        assert decoded["tag"] == "v2"
        assert tx.stats.compact_sent == 2


class TestTamperedPayloads:
    def setup_method(self):
        self.reg = FormatRegistry()
        self.fmt = make_fmt("t", {"n": "int64", "s": "string"})
        self.reg.register(self.fmt)
        self.compiler = self.reg.compiler

    def test_truncated_compact_payload(self):
        blob = self.compiler.compact_encoder(self.fmt)(
            {"n": 123456789, "s": "hello"})
        decode = self.compiler.compact_decoder(self.fmt)
        for cut in range(len(blob)):
            with pytest.raises(DecodeError):
                decode(blob[:cut], 0)

    def test_overlong_varint_in_field(self):
        # a varint padded with continuation bytes decodes to the same
        # value but MUST be rejected: one value, one encoding
        blob = b"\x80" * 10 + b"\x01" + b"\x00"
        with pytest.raises(DecodeError):
            self.compiler.compact_decoder(self.fmt)(blob, 0)

    def test_string_length_overrun(self):
        # claims a 100-byte string but provides 3
        blob = encode_uvarint(zigzag(1)) + encode_uvarint(100) + b"abc"
        with pytest.raises(DecodeError):
            self.compiler.compact_decoder(self.fmt)(blob, 0)

    def test_session_rejects_truncated_compact_data(self):
        tx = PbioSession(self.reg, wire="compact")
        rx = PbioSession(self.reg)
        tx.pack_bytes(self.fmt, {"n": 1, "s": "x"})  # announcement
        blob = tx.pack_bytes(self.fmt, {"n": 99999, "s": "payload"})
        with pytest.raises(DecodeError):
            rx.unpack_stream(blob[:-3])

    def test_out_of_range_int_rejected_on_encode(self):
        small = Format.from_dict("small", {"v": "int8"})
        self.reg.register(small)
        with pytest.raises(EncodeError):
            self.compiler.compact_encoder(small)({"v": 1000})

    def test_decoded_int_range_checked(self):
        # zigzag(100000) fits in a varint but not in int16 (a one-byte
        # kind is a raw byte: every value it can carry is in range)
        small = Format.from_dict("small2", {"v": "int16"})
        self.reg.register(small)
        blob = encode_uvarint(zigzag(100000))
        with pytest.raises(DecodeError):
            self.compiler.compact_decoder(small)(blob, 0)


# ----------------------------------------------------------------------
# differential: every application format the repo ships
# ----------------------------------------------------------------------

_INT_BOUNDS = {
    "int8": (-2**7, 2**7 - 1), "int16": (-2**15, 2**15 - 1),
    "int32": (-2**31, 2**31 - 1), "int64": (-2**63, 2**63 - 1),
    "uint8": (0, 2**8 - 1), "uint16": (0, 2**16 - 1),
    "uint32": (0, 2**32 - 1), "uint64": (0, 2**64 - 1),
}


def value_for(ftype, registry, salt=0):
    """A deterministic, boundary-heavy value for any field type."""
    if isinstance(ftype, Primitive):
        kind = ftype.kind
        if kind == "string":
            return ["", "plain", "café ☃"][salt % 3]
        if kind == "char":
            return chr(65 + salt % 26)
        if kind.startswith("float"):
            return [0.0, -1.5, 1048576.25][salt % 3]
        lo, hi = _INT_BOUNDS[kind]
        choices = [0, 1, salt % 100, hi, lo, hi // 3]
        return choices[salt % len(choices)]
    if isinstance(ftype, Array):
        count = ftype.length if ftype.length is not None else 3 + salt % 3
        return [value_for(ftype.element, registry, salt + i)
                for i in range(count)]
    assert isinstance(ftype, StructRef)
    sub = registry.by_name(ftype.format_name)
    return {f.name: value_for(f.ftype, registry, salt + j)
            for j, f in enumerate(sub.fields)}


def app_format_sets():
    from repro.apps.airline import airline_formats
    from repro.apps.extract import extract_formats
    from repro.apps.imaging import image_formats
    from repro.apps.mdbond import bond_formats
    from repro.apps.remoteviz import viz_formats
    return {"airline": airline_formats(), "extract": extract_formats(),
            "imaging": image_formats(), "mdbond": bond_formats(),
            "remoteviz": viz_formats()}


@pytest.mark.parametrize("app", sorted(app_format_sets()))
def test_compact_differential_across_app_formats(app):
    """For every format of every shipped application:

    * compiled compact encode is byte-identical to the interpreted
      oracle;
    * the compact representation decodes back to exactly the value the
      native layout decodes to;
    * a compact-wire session round-trips the value end to end.
    """
    formats = app_format_sets()[app]
    registry = FormatRegistry()
    for fmt in formats.values():
        registry.register(fmt)
    compiler = registry.compiler
    checked = 0
    for salt, fmt in enumerate(formats.values()):
        value = {f.name: value_for(f.ftype, registry, salt + i)
                 for i, f in enumerate(fmt.fields)}

        compact = compiler.compact_encoder(fmt)(value)
        assert compact == interp_encode_compact(fmt, value, registry)

        native = compiler.encoder(fmt)(value)
        native_decoded, native_off = compiler.decoder(fmt)(native, 0)
        compact_decoded, compact_off = compiler.compact_decoder(fmt)(
            compact, 0)
        assert compact_off == len(compact)
        assert native_off == len(native)
        assert compact_decoded == native_decoded

        oracle_decoded, oracle_off = interp_decode_compact(
            fmt, compact, 0, registry)
        assert oracle_off == len(compact)

        # shared registry: announcements carry only the outer format, so
        # nested StructRefs resolve the way the apps themselves run
        tx = PbioSession(registry, wire="compact")
        rx = PbioSession(registry)
        result = None
        for blob in tx.pack(fmt, value):
            out = rx.unpack(blob)
            result = out or result
        got_fmt, session_decoded = result
        assert got_fmt.fingerprint == fmt.fingerprint
        assert session_decoded == native_decoded
        checked += 1
    assert checked == len(formats)


# ----------------------------------------------------------------------
# the vectorised int-array codec (NumPy block kernels from 64 elements)
# ----------------------------------------------------------------------

INT_KINDS = sorted(_INT_BOUNDS)


@functools.lru_cache(maxsize=None)
def array_codec(kind):
    """(registry, format, compiled compact encode, compiled compact
    decode) for a format holding one variable-length ``kind`` array."""
    registry = FormatRegistry()
    fmt = Format.from_dict(f"Arr_{kind}", {"v": f"{kind}[]"})
    registry.register(fmt)
    compiler = registry.compiler
    return (registry, fmt, compiler.compact_encoder(fmt),
            compiler.compact_decoder(fmt))


def boundary_values(kind):
    """Every value where the varint length of ``kind`` changes, +-1, and
    the ends of the kind's range."""
    lo, hi = _INT_BOUNDS[kind]
    out = {lo, hi, 0, 1, lo + 1, hi - 1}
    for k in range(1, 10):
        for base in (1 << (7 * k), 1 << (7 * k - 1)):   # plain / zigzagged
            for v in (base - 1, base, base + 1):
                out.update(x for x in (v, -v) if lo <= x <= hi)
    return sorted(out)


def assert_matches_oracle(kind, values):
    """Compiled compact encode is byte-equal to the interpreted oracle,
    compiled decode value-equal, for one array (list or ndarray)."""
    registry, fmt, encode, decode = array_codec(kind)
    blob = encode({"v": values})
    assert blob == interp_encode_compact(fmt, {"v": values}, registry)
    decoded, end = decode(blob, 0)
    oracle, oracle_end = interp_decode_compact(fmt, blob, 0, registry)
    assert end == oracle_end == len(blob)
    assert list(decoded["v"]) == oracle["v"]
    assert [int(x) for x in oracle["v"]] == [int(x) for x in values]


@st.composite
def int_arrays(draw):
    kind = draw(st.sampled_from(INT_KINDS))
    lo, hi = _INT_BOUNDS[kind]
    element = st.one_of(st.sampled_from(boundary_values(kind)),
                        st.integers(lo, hi),
                        st.integers(max(lo, -100), min(hi, 100)))
    # both sides of the 64-element switch to the block kernels
    values = draw(st.one_of(st.lists(element, max_size=70),
                            st.lists(element, min_size=64, max_size=300)))
    as_type = draw(st.sampled_from(["list", "bool", "npscalar", "ndarray",
                                    "wide", "strided"]))
    if as_type == "bool":
        values = [bool(v & 1) if i % 3 == 0 else v
                  for i, v in enumerate(values)]
    elif as_type == "npscalar":
        values = [np.dtype(kind).type(v) if i % 2 else v
                  for i, v in enumerate(values)]
    elif as_type == "ndarray":
        values = np.array(values, dtype=kind)
    elif as_type == "wide":         # a wider dtype holding in-range values
        values = np.array(values,
                          dtype=np.uint64 if lo == 0 else np.int64)
    elif as_type == "strided":
        values = np.array(values + values, dtype=kind)[::2]
    return kind, values


class TestVectorisedIntArrays:
    @settings(max_examples=150, deadline=None)
    @given(int_arrays())
    def test_differential_against_oracle(self, case):
        kind, values = case
        assert_matches_oracle(kind, values)

    @pytest.mark.parametrize("kind", INT_KINDS)
    def test_every_length_boundary_in_one_array(self, kind):
        values = boundary_values(kind) * 8       # mixed widths, > 64
        assert len(values) >= 64
        assert_matches_oracle(kind, values)
        assert_matches_oracle(kind, np.array(values, dtype=kind))

    @pytest.mark.parametrize("n", [65535, 65536, 65537])
    @pytest.mark.parametrize("kind", INT_KINDS)
    def test_block_boundary_lengths(self, kind, n):
        bounds = boundary_values(kind)
        values = [bounds[(i * 7) % len(bounds)] if i % 5 == 0 else i % 100
                  for i in range(n)]
        assert_matches_oracle(kind, values)

    @pytest.mark.parametrize("kind", INT_KINDS)
    def test_wellformed_arrays_never_reach_the_scalar_loop(self, kind,
                                                           monkeypatch):
        """Falling back is always *correct*, so only this catches a
        kernel that silently refuses input it should handle."""
        def scalar_loop_reached(*args):
            raise AssertionError("scalar loop reached")

        _, _, encode, decode = array_codec(kind)
        values = boundary_values(kind) * 8
        monkeypatch.setattr(compiler_module,
                            "_pack_compact_int_array_scalar",
                            scalar_loop_reached)
        monkeypatch.setattr(compiler_module,
                            "_unpack_compact_int_array_scalar",
                            scalar_loop_reached)
        blob = encode({"v": values})
        assert encode({"v": np.array(values, dtype=kind)}) == blob
        decoded, _ = decode(blob, 0)
        assert list(decoded["v"]) == values

    def test_bool_ndarray(self):
        # the oracle walks elements and NumPy bools refuse ``__index__``;
        # the compiled plan has always gone through ``tolist()``
        flags = np.arange(100) % 3 == 0
        _, _, encode, _ = array_codec("uint8")
        blob = encode({"v": flags})
        assert blob == encode_uvarint(100) + _pack_compact_int_array_scalar(
            flags, "uint8")
        assert_matches_oracle("uint8", flags.tolist())

    @pytest.mark.parametrize("kind", INT_KINDS)
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 5000])
    def test_decoded_container_matches_native(self, kind, count):
        """The negotiated representation must not leak into what handlers
        see: both plans decode the same count to the same container."""
        registry, fmt, encode, decode = array_codec(kind)
        bounds = boundary_values(kind)
        value = {"v": [bounds[i % len(bounds)] for i in range(count)]}
        compiler = registry.compiler
        native, _ = compiler.decoder(fmt)(compiler.encoder(fmt)(value), 0)
        compact, _ = decode(encode(value), 0)
        assert type(compact["v"]) is type(native["v"])
        if count >= 64:
            assert isinstance(compact["v"], np.ndarray)
            assert compact["v"].dtype == native["v"].dtype
        assert list(compact["v"]) == list(native["v"]) == value["v"]

    def test_hostile_count_fails_before_allocating(self):
        """A 5-byte count claiming 2**32 elements over 3 bytes of data
        dies as a truncation, with nothing sized by the count."""
        _, _, _, decode = array_codec("int32")
        blob = encode_uvarint(1 << 32) + b"\x01\x02\x03"
        assert len(blob) == 8
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError, match="^truncated varint$"):
                decode(blob, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_padded_varints_still_decode(self):
        """Non-canonical (zero-padded) varints under 11 bytes are accepted
        by the scalar decoder; the block kernel must agree, whether it
        handles them itself or hands them back."""
        registry, fmt, _, decode = array_codec("uint16")
        for padded in (b"\x85\x00", b"\x85\x80\x00"):
            blob = encode_uvarint(100) + b"\x07" * 50 + padded + b"\x07" * 49
            decoded, end = decode(blob, 0)
            oracle, oracle_end = interp_decode_compact(fmt, blob, 0,
                                                       registry)
            assert end == oracle_end == len(blob)
            assert list(decoded["v"]) == oracle["v"]
            assert decoded["v"][50] == 5


# ----------------------------------------------------------------------
# one-byte kinds: the native byte, never a varint
# ----------------------------------------------------------------------

BYTES_FORMAT = Format.from_dict("Bytes", {
    "a": "int8", "b": "uint8", "x": "float32", "c": "int8[]",
    "d": "uint8[]", "e": "uint8[3]", "n": "int32"})

_I8 = st.integers(-128, 127)
_U8 = st.integers(0, 255)


class TestOneByteKinds:
    @settings(max_examples=150, deadline=None)
    @given(a=_I8, b=_U8, n=st.integers(-2**31, 2**31 - 1),
           c=st.one_of(st.lists(_I8, max_size=70),
                       st.lists(_I8, min_size=64, max_size=200)),
           d=st.one_of(st.lists(_U8, max_size=70),
                       st.lists(_U8, min_size=64, max_size=200)),
           e=st.lists(_U8, min_size=3, max_size=3),
           as_ndarray=st.booleans())
    def test_differential_against_oracle(self, a, b, n, c, d, e, as_ndarray):
        registry = FormatRegistry()
        registry.register(BYTES_FORMAT)
        compiler = registry.compiler
        value = {"a": a, "b": b, "x": 1.5, "c": c, "d": d, "e": e, "n": n}
        if as_ndarray:
            value["c"] = np.array(c, dtype=np.int8)
            value["d"] = np.array(d, dtype=np.int64)   # wide, in range
        blob = compiler.compact_encoder(BYTES_FORMAT)(value)
        assert blob == interp_encode_compact(BYTES_FORMAT, value, registry)
        # scalar, float, count + bytes, count + bytes, 3 bytes, varint
        assert len(blob) == (1 + 1 + 4 + len(encode_uvarint(len(c))) + len(c)
                             + len(encode_uvarint(len(d))) + len(d) + 3
                             + len(encode_uvarint(zigzag(n))))
        decoded, end = compiler.compact_decoder(BYTES_FORMAT)(blob, 0)
        oracle, oracle_end = interp_decode_compact(BYTES_FORMAT, blob, 0,
                                                   registry)
        assert end == oracle_end == len(blob)
        native, _ = compiler.decoder(BYTES_FORMAT)(
            compiler.encoder(BYTES_FORMAT)(value), 0)
        for name in ("a", "b", "n"):
            assert decoded[name] == oracle[name] == native[name] \
                == value[name]
        for name, sent in (("c", c), ("d", d), ("e", e)):
            assert type(decoded[name]) is type(native[name])
            assert list(decoded[name]) == oracle[name] == sent

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 127, 128, 921600])
    def test_uint8_array_is_count_plus_raw_bytes(self, n):
        registry, fmt, encode, decode = array_codec("uint8")
        pixels = (np.arange(n, dtype=np.uint32) % 251).astype(np.uint8)
        blob = encode({"v": pixels})
        assert blob == encode_uvarint(n) + pixels.tobytes()
        assert encode({"v": pixels.tolist()}) == blob
        decoded, end = decode(blob, 0)
        assert end == len(blob)
        compiler = registry.compiler
        native, _ = compiler.decoder(fmt)(
            compiler.encoder(fmt)({"v": pixels}), 0)
        assert type(decoded["v"]) is type(native["v"])
        assert np.array_equal(decoded["v"], pixels)
        if n >= 64:
            # the same zero-copy, read-only view native hands out
            assert decoded["v"].dtype == native["v"].dtype == np.uint8
            assert not decoded["v"].flags.writeable
            assert not decoded["v"].flags.owndata

    def test_values_from_0x80_cost_one_byte_not_two(self):
        _, _, encode, _ = array_codec("uint8")
        assert len(encode({"v": [0xFF] * 100})) == 1 + 100
        _, _, encode, _ = array_codec("int8")
        assert encode({"v": [-1, -128, 127]}) == b"\x03\xff\x80\x7f"

    def test_small_call_struct_bytes_did_not_move(self):
        """The ``perf/`` ``small_call`` struct (``flag`` in {0, 1}): a
        uint8 below 0x80 is the same byte as its varint, so the compact
        bytes are what the all-varint rule produced."""
        registry = FormatRegistry()
        registry.register(Format.from_dict(
            "NestedL0", {"id": "int32", "flag": "uint8",
                         "amount": "float64"}))
        for level in range(1, 9):
            registry.register(Format.from_dict(
                f"NestedL{level}",
                {"id": "int32", "flag": "uint8", "seq": "int16",
                 "child": f"struct NestedL{level - 1}"}))
        value = {"id": -7, "flag": 1, "amount": 2.5}
        expected = (encode_uvarint(zigzag(-7)) + encode_uvarint(1)
                    + b"\x00\x00\x00\x00\x00\x00\x04\x40")
        for level in range(1, 9):
            flag = level % 2
            value = {"id": 1000 * level, "flag": flag, "seq": -level,
                     "child": value}
            expected = (encode_uvarint(zigzag(1000 * level))
                        + encode_uvarint(flag)
                        + encode_uvarint(zigzag(-level)) + expected)
        fmt = registry.by_name("NestedL8")
        assert registry.compiler.compact_encoder(fmt)(value) == expected
        assert interp_encode_compact(fmt, value, registry) == expected

    @pytest.mark.parametrize("kind,bad", [("uint8", 300), ("uint8", -1),
                                          ("int8", 128), ("int8", -129)])
    def test_out_of_range_scalar_is_still_an_encode_error(self, kind, bad):
        registry = FormatRegistry()
        fmt = Format.from_dict(f"One_{kind}", {"v": kind})
        registry.register(fmt)
        compiled = raised_by(registry.compiler.compact_encoder(fmt),
                             {"v": bad})
        oracle = raised_by(interp_encode_compact, fmt, {"v": bad}, registry)
        assert compiled[0] is oracle[0] is EncodeError
        fragment = f"{bad} out of range for {kind}"
        assert fragment in compiled[1] and fragment in oracle[1]

    @pytest.mark.parametrize("kind", ["int8", "uint8"])
    def test_truncated_scalar(self, kind):
        registry = FormatRegistry()
        fmt = Format.from_dict(f"One_{kind}", {"v": kind})
        registry.register(fmt)
        compiled = raised_by(registry.compiler.compact_decoder(fmt), b"", 0)
        oracle = raised_by(interp_decode_compact, fmt, b"", 0, registry)
        assert compiled == (DecodeError, f"truncated {kind}")
        assert oracle == (DecodeError,
                          f"format {fmt.name!r}: truncated {kind}")


def raised_by(fn, *args):
    with pytest.raises((DecodeError, EncodeError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestVectorisedErrorTaxonomy:
    """Malformed input reaches the scalar loop, so every class and
    message of the strict taxonomy is what it was — and what the
    interpreted oracle raises (which adds a ``format``/``field`` prefix
    to range and type errors)."""

    def assert_same_decode_error(self, kind, blob, count, fragment):
        registry, fmt, _, decode = array_codec(kind)
        body_off = len(encode_uvarint(count))
        vec = raised_by(decode, blob, 0)
        assert vec == raised_by(_unpack_compact_int_array_scalar, blob,
                                body_off, kind, count)
        oracle = raised_by(interp_decode_compact, fmt, blob, 0, registry)
        assert vec[0] is oracle[0] is DecodeError
        assert fragment in vec[1] and oracle[1].endswith(vec[1])

    def assert_same_encode_error(self, kind, values, fragment):
        registry, fmt, encode, _ = array_codec(kind)
        vec = raised_by(encode, {"v": values})
        assert vec == raised_by(_pack_compact_int_array_scalar, values, kind)
        oracle = raised_by(interp_encode_compact, fmt, {"v": values},
                           registry)
        assert vec[0] is oracle[0] is EncodeError
        assert fragment in vec[1] and fragment in oracle[1]

    @pytest.mark.parametrize("kind", ["int8", "uint8", "uint16", "int32",
                                      "int64"])
    def test_truncation_at_every_offset(self, kind):
        registry, fmt, encode, decode = array_codec(kind)
        one_byte = kind in ("int8", "uint8")
        # (one-byte kinds: enough elements to decode through NumPy)
        values = boundary_values(kind) * (8 if one_byte else 2)
        blob = encode({"v": values})
        for cut in range(len(blob)):
            vec = raised_by(decode, blob[:cut], 0)
            oracle = raised_by(interp_decode_compact, fmt, blob[:cut], 0,
                               registry)
            if one_byte and cut >= len(encode_uvarint(len(values))):
                # raw bytes have no varint to cut: the bulk path refuses
                # a short body whole, the oracle at the missing element
                assert vec == (DecodeError, "truncated primitive array")
                assert oracle == (DecodeError,
                                  f"format {fmt.name!r}: truncated {kind}")
            else:
                assert vec == oracle == (DecodeError, "truncated varint")

    def test_hostile_count_on_a_one_byte_array(self):
        _, _, _, decode = array_codec("uint8")
        blob = encode_uvarint(1 << 40) + b"\x01\x02\x03"
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError, match="truncated"):
                decode(blob, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_eleven_byte_varint(self):
        blob = (encode_uvarint(100) + b"\x05" * 70 + b"\x80" * 10 + b"\x01"
                + b"\x05" * 29)
        self.assert_same_decode_error("uint64", blob, 100,
                                      "varint longer than 10 bytes")

    def test_tenth_byte_beyond_64_bits(self):
        blob = (encode_uvarint(100) + b"\x05" * 70 + b"\xff" * 9 + b"\x02"
                + b"\x05" * 29)
        self.assert_same_decode_error("uint64", blob, 100,
                                      "varint exceeds 64 bits")

    @pytest.mark.parametrize("at", [0, 70, 99])
    def test_70000_in_uint16_array_on_decode(self, at):
        # (uint8 until one-byte kinds went raw: a byte cannot be out of
        # range, so the narrowest kind that can say this is uint16)
        items = [b"\x05"] * 100
        items[at] = encode_uvarint(70000)
        self.assert_same_decode_error(
            "uint16", encode_uvarint(100) + b"".join(items), 100,
            "70000 out of range for uint16")

    def test_out_of_range_in_a_later_block(self):
        n = 65536 + 100
        items = [b"\x05"] * n
        items[65600] = encode_uvarint(zigzag(1 << 31))
        self.assert_same_decode_error(
            "int32", encode_uvarint(n) + b"".join(items), n,
            f"{1 << 31} out of range for int32")

    def test_first_bad_element_is_the_one_named(self):
        items = [b"\x05"] * 100
        items[40] = encode_uvarint(70000)
        items[60] = encode_uvarint(99999)
        self.assert_same_decode_error(
            "uint16", encode_uvarint(100) + b"".join(items), 100,
            "70000 out of range for uint16")

    def test_300_in_uint8_array_on_encode(self):
        self.assert_same_encode_error("uint8", [5] * 70 + [300] + [5] * 29,
                                      "300 out of range for uint8")
        self.assert_same_encode_error(
            "uint8", np.array([5] * 70 + [300] + [5] * 29),
            "300 out of range for uint8")

    @pytest.mark.parametrize("kind", ["uint8", "uint16", "uint32", "uint64"])
    def test_negative_in_unsigned_kind(self, kind):
        self.assert_same_encode_error(kind, [5] * 99 + [-1],
                                      f"-1 out of range for {kind}")
        self.assert_same_encode_error(
            kind, np.array([5] * 99 + [-1], dtype=np.int64),
            f"-1 out of range for {kind}")

    @pytest.mark.parametrize("bad", [1.5, None, "7"])
    def test_non_integer_element(self, bad):
        self.assert_same_encode_error("int32", [5] * 64 + [bad],
                                      "required an integer")

    def test_float_dtype_ndarray(self):
        self.assert_same_encode_error("int32", np.arange(100) * 0.5,
                                      "required an integer")

    def test_two_dimensional_ndarray(self):
        self.assert_same_encode_error(
            "int32", np.zeros((100, 2), dtype=np.int32),
            "required an integer")
