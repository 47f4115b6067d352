"""Compiled fast path vs. interpreted slow path: they must agree, always.

The interpreted field walk (:mod:`repro.pbio.interp`) is the reference
implementation of the wire encoding; the compiled plans (``fixed`` and
``general``) are optimizations of it.  These tests check byte-for-byte
agreement property-style across the whole type system and both byte
orders, plus the cache behavior the registry promises: codecs are
compiled once, shared, and dropped when a format is redefined.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pbio import (BIG, LITTLE, CodecCompiler, Format, FormatRegistry,
                        HEADER_SIZE, KIND_DATA, PbioSession, encode_message,
                        flatten_fixed_format, interp_decode, interp_encode)

# ---------------------------------------------------------------------------
# formats under test
# ---------------------------------------------------------------------------

HDR_FORMAT = Format.from_dict("FpHdr", {"a": "int16", "b": "uint8"})
MIX_FORMAT = Format.from_dict("FpMix", {
    "seq": "int32", "tiny": "int8", "big": "uint64", "ch": "char",
    "label": "string", "ratio": "float64",
    "samples": "float64[]", "ids": "int32[3]", "hdr": "struct FpHdr",
})
FIXED_FORMAT = Format.from_dict("FpFixed", {
    "seq": "int32", "flag": "uint8", "ch": "char",
    "f": "float32", "d": "float64", "hdr": "struct FpHdr",
})


@pytest.fixture()
def registry():
    reg = FormatRegistry()
    for fmt in (HDR_FORMAT, MIX_FORMAT, FIXED_FORMAT):
        reg.register(fmt)
    return reg


# hypothesis value strategies, one per field type in MIX_FORMAT
_hdr_values = st.fixed_dictionaries({
    "a": st.integers(-2**15, 2**15 - 1),
    "b": st.integers(0, 255),
})
_mix_values = st.fixed_dictionaries({
    "seq": st.integers(-2**31, 2**31 - 1),
    "tiny": st.integers(-128, 127),
    "big": st.integers(0, 2**64 - 1),
    "ch": st.characters(min_codepoint=0, max_codepoint=255),
    "label": st.text(max_size=40),
    "ratio": st.floats(allow_nan=False),
    "samples": st.lists(st.floats(allow_nan=False), max_size=20),
    "ids": st.lists(st.integers(-2**31, 2**31 - 1),
                    min_size=3, max_size=3),
    "hdr": _hdr_values,
})
_fixed_values = st.fixed_dictionaries({
    "seq": st.integers(-2**31, 2**31 - 1),
    "flag": st.integers(0, 255),
    "ch": st.characters(min_codepoint=0, max_codepoint=255),
    "f": st.floats(allow_nan=False, width=32),
    "d": st.floats(allow_nan=False),
    "hdr": _hdr_values,
})


# ---------------------------------------------------------------------------
# differential: compiled plans agree with the interpreter
# ---------------------------------------------------------------------------

class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(value=_mix_values, endian=st.sampled_from([LITTLE, BIG]))
    def test_general_plan_matches_interp(self, value, endian):
        registry = FormatRegistry()
        registry.register(HDR_FORMAT)
        registry.register(MIX_FORMAT)
        compiler = registry.compiler
        fast = compiler.encoder(MIX_FORMAT, endian)(value)
        slow = interp_encode(MIX_FORMAT, value, registry, endian)
        assert fast == slow
        fast_value, fast_off = compiler.decoder(MIX_FORMAT, endian)(fast, 0)
        slow_value, slow_off = interp_decode(MIX_FORMAT, fast, 0,
                                             registry, endian)
        assert fast_off == slow_off == len(fast)
        assert fast_value == slow_value

    @settings(max_examples=60, deadline=None)
    @given(value=_fixed_values, endian=st.sampled_from([LITTLE, BIG]))
    def test_fixed_plan_matches_interp(self, value, endian):
        registry = FormatRegistry()
        registry.register(HDR_FORMAT)
        registry.register(FIXED_FORMAT)
        compiler = registry.compiler
        fast = compiler.encoder(FIXED_FORMAT, endian)(value)
        slow = interp_encode(FIXED_FORMAT, value, registry, endian)
        assert fast == slow
        fast_value, fast_off = compiler.decoder(FIXED_FORMAT, endian)(fast, 0)
        slow_value, slow_off = interp_decode(FIXED_FORMAT, fast, 0,
                                             registry, endian)
        assert fast_off == slow_off == len(fast)
        assert fast_value == slow_value

    def test_deep_nested_struct_both_endians(self, registry):
        from repro.bench.datagen import (nested_struct_value,
                                         register_nested_formats)
        fmt = register_nested_formats(registry, 6)
        value = nested_struct_value(6)
        compiler = registry.compiler
        for endian in (LITTLE, BIG):
            fast = compiler.encoder(fmt, endian)(value)
            assert fast == interp_encode(fmt, value, registry, endian)
            decoded, _ = compiler.decoder(fmt, endian)(fast, 0)
            assert decoded == value

    def test_parts_join_equals_single_buffer(self, registry):
        compiler = registry.compiler
        value = {"seq": 7, "tiny": -1, "big": 2**40, "ch": "x",
                 "label": "hello", "ratio": 2.5,
                 "samples": [1.0, 2.0], "ids": [1, 2, 3],
                 "hdr": {"a": -3, "b": 9}}
        parts = compiler.encoder_parts(MIX_FORMAT)(value)
        assert isinstance(parts, list)
        assert b"".join(parts) == compiler.encoder(MIX_FORMAT)(value)


# ---------------------------------------------------------------------------
# plan selection
# ---------------------------------------------------------------------------

class TestPlanSelection:
    def test_fixed_layout_gets_single_pack_plan(self, registry):
        compiler = registry.compiler
        assert compiler.encoder(FIXED_FORMAT).__pbio_plan__ == "fixed"
        assert compiler.decoder(FIXED_FORMAT).__pbio_plan__ == "fixed"
        leaves = flatten_fixed_format(FIXED_FORMAT, registry)
        assert leaves is not None
        # nested struct fields are flattened into the leaf walk
        assert (("hdr", "a"), "h") in leaves

    def test_variable_layout_gets_general_plan(self, registry):
        compiler = registry.compiler
        assert compiler.encoder(MIX_FORMAT).__pbio_plan__ == "general"
        assert flatten_fixed_format(MIX_FORMAT, registry) is None

    def test_string_blocks_fixed_plan(self, registry):
        fmt = Format.from_dict("FpS", {"n": "int32", "s": "string"})
        registry.register(fmt)
        assert flatten_fixed_format(fmt, registry) is None

    def test_interp_fallback_when_codegen_disabled(self, registry):
        compiler = CodecCompiler(registry, use_codegen=False)
        assert compiler.encoder(FIXED_FORMAT).__pbio_plan__ == "interp"
        assert compiler.decoder(MIX_FORMAT).__pbio_plan__ == "interp"


# ---------------------------------------------------------------------------
# registry-owned caches and invalidation
# ---------------------------------------------------------------------------

class TestCodecCache:
    def test_codecs_are_cached_per_format_and_endian(self, registry):
        compiler = registry.compiler
        assert compiler.encoder(MIX_FORMAT) is compiler.encoder(MIX_FORMAT)
        assert compiler.decoder(MIX_FORMAT) is compiler.decoder(MIX_FORMAT)
        assert compiler.encoder(MIX_FORMAT, LITTLE) is not \
            compiler.encoder(MIX_FORMAT, BIG)

    def test_registry_shares_one_compiler(self, registry):
        assert registry.compiler is registry.compiler

    def test_redefine_invalidates_compiled_codecs(self, registry):
        compiler = registry.compiler
        old_fmt = Format.from_dict("FpEvolve", {"x": "int32"})
        fid = registry.register(old_fmt)
        old_encode = compiler.encoder(old_fmt)
        assert old_encode({"x": 1}) == struct.pack("<i", 1)

        epoch = registry.codec_epoch
        new_fmt = Format.from_dict("FpEvolve", {"x": "int32", "y": "float64"})
        assert registry.redefine(new_fmt) == fid  # wire id is preserved
        assert registry.codec_epoch == epoch + 1
        assert registry.by_name("FpEvolve").fingerprint == new_fmt.fingerprint

        new_encode = compiler.encoder(new_fmt)
        assert new_encode is not old_encode
        assert new_encode({"x": 1, "y": 2.0}) == struct.pack("<id", 1, 2.0)
        # callers holding the old codec keep the old layout
        assert old_encode({"x": 1}) == struct.pack("<i", 1)

    def test_redefine_clears_converter_cache(self, registry):
        from repro.pbio import compile_converter
        src = Format.from_dict("FpConvSrc", {"x": "int32", "y": "int32"})
        dst = Format.from_dict("FpConvDst", {"x": "int32"})
        registry.register(src)
        registry.register(dst)
        conv = compile_converter(src, dst, registry)
        key = (src.fingerprint, dst.fingerprint)
        assert registry.converter_cache[key] is conv
        assert compile_converter(src, dst, registry) is conv
        registry.redefine(Format.from_dict("FpConvSrc", {"x": "int64"}))
        assert key not in registry.converter_cache


# ---------------------------------------------------------------------------
# zero-copy wire path
# ---------------------------------------------------------------------------

class TestZeroCopy:
    def test_session_unpack_decodes_a_view_of_the_input(self):
        registry = FormatRegistry()
        fmt = Format.from_dict("FpView", {"seq": "int32",
                                          "data": "float64[]"})
        fid = registry.register(fmt)
        payload = registry.compiler.encoder(fmt)(
            {"seq": 1, "data": np.arange(64.0)})
        blob = bytearray(encode_message(KIND_DATA, fid, payload))
        assert blob[HEADER_SIZE:] == payload
        _, value = PbioSession(registry).unpack(blob)
        assert value["data"][-1] == 63.0
        # the array is a view over the input, not a copy: a write to the
        # buffer shows through it
        blob[-8:] = struct.pack("<d", -1.0)
        assert value["data"][-1] == -1.0

    def test_encode_message_accepts_part_lists(self):
        parts = [b"\x01\x02", b"\x03", b"\x04"]
        assert encode_message(KIND_DATA, 5, parts) == \
            encode_message(KIND_DATA, 5, b"".join(parts))

    def test_decoder_accepts_memoryview(self, registry):
        compiler = registry.compiler
        value = {"seq": 1, "flag": 2, "ch": "q", "f": 0.5, "d": 1.25,
                 "hdr": {"a": 3, "b": 4}}
        payload = compiler.encoder(FIXED_FORMAT)(value)
        view = memoryview(b"\x00" * 3 + payload)[3:]
        decoded, offset = compiler.decoder(FIXED_FORMAT)(view, 0)
        assert decoded == value
        assert offset == len(payload)

    def test_interp_accepts_memoryview(self, registry):
        value = {"seq": 9, "tiny": 1, "big": 2, "ch": "a", "label": "s",
                 "ratio": 1.0, "samples": [2.0], "ids": [4, 5, 6],
                 "hdr": {"a": 1, "b": 2}}
        payload = interp_encode(MIX_FORMAT, value, registry)
        decoded, _ = interp_decode(MIX_FORMAT, memoryview(payload), 0,
                                   registry)
        assert decoded == value

    def test_session_unpack_from_memoryview(self, registry):
        sender = PbioSession(registry)
        receiver = PbioSession(registry)
        value = {"seq": 3, "flag": 1, "ch": "z", "f": 1.5, "d": -2.5,
                 "hdr": {"a": 7, "b": 8}}
        stream = sender.pack_bytes(FIXED_FORMAT, value)
        fmt, decoded = receiver.unpack_stream(memoryview(stream))
        assert fmt.fingerprint == FIXED_FORMAT.fingerprint
        assert decoded == value

    def test_pack_bytes_single_join_framing(self, registry):
        session = PbioSession(registry)
        value = {"seq": 3, "flag": 1, "ch": "z", "f": 1.5, "d": -2.5,
                 "hdr": {"a": 7, "b": 8}}
        first = session.pack_bytes(FIXED_FORMAT, value)
        again = session.pack_bytes(FIXED_FORMAT, value)
        # first send carries the format announcement, later sends do not
        assert len(first) > len(again)
        payload = registry.compiler.encoder(FIXED_FORMAT)(value)
        assert again[HEADER_SIZE:] == payload
