"""Round-trip and failure tests for the generated PBIO encoders/decoders."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pbio import (BIG, LITTLE, Array, CodecCompiler, DecodeError,
                        EncodeError, Field, Format, FormatRegistry,
                        Primitive, StructRef)


@pytest.fixture()
def registry():
    reg = FormatRegistry()
    reg.register(Format.from_dict("point", {"x": "float64", "y": "float64"}))
    return reg


@pytest.fixture()
def compiler(registry):
    return CodecCompiler(registry)


def roundtrip(compiler, fmt, value, endian=LITTLE):
    payload = compiler.encoder(fmt, endian)(value)
    decoded, consumed = compiler.decoder(fmt, endian)(payload, 0)
    assert consumed == len(payload)
    return decoded


class TestScalars:
    def test_all_integer_kinds(self, compiler):
        fmt = Format.from_dict("ints", {
            "a": "int8", "b": "int16", "c": "int32", "d": "int64",
            "e": "uint8", "f": "uint16", "g": "uint32", "h": "uint64"})
        value = {"a": -5, "b": -300, "c": -70000, "d": -2**40,
                 "e": 200, "f": 60000, "g": 2**31, "h": 2**63}
        assert roundtrip(compiler, fmt, value) == value

    def test_floats(self, compiler):
        fmt = Format.from_dict("floats", {"f": "float32", "d": "float64"})
        out = roundtrip(compiler, fmt, {"f": 1.5, "d": 3.141592653589793})
        assert out["f"] == 1.5
        assert out["d"] == 3.141592653589793

    def test_char(self, compiler):
        fmt = Format.from_dict("c", {"ch": "char"})
        assert roundtrip(compiler, fmt, {"ch": "Z"}) == {"ch": "Z"}

    def test_string_unicode(self, compiler):
        fmt = Format.from_dict("s", {"name": "string"})
        value = {"name": "héllo wörld ☃"}
        assert roundtrip(compiler, fmt, value) == value

    def test_empty_string(self, compiler):
        fmt = Format.from_dict("s", {"name": "string"})
        assert roundtrip(compiler, fmt, {"name": ""}) == {"name": ""}

    def test_empty_format(self, compiler):
        fmt = Format("nothing", [])
        assert compiler.encoder(fmt)({}) == b""
        assert roundtrip(compiler, fmt, {}) == {}

    def test_wire_size_is_packed(self, compiler):
        """No padding: int32+float64+int8 is exactly 13 bytes (the paper's
        size advantage over XML depends on packed layouts)."""
        fmt = Format.from_dict("packed", {"a": "int32", "b": "float64",
                                          "c": "int8"})
        assert len(compiler.encoder(fmt)({"a": 1, "b": 2.0, "c": 3})) == 13


class TestArrays:
    def test_var_array_roundtrip(self, compiler):
        fmt = Format.from_dict("v", {"data": "int32[]"})
        value = {"data": list(range(100))}
        out = roundtrip(compiler, fmt, value)
        assert list(out["data"]) == value["data"]

    def test_var_array_empty(self, compiler):
        fmt = Format.from_dict("v", {"data": "int32[]"})
        out = roundtrip(compiler, fmt, {"data": []})
        assert list(out["data"]) == []

    def test_fixed_array_roundtrip(self, compiler):
        fmt = Format.from_dict("f", {"data": "float64[4]"})
        out = roundtrip(compiler, fmt, {"data": [1.0, 2.0, 3.0, 4.0]})
        assert list(out["data"]) == [1.0, 2.0, 3.0, 4.0]

    def test_fixed_array_wrong_length_rejected(self, compiler):
        fmt = Format.from_dict("f", {"data": "float64[4]"})
        with pytest.raises(EncodeError):
            compiler.encoder(fmt)({"data": [1.0]})

    def test_numpy_array_fast_path(self, compiler):
        fmt = Format.from_dict("np", {"data": "float64[]"})
        arr = np.linspace(0.0, 1.0, 1000)
        out = roundtrip(compiler, fmt, {"data": arr})
        np.testing.assert_array_equal(np.asarray(out["data"]), arr)

    def test_numpy_dtype_conversion_on_encode(self, compiler):
        """An int64 numpy array encodes fine into an int32 field."""
        fmt = Format.from_dict("np", {"data": "int32[]"})
        arr = np.arange(10)  # default int64 on linux
        out = roundtrip(compiler, fmt, {"data": arr})
        assert list(np.asarray(out["data"])) == list(range(10))

    def test_large_array_decodes_as_numpy(self, compiler):
        fmt = Format.from_dict("np", {"data": "float64[]"})
        out = roundtrip(compiler, fmt, {"data": list(range(256))})
        assert isinstance(out["data"], np.ndarray)

    def test_small_array_decodes_as_list(self, compiler):
        fmt = Format.from_dict("np", {"data": "float64[]"})
        assert isinstance(roundtrip(compiler, fmt, {"data": [1.0]})["data"],
                          list)

    def test_char_array_as_str(self, compiler):
        fmt = Format.from_dict("cs", {"tag": "char[4]"})
        assert roundtrip(compiler, fmt, {"tag": "abcd"}) == {"tag": "abcd"}

    def test_char_array_as_bytes(self, compiler):
        fmt = Format.from_dict("cs", {"tag": "char[4]"})
        assert roundtrip(compiler, fmt, {"tag": b"abcd"}) == {"tag": "abcd"}

    def test_string_array(self, compiler):
        fmt = Format.from_dict("sa", {"names": "string[]"})
        value = {"names": ["a", "bb", "ccc"]}
        assert roundtrip(compiler, fmt, value) == value

    def test_matrix(self, compiler):
        fmt = Format.from_dict("m", {"rows": "int32[3][]"})
        value = {"rows": [[1, 2, 3], [4, 5, 6]]}
        out = roundtrip(compiler, fmt, value)
        assert [list(r) for r in out["rows"]] == value["rows"]


class TestNestedStructs:
    def test_struct_field(self, registry, compiler):
        fmt = Format.from_dict("holder", {"p": "struct point"})
        registry.register(fmt)
        value = {"p": {"x": 1.0, "y": 2.0}}
        assert roundtrip(compiler, fmt, value) == value

    def test_struct_array(self, registry, compiler):
        fmt = Format.from_dict("path", {"pts": "struct point[]"})
        registry.register(fmt)
        value = {"pts": [{"x": float(i), "y": -float(i)} for i in range(5)]}
        assert roundtrip(compiler, fmt, value) == value

    def test_deep_nesting(self, registry, compiler):
        """Mirrors the paper's nested-struct microbenchmark workload."""
        depth = 10
        registry.register(Format.from_dict(
            "level0", {"payload": "int32", "tag": "string"}))
        for i in range(1, depth + 1):
            registry.register(Format.from_dict(
                f"level{i}",
                {"payload": "int32", "child": f"struct level{i-1}"}))
        fmt = registry.by_name(f"level{depth}")

        def build(level):
            if level == 0:
                return {"payload": 0, "tag": "leaf"}
            return {"payload": level, "child": build(level - 1)}

        value = build(depth)
        assert roundtrip(compiler, fmt, value) == value

    def test_registration_order_does_not_matter(self, registry, compiler):
        outer = Format.from_dict("outer_first", {"in": "struct inner_late"})
        registry.register(outer)
        encoder = compiler.encoder(outer)  # compiled before inner exists
        registry.register(Format.from_dict("inner_late", {"v": "int32"}))
        payload = encoder({"in": {"v": 9}})
        decoded, _ = compiler.decoder(outer)(payload, 0)
        assert decoded == {"in": {"v": 9}}


class TestByteOrder:
    """Receiver-makes-right: a big-endian (SPARC-like) sender's bytes decode
    correctly when the decoder is compiled for the sender's order."""

    def test_big_endian_roundtrip(self, compiler):
        fmt = Format.from_dict("b", {"v": "int32", "d": "float64[]"})
        value = {"v": 0x01020304, "d": [1.0, 2.0]}
        out = roundtrip(compiler, fmt, value, endian=BIG)
        assert out["v"] == value["v"]
        assert list(out["d"]) == value["d"]

    def test_endianness_changes_bytes(self, compiler):
        fmt = Format.from_dict("b2", {"v": "int32"})
        little = compiler.encoder(fmt, LITTLE)({"v": 1})
        big = compiler.encoder(fmt, BIG)({"v": 1})
        assert little == b"\x01\x00\x00\x00"
        assert big == b"\x00\x00\x00\x01"

    def test_cross_order_mismatch_detected_by_value(self, compiler):
        fmt = Format.from_dict("b3", {"v": "int32"})
        big_bytes = compiler.encoder(fmt, BIG)({"v": 1})
        wrong, _ = compiler.decoder(fmt, LITTLE)(big_bytes, 0)
        assert wrong["v"] == 0x01000000  # demonstrates why RMR matters

    def test_numpy_big_endian_array(self, compiler):
        fmt = Format.from_dict("b4", {"d": "float64[]"})
        arr = np.array([1.5, -2.5, 1e100])
        payload = compiler.encoder(fmt, BIG)({"d": arr})
        out, _ = compiler.decoder(fmt, BIG)(payload, 0)
        np.testing.assert_array_equal(np.asarray(out["d"]), arr)


class TestEncodeErrors:
    def test_missing_field(self, compiler):
        fmt = Format.from_dict("e", {"a": "int32", "b": "int32"})
        with pytest.raises(EncodeError) as ei:
            compiler.encoder(fmt)({"a": 1})
        assert "missing field" in str(ei.value)

    def test_wrong_type(self, compiler):
        fmt = Format.from_dict("e", {"a": "int32"})
        with pytest.raises(EncodeError):
            compiler.encoder(fmt)({"a": "not an int"})

    def test_out_of_range(self, compiler):
        fmt = Format.from_dict("e", {"a": "int8"})
        with pytest.raises(EncodeError):
            compiler.encoder(fmt)({"a": 1000})

    def test_extra_fields_ignored(self, compiler):
        fmt = Format.from_dict("e", {"a": "int32"})
        assert compiler.encoder(fmt)({"a": 1, "junk": "x"}) == \
            struct.pack("<i", 1)


#: (plan, input) pairs; an array field is never on the fixed plan
_PLAN_INPUTS = [(plan, shape)
                for plan in ("native fixed", "native general", "compact",
                             "interp", "interp-compact")
                for shape in ("scalar", "list", "ndarray")
                if plan != "native fixed" or shape == "scalar"]


class TestBadValuesRefusedByEveryPlan:
    """A value its field cannot hold is an :class:`EncodeError` on every
    plan and in every container — never a silent cast or a raw
    ``OverflowError``."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind,bad", [("int32", 2**40), ("uint8", 300),
                                          ("uint8", -1), ("float32", 1e300)])
    @pytest.mark.parametrize("plan,shape", _PLAN_INPUTS)
    def test_encode_error(self, plan, shape, kind, bad):
        spec = {"v": kind if shape == "scalar" else f"{kind}[]"}
        if plan == "native general" and shape == "scalar":
            spec["s"] = "string"            # keeps it off the fixed plan
        fmt = Format.from_dict("Bad", spec)
        registry = FormatRegistry()
        registry.register(fmt)
        compiler = CodecCompiler(registry,
                                 use_codegen=not plan.startswith("interp"))
        encode = (compiler.compact_encoder if plan.endswith("compact")
                  else compiler.encoder)(fmt)
        assert encode.__pbio_plan__ == {
            "native fixed": "fixed", "native general": "general",
            "compact": "compact"}.get(plan, "interp")
        held = {"scalar": bad, "list": [1, bad],
                "ndarray": np.array([1, bad])}[shape]
        with pytest.raises(EncodeError):
            encode({"v": held, "s": "x"})

    @pytest.mark.parametrize("kind,values", [
        ("int32", np.array([2**31 - 1, -2**31], dtype=np.int64)),
        ("uint8", np.array([0, 255], dtype=np.int16)),
        ("float32", np.array([1.5, -np.inf, 3.0e38], dtype=np.float64)),
        ("float64", np.array([7, -7], dtype=np.int64))])
    def test_values_that_fit_still_cast(self, compiler, kind, values):
        fmt = Format.from_dict("Fits", {"v": f"{kind}[]"})
        encode = compiler.encoder(fmt)
        assert encode({"v": values}) == encode({"v": values.tolist()})

    def test_matching_dtype_is_not_checked(self, compiler, monkeypatch):
        from repro.pbio import compiler as compiler_module

        def checked(*args):
            raise AssertionError("a matching dtype was range-checked")

        monkeypatch.setattr(compiler_module, "_cast_keeps_values", checked)
        pixels = np.arange(1000, dtype=np.uint32).astype(np.uint8)
        for spec in ({"v": "uint8[]"}, {"v": "int16[]"}):
            fmt = Format.from_dict("Same", spec)
            compiler.encoder(fmt)({"v": pixels})
            compiler.compact_encoder(fmt)({"v": pixels})


class TestDecodeErrors:
    def test_truncated_scalar(self, compiler):
        fmt = Format.from_dict("d", {"a": "int64"})
        with pytest.raises(DecodeError):
            compiler.decoder(fmt)(b"\x01\x02", 0)

    def test_truncated_array_body(self, compiler):
        fmt = Format.from_dict("d", {"a": "int32[]"})
        payload = compiler.encoder(fmt)({"a": [1, 2, 3]})
        with pytest.raises(DecodeError):
            compiler.decoder(fmt)(payload[:-2], 0)

    def test_truncated_string(self, compiler):
        fmt = Format.from_dict("d", {"s": "string"})
        payload = compiler.encoder(fmt)({"s": "hello"})
        with pytest.raises(DecodeError):
            compiler.decoder(fmt)(payload[:6], 0)

    def test_truncated_string_length(self, compiler):
        fmt = Format.from_dict("d", {"s": "string"})
        with pytest.raises(DecodeError):
            compiler.decoder(fmt)(b"\x01", 0)


class TestCompilerCaching:
    def test_encoder_cached(self, registry, compiler):
        fmt = Format.from_dict("c", {"a": "int32"})
        assert compiler.encoder(fmt) is compiler.encoder(fmt)

    def test_cache_keyed_by_endian(self, compiler):
        fmt = Format.from_dict("c", {"a": "int32"})
        assert compiler.encoder(fmt, LITTLE) is not compiler.encoder(fmt, BIG)

    def test_generated_source_attached(self, compiler):
        fmt = Format.from_dict("c", {"a": "int32", "s": "string"})
        fn = compiler.encoder(fmt)
        assert "def _encode" in fn.__pbio_source__
        assert "_pack_string" in fn.__pbio_source__


# ----------------------------------------------------------------------
# property-based round trip over randomly generated formats and values
# ----------------------------------------------------------------------

_PRIM_STRATEGIES = {
    "int8": st.integers(-2**7, 2**7 - 1),
    "int16": st.integers(-2**15, 2**15 - 1),
    "int32": st.integers(-2**31, 2**31 - 1),
    "int64": st.integers(-2**63, 2**63 - 1),
    "uint8": st.integers(0, 2**8 - 1),
    "uint32": st.integers(0, 2**32 - 1),
    "float64": st.floats(allow_nan=False, allow_infinity=False),
    "char": st.characters(min_codepoint=1, max_codepoint=255),
    "string": st.text(max_size=30),
}

_field_names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


@st.composite
def format_and_value(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_PRIM_STRATEGIES)),
                          min_size=1, max_size=6))
    names = draw(st.lists(_field_names, min_size=len(kinds),
                          max_size=len(kinds), unique=True))
    fields = []
    value = {}
    for name, kind in zip(names, kinds):
        as_array = draw(st.booleans())
        if as_array and kind != "char":
            fields.append(Field(name, Array(Primitive(kind))))
            value[name] = draw(st.lists(_PRIM_STRATEGIES[kind], max_size=8))
        else:
            fields.append(Field(name, Primitive(kind)))
            value[name] = draw(_PRIM_STRATEGIES[kind])
    return Format("prop", fields), value


class TestPropertyRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(format_and_value(), st.sampled_from([LITTLE, BIG]))
    def test_roundtrip_random_formats(self, fv, endian):
        fmt, value = fv
        compiler = CodecCompiler(FormatRegistry())
        out = roundtrip(compiler, fmt, value, endian)
        for key, expected in value.items():
            got = out[key]
            if isinstance(expected, list):
                got = list(got)
                if expected and isinstance(expected[0], float):
                    assert got == pytest.approx(expected, nan_ok=True)
                else:
                    assert got == expected
            elif isinstance(expected, float):
                assert got == pytest.approx(expected)
            else:
                assert got == expected
