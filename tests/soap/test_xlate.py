"""Differential tests: compiled XML plans vs the tree/pull oracles.

The streaming translator (:mod:`repro.soap.xlate`) must be observationally
identical to the paths it replaced: byte-identical XML out (vs the tree
writer), equal native values in (vs the pull decoder), and the *same*
exception classes with comparable messages on bad input — never a silent
fallthrough.  Every application format in :mod:`repro.apps` is exercised.

The numeric-run and header-envelope differentials are Hypothesis tests;
``REPRO_SOAK=1`` (the CI ``wire-soak`` job) runs ten times their examples.
"""

import enum
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import apps
from repro.pbio import Array, Format, FormatRegistry, Primitive, StructRef
from repro.soap.encoding import decode_fields_pull, encode_fields
from repro.soap.errors import SoapDecodingError, SoapEncodingError
from repro.soap.xlate import XlatePlanner, compile_emitter, compile_parser
from repro.xmlcore import Element, XmlParseError, XmlPullParser, tostring

APP_FORMAT_SETS = {
    "imaging": apps.image_formats,
    "mdbond": apps.bond_formats,
    "airline": apps.airline_formats,
    "remoteviz": apps.viz_formats,
}


def all_app_formats():
    """(app, format) pairs for every application message format."""
    out = []
    for app_name, factory in APP_FORMAT_SETS.items():
        for fmt in factory().values():
            out.append(pytest.param(app_name, fmt,
                                    id=f"{app_name}-{fmt.name}"))
    return out


def sample_value(fmt, registry, rng):
    """A deterministic pseudo-random native value for ``fmt``."""
    return {f.name: _sample_type(f.ftype, registry, rng) for f in fmt.fields}


def _sample_type(ftype, registry, rng):
    if isinstance(ftype, Primitive):
        kind = ftype.kind
        if kind == "string":
            # Exercise the escaper: markup characters, entities-to-be,
            # quotes, leading/trailing whitespace-ish content.
            return rng.choice(["plain", "a <b> & c", "tail>", "'q' \"r\"",
                               "", "x&amp;y"])
        if kind == "char":
            return chr(rng.randint(65, 90))
        if kind.startswith("float"):
            return rng.randint(-1000, 1000) / 8.0
        if kind.startswith("uint"):
            return rng.randint(0, 200)
        return rng.randint(-200, 200)
    if isinstance(ftype, Array):
        n = ftype.length if ftype.length is not None else rng.randint(0, 6)
        return [_sample_type(ftype.element, registry, rng) for _ in range(n)]
    if isinstance(ftype, StructRef):
        sub = registry.by_name(ftype.format_name)
        return sample_value(sub, registry, rng)
    raise TypeError(ftype)


def tree_to_xml(value, fmt, registry, wrapper=None):
    el = Element(wrapper or fmt.name)
    encode_fields(el, value, fmt, registry)
    return tostring(el)


def pull_from_xml(text, fmt, registry):
    pp = XmlPullParser(text)
    start = pp.require_start()
    value = decode_fields_pull(pp, fmt, registry)
    pp.require_end(start.name)
    return value


@pytest.fixture()
def app_registry():
    reg = FormatRegistry()
    for factory in APP_FORMAT_SETS.values():
        for fmt in factory().values():
            reg.register(fmt)
    return reg


class TestEmitterParity:
    @pytest.mark.parametrize("app_name,fmt", all_app_formats())
    def test_byte_identical_to_tree(self, app_name, fmt, app_registry):
        rng = random.Random(hash(fmt.name) & 0xFFFF)
        emit = app_registry.xlate.emitter(fmt)
        for trial in range(5):
            value = sample_value(fmt, app_registry, rng)
            assert emit(value) == tree_to_xml(value, fmt, app_registry)

    @pytest.mark.parametrize("app_name,fmt", all_app_formats())
    def test_wrapper_tag_override(self, app_name, fmt, app_registry):
        rng = random.Random(1)
        value = sample_value(fmt, app_registry, rng)
        emit = app_registry.xlate.emitter(fmt)
        assert emit(value, "Wrapped") == \
            tree_to_xml(value, fmt, app_registry, "Wrapped")

    def test_empty_array_and_empty_string_forms(self, app_registry):
        fmt = Format.from_dict("edge", {"s": "string", "a": "int32[]"})
        app_registry.register(fmt)
        value = {"s": "", "a": []}
        xml = app_registry.xlate.emitter(fmt)(value)
        assert xml == tree_to_xml(value, fmt, app_registry)
        # the two distinct empty forms the tree writer produces
        assert "<s></s>" in xml and "<a/>" in xml

    def test_missing_field_message_matches_tree(self, app_registry):
        fmt = app_registry.by_name("Atom")
        with pytest.raises(SoapEncodingError) as fast_err:
            app_registry.xlate.emitter(fmt)({"id": 1})
        with pytest.raises(SoapEncodingError) as tree_err:
            tree_to_xml({"id": 1}, fmt, app_registry)
        assert str(fast_err.value) == str(tree_err.value)

    def test_bad_item_value_message_matches_tree(self, app_registry):
        fmt = Format.from_dict("nums", {"v": "int32[]"})
        app_registry.register(fmt)
        bad = {"v": [1, 2, "three"]}
        with pytest.raises(SoapEncodingError) as fast_err:
            app_registry.xlate.emitter(fmt)(bad)
        with pytest.raises(SoapEncodingError) as tree_err:
            tree_to_xml(bad, fmt, app_registry)
        assert str(fast_err.value) == str(tree_err.value)

    def test_fixed_length_mismatch_matches_tree(self, app_registry):
        fmt = app_registry.by_name("BondBatch2")
        bad = {"count": 1, "timesteps": []}
        with pytest.raises(SoapEncodingError) as fast_err:
            app_registry.xlate.emitter(fmt)(bad)
        with pytest.raises(SoapEncodingError) as tree_err:
            tree_to_xml(bad, fmt, app_registry)
        assert str(fast_err.value) == str(tree_err.value)


class TestParserParity:
    @pytest.mark.parametrize("app_name,fmt", all_app_formats())
    def test_values_equal_pull_path(self, app_name, fmt, app_registry):
        rng = random.Random(hash(fmt.name) & 0xFFFF)
        parse_fast = app_registry.xlate.parser(fmt)
        for trial in range(5):
            value = sample_value(fmt, app_registry, rng)
            xml = tree_to_xml(value, fmt, app_registry)
            assert parse_fast(xml) == pull_from_xml(xml, fmt, app_registry)
            assert parse_fast(xml) == value

    @pytest.mark.parametrize("app_name,fmt", all_app_formats())
    def test_roundtrip_through_emitter(self, app_name, fmt, app_registry):
        rng = random.Random(99)
        value = sample_value(fmt, app_registry, rng)
        xml = app_registry.xlate.emitter(fmt)(value)
        assert app_registry.xlate.parser(fmt)(xml) == value

    def test_entity_references(self, app_registry):
        fmt = Format.from_dict("ent", {"s": "string", "n": "int32"})
        app_registry.register(fmt)
        xml = "<ent><s>a &lt;b&gt; &amp; &#65;&#x42;</s><n> &#52;2 </n></ent>"
        fast = app_registry.xlate.parser(fmt)(xml)
        assert fast == pull_from_xml(xml, fmt, app_registry)
        assert fast == {"s": "a <b> & AB", "n": 42}

    def test_entities_inside_array_items(self, app_registry):
        fmt = Format.from_dict("earr", {"v": "string[]"})
        app_registry.register(fmt)
        xml = "<earr><v><item>a&amp;b</item><item>&lt;x&gt;</item></v></earr>"
        fast = app_registry.xlate.parser(fmt)(xml)
        assert fast == pull_from_xml(xml, fmt, app_registry)
        assert fast == {"v": ["a&b", "<x>"]}

    def test_cdata_falls_back_to_pull(self, app_registry):
        fmt = Format.from_dict("cd", {"s": "string"})
        app_registry.register(fmt)
        xml = "<cd><s><![CDATA[a <raw> & b]]></s></cd>"
        fast = app_registry.xlate.parser(fmt)(xml)
        assert fast == pull_from_xml(xml, fmt, app_registry)
        assert fast == {"s": "a <raw> & b"}

    def test_cdata_inside_numeric_array(self, app_registry):
        fmt = Format.from_dict("cdn", {"v": "int32[]"})
        app_registry.register(fmt)
        xml = "<cdn><v><item><![CDATA[7]]></item><item>8</item></v></cdn>"
        fast = app_registry.xlate.parser(fmt)(xml)
        assert fast == pull_from_xml(xml, fmt, app_registry)
        assert fast == {"v": [7, 8]}

    def test_mixed_whitespace(self, app_registry):
        fmt = app_registry.by_name("Atom")
        xml = ("\n  <Atom>\n\t<id> 7 </id>\n  <x>1.5</x>"
               "\r\n<y> -2.25 </y>  <z>0.0</z>\n</Atom>\n")
        fast = app_registry.xlate.parser(fmt)(xml)
        assert fast == pull_from_xml(xml, fmt, app_registry)
        assert fast == {"id": 7, "x": 1.5, "y": -2.25, "z": 0.0}

    def test_whitespace_between_array_items(self, app_registry):
        fmt = Format.from_dict("wsa", {"v": "int32[]"})
        app_registry.register(fmt)
        xml = "<wsa><v>\n  <item>1</item>\n  <item>2</item>\n</v></wsa>"
        fast = app_registry.xlate.parser(fmt)(xml)
        assert fast == pull_from_xml(xml, fmt, app_registry)
        assert fast == {"v": [1, 2]}

    def test_xml_declaration_and_comment_prefix(self, app_registry):
        fmt = app_registry.by_name("Bond")
        plain = "<Bond><a>1</a><b>2</b></Bond>"
        for xml in ('<?xml version="1.0"?>' + plain,
                    "<!-- c --> " + plain):
            fast = app_registry.xlate.parser(fmt)(xml)
            assert fast == pull_from_xml(xml, fmt, app_registry)

    def test_prefixed_tags_fall_back(self, app_registry):
        fmt = app_registry.by_name("Bond")
        xml = "<ns:Bond><a>1</a><b>2</b></ns:Bond>"
        assert app_registry.xlate.parser(fmt)(xml) == \
            pull_from_xml(xml, fmt, app_registry)

    def test_self_closing_primitive_items(self, app_registry):
        fmt = Format.from_dict("sc", {"s": "string"})
        app_registry.register(fmt)
        xml = "<sc><s/></sc>"
        fast = app_registry.xlate.parser(fmt)(xml)
        assert fast == pull_from_xml(xml, fmt, app_registry)
        assert fast == {"s": ""}


class TestErrorParity:
    """Malformed/mistyped documents: same class, same message, both paths."""

    def both_errors(self, registry, fmt, xml):
        with pytest.raises((XmlParseError, SoapDecodingError)) as fast_err:
            registry.xlate.parser(fmt)(xml)
        with pytest.raises((XmlParseError, SoapDecodingError)) as pull_err:
            pull_from_xml(xml, fmt, registry)
        return fast_err.value, pull_err.value

    @pytest.mark.parametrize("xml", [
        "<Atom><id>7</id><x>1.0</x>",                       # truncated
        "<Atom><id>7</id></Oops>",                          # mismatched tag
        "<Atom><id>7<id></Atom>",                           # unclosed child
        "<Atom><id>7</id><x>1.0</x><y>2.0</y></Atom>",      # missing field
        "<Atom 1bad='x'><id>7</id></Atom>",                 # bad attribute
        "<Atom><id>&bogus;</id></Atom>",                    # unknown entity
        "<Atom><id>&#x41;</id></Atom>",                     # non-numeric text
    ])
    def test_malformed_same_class_and_message(self, app_registry, xml):
        fmt = app_registry.by_name("Atom")
        fast, pull = self.both_errors(app_registry, fmt, xml)
        assert type(fast) is type(pull)
        assert str(fast) == str(pull)

    @pytest.mark.parametrize("xml", [
        "<nums><v><item>1</item><item>two</item></v></nums>",
        "<nums><v><item>3.5</item></v></nums>",
        "<nums><v><item></item></v></nums>",
    ])
    def test_type_mismatch_same_class_and_message(self, app_registry, xml):
        fmt = Format.from_dict("nums", {"v": "int32[]"})
        app_registry.register(fmt)
        fast, pull = self.both_errors(app_registry, fmt, xml)
        assert type(fast) is type(pull)
        assert str(fast) == str(pull)

    def test_fixed_length_mismatch_same_message(self, app_registry):
        fmt = app_registry.by_name("BondBatch1")
        xml = "<BondBatch1><count>0</count><timesteps/></BondBatch1>"
        fast, pull = self.both_errors(app_registry, fmt, xml)
        assert type(fast) is type(pull)
        assert str(fast) == str(pull)

    def test_no_silent_fallthrough_on_garbage(self, app_registry):
        fmt = app_registry.by_name("Atom")
        with pytest.raises((XmlParseError, SoapDecodingError)):
            app_registry.xlate.parser(fmt)("not xml at all")


class TestPlanCache:
    def test_plans_cached_per_fingerprint(self):
        reg = FormatRegistry()
        fmt = Format.from_dict("p", {"x": "int32"})
        reg.register(fmt)
        assert reg.xlate.emitter(fmt) is reg.xlate.emitter(fmt)
        assert reg.xlate.parser(fmt) is reg.xlate.parser(fmt)

    def test_redefine_invalidates_plans(self):
        reg = FormatRegistry()
        fmt = Format.from_dict("p", {"x": "int32"})
        reg.register(fmt)
        old_emit = reg.xlate.emitter(fmt)
        old_parse = reg.xlate.parser(fmt)
        fmt2 = Format.from_dict("p", {"x": "int32", "y": "int32"})
        reg.redefine(fmt2)
        assert reg.xlate.emitter(fmt2) is not old_emit
        assert reg.xlate.parser(fmt2) is not old_parse
        assert reg.xlate.emitter(fmt2)({"x": 1, "y": 2}) == \
            "<p><x>1</x><y>2</y></p>"

    def test_lazy_struct_ref_resolution_order(self):
        # The referenced format may be registered after the plan compiles.
        reg = FormatRegistry()
        outer = Format.from_dict("outer", {"inner": "struct leaf"})
        reg.register(outer)
        emit = reg.xlate.emitter(outer)
        reg.register(Format.from_dict("leaf", {"n": "int32"}))
        assert emit({"inner": {"n": 5}}) == \
            "<outer><inner><n>5</n></inner></outer>"

    def test_planner_standalone(self):
        reg = FormatRegistry()
        fmt = Format.from_dict("q", {"x": "float64"})
        reg.register(fmt)
        planner = XlatePlanner(reg)
        xml = compile_emitter(fmt, planner)({"x": 2.5})
        assert compile_parser(fmt, planner)(xml) == {"x": 2.5}


class TestRpcFramingParity:
    """The fast envelope framing is byte-identical to the tree path and the
    client/service fast paths never change observable RPC behaviour."""

    def _service(self, registry):
        from repro.soap.service import SoapService
        fmt_in = Format.from_dict("AddRequest", {"a": "int32", "b": "int32"})
        fmt_out = Format.from_dict("AddResult", {"sum": "int32"})
        svc = SoapService(registry)
        svc.add_operation("Add", fmt_in, fmt_out,
                          lambda p: {"sum": p["a"] + p["b"]})
        return svc, fmt_in, fmt_out

    def test_request_bytes_identical(self, app_registry):
        from repro.soap.client import SoapClient
        from repro.soap.envelope import build_envelope, envelope_to_bytes
        from repro.transport import DirectChannel
        svc, fmt_in, _ = self._service(app_registry)
        client = SoapClient(DirectChannel(svc.endpoint), app_registry)
        params = {"a": 2, "b": 40}
        fast = client.build_request("Add", params, fmt_in)
        wrapper = Element("Add")
        encode_fields(wrapper, params, fmt_in, app_registry)
        assert fast == envelope_to_bytes(build_envelope([wrapper]))

    def test_request_bytes_identical_with_headers(self, app_registry):
        from repro.soap.client import SoapClient
        from repro.soap.envelope import build_envelope, envelope_to_bytes
        from repro.transport import DirectChannel
        svc, fmt_in, _ = self._service(app_registry)
        client = SoapClient(DirectChannel(svc.endpoint), app_registry)
        header = Element("q:hint", {"xmlns:q": "urn:q", "v": "1"})
        params = {"a": 1, "b": 2}
        fast = client.build_request("Add", params, fmt_in, [header])
        wrapper = Element("Add")
        encode_fields(wrapper, params, fmt_in, app_registry)
        assert fast == envelope_to_bytes(build_envelope([wrapper], [header]))

    def test_response_bytes_identical(self, app_registry):
        from repro.soap.envelope import build_envelope, envelope_to_bytes
        svc, _, fmt_out = self._service(app_registry)
        op = svc.operation("Add")
        fast = svc.encode_response(op, {"sum": 42})
        wrapper = Element("AddResponse")
        encode_fields(wrapper, {"sum": 42}, fmt_out, app_registry)
        assert fast == envelope_to_bytes(build_envelope([wrapper]))

    def test_end_to_end_call(self, app_registry):
        from repro.soap.client import SoapClient
        from repro.transport import DirectChannel
        svc, fmt_in, fmt_out = self._service(app_registry)
        client = SoapClient(DirectChannel(svc.endpoint), app_registry)
        assert client.call("Add", {"a": 2, "b": 40}, fmt_in, fmt_out) == \
            {"sum": 42}

    def test_unknown_operation_fault_unchanged(self, app_registry):
        from repro.soap.client import SoapClient
        from repro.soap.errors import SoapFault
        from repro.transport import DirectChannel
        svc, fmt_in, fmt_out = self._service(app_registry)
        client = SoapClient(DirectChannel(svc.endpoint), app_registry)
        with pytest.raises(SoapFault) as err:
            client.call("Mul", {"a": 1, "b": 2}, fmt_in, fmt_out)
        assert err.value.faultcode == "Client"
        assert "unknown operation 'Mul'" in err.value.faultstring

    def test_type_mismatch_fault_unchanged(self, app_registry):
        from repro.soap.envelope import FAST_PREFIX, FAST_SUFFIX
        svc, _, _ = self._service(app_registry)
        bad = (FAST_PREFIX + "<Add><a>one</a><b>2</b></Add>" +
               FAST_SUFFIX).encode()
        # the tree path reports this error (fast path steps aside), with
        # the exact pre-plan message
        with pytest.raises(SoapDecodingError) as err:
            svc.handle_xml(bad)
        assert str(err.value) == \
            "<a>: bad int32 value 'one': invalid literal for int() " \
            "with base 10: 'one'"

    def test_handler_result_fast_vs_tree_decode(self, app_registry):
        # A request decoded by the fast path yields the same params the
        # tree path produces for identical bytes.
        from repro.soap.encoding import decode_fields as tree_decode
        from repro.soap.envelope import parse_envelope
        svc, fmt_in, _ = self._service(app_registry)
        from repro.soap.client import SoapClient
        from repro.transport import DirectChannel
        client = SoapClient(DirectChannel(svc.endpoint), app_registry)
        payload = client.build_request("Add", {"a": -3, "b": 7}, fmt_in)
        fast = svc._decode_request_fast(payload)
        assert fast is not None
        params, op, entries = fast
        assert entries == []
        env = parse_envelope(payload)
        assert params == tree_decode(env.first_body_element(), fmt_in,
                                     app_registry)
        assert op.name == "Add"


class TestNumpyArrays:
    def test_numpy_array_emission_matches_tree(self, app_registry):
        np = pytest.importorskip("numpy")
        fmt = app_registry.by_name("ImageFull")
        value = {"filename": "f.pgm", "width": 3, "height": 1,
                 "pixels": np.array([1, 2, 3], dtype=np.uint8)}
        fast = app_registry.xlate.emitter(fmt)(value)
        assert fast == tree_to_xml(value, fmt, app_registry)

    def test_numpy_float_array(self, app_registry):
        np = pytest.importorskip("numpy")
        fmt = Format.from_dict("fl", {"v": "float64[]"})
        app_registry.register(fmt)
        value = {"v": np.array([0.5, -1.25])}
        fast = app_registry.xlate.emitter(fmt)(value)
        assert fast == tree_to_xml(value, fmt, app_registry)
        assert app_registry.xlate.parser(fmt)(fast) == {"v": [0.5, -1.25]}


SOAK = 10 if os.environ.get("REPRO_SOAK") == "1" else 1


def outcome(fn):
    """``("ok", repr(result))`` or ``(exception class, message)``; repr
    makes NaN results compare equal."""
    try:
        return "ok", repr(fn())
    except Exception as exc:  # noqa: BLE001 - the outcome is the subject
        return type(exc), str(exc)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


#: Run lengths on and around chunk boundaries (of 16 items, and of 256).
RUN_LENGTHS = [0, 1, 15, 16, 17, 31, 33, 255, 256, 257, 1000]

#: Items an integer run may carry: what the tree path renders, and what
#: it refuses.
RUN_ITEMS = st.one_of(
    st.integers(-2**31, 2**31 - 1),
    st.integers(-2**80, 2**80),                      # past 2**64
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),  # truncation, NaN, inf
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(-1e9, 1e9, width=32).map(np.float32),
    st.sampled_from([np.float64("nan"), np.float64("inf")]),
    st.integers(-99999, 99999).map(str),             # digit strings
    st.sampled_from([" 12 ", "+5", "007", "1_0", b"7", "1.5", "x", None,
                     1.5j, [1]]),
    st.sampled_from(list(_Level)),
)


@st.composite
def numeric_runs(draw):
    """A run of a drawn length: seeded int32 values with a few drawn items
    spliced in, as a list, a tuple or a NumPy array."""
    length = draw(st.sampled_from(RUN_LENGTHS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    items = [rng.randrange(-2**31, 2**31) for _ in range(length)]
    if length:
        for pos, item in draw(st.lists(
                st.tuples(st.integers(0, length - 1), RUN_ITEMS),
                max_size=4)):
            items[pos] = item
    shape = draw(st.sampled_from(["list", "tuple", "int64", "float64",
                                  "object"]))
    if shape == "list":
        return items
    if shape == "tuple":
        return tuple(items)
    try:
        return np.array(items, dtype=shape)
    except (TypeError, ValueError, OverflowError):
        return items


NUMERIC_KINDS = ["int32", "int64", "uint8", "float64"]


@pytest.fixture(scope="module")
def run_registry():
    reg = FormatRegistry()
    for kind in NUMERIC_KINDS + ["uint64"]:
        reg.register(Format.from_dict(f"run_{kind}", {"v": f"{kind}[]"}))
    return reg


class TestNumericRunDifferential:
    """The numeric-run emitter and parser against the tree/pull oracles."""

    @settings(max_examples=150 * SOAK, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(NUMERIC_KINDS), run=numeric_runs())
    def test_emitter_matches_tree(self, run_registry, kind, run):
        fmt = run_registry.by_name(f"run_{kind}")
        value = {"v": run}
        assert outcome(lambda: run_registry.xlate.emitter(fmt)(value)) == \
            outcome(lambda: tree_to_xml(value, fmt, run_registry))

    @pytest.mark.parametrize("length", RUN_LENGTHS)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x", None])
    def test_bad_item_at_every_chunk_position(self, run_registry, length,
                                              bad):
        fmt = run_registry.by_name("run_int32")
        for pos in {0, length // 2, length - 1} if length else ():
            run = list(range(length))
            run[pos] = bad
            assert outcome(lambda: run_registry.xlate.emitter(fmt)(
                {"v": run})) == outcome(lambda: tree_to_xml(
                    {"v": run}, fmt, run_registry))

    ITEM_TEXTS = ["0", "-7", "+5", "007", "1_0", "\u0663", "\u0967\u0968",
                  " 42 ", "\n9\t", "", "1.5", "nan", "-inf", "1e3",
                  "99999999999999999999999", "abc", "&#52;2", "&amp;",
                  "&lt;", "&bogus;", "<![CDATA[7]]>", "<![CDATA[ 8 ]]>",
                  "1<!-- c -->2", "<!-- c -->3", "<", "1<2", "<b>5</b>",
                  "<item>", "1 2", "\x1c5", "5\x1d", "\x1e-6\x1f"]

    @settings(max_examples=150 * SOAK, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(NUMERIC_KINDS),
           texts=st.lists(st.one_of(st.sampled_from(ITEM_TEXTS),
                                    st.integers().map(str)), max_size=24),
           gaps=st.lists(st.sampled_from(["", "", "", " ", "\n  ",
                                          "<!-- g -->", "x"]),
                         min_size=25, max_size=25))
    def test_parser_matches_pull(self, run_registry, kind, texts, gaps):
        fmt = run_registry.by_name(f"run_{kind}")
        body = "".join(f"{gap}<item>{text}</item>"
                       for gap, text in zip(gaps, texts))
        xml = f"<run><v>{body}{gaps[-1]}</v></run>"
        assert outcome(lambda: run_registry.xlate.parser(fmt)(xml)) == \
            outcome(lambda: pull_from_xml(xml, fmt, run_registry))

    @pytest.mark.parametrize("kind", NUMERIC_KINDS)
    @pytest.mark.parametrize("text", ["\x1c5", "5\x1d", "\x1e-6\x1f"])
    def test_separator_padded_item_matches_pull(self, run_registry, kind,
                                                text):
        # U+001C..U+001F are the only characters str.strip() removes and
        # int() refuses: the tree path strips them, so the run decodes.
        fmt = run_registry.by_name(f"run_{kind}")
        xml = f"<run><v><item>1</item><item>{text}</item></v></run>"
        assert outcome(lambda: run_registry.xlate.parser(fmt)(xml)) == \
            outcome(lambda: pull_from_xml(xml, fmt, run_registry))

    @settings(max_examples=300 * SOAK, deadline=None)
    @given(tag=st.sampled_from(["</values>", "</v>", "</item>", "</time>",
                                "</vav>"]),
           parts=st.lists(st.sampled_from(
               ["<", "/", ">", "v", "a", "item", "7", "</values>", "</v",
                "v>", "</item>", "</time>", "</vav>", "</va"]), max_size=30),
           start=st.integers(0, 40))
    def test_end_tag_finder_is_str_find(self, tag, parts, start):
        from repro.soap.xlate import _tag_finder
        text = "".join(parts)
        assert _tag_finder(tag)(text, start) == text.find(tag, start)

    @pytest.mark.parametrize("length", RUN_LENGTHS)
    def test_roundtrip_lengths(self, run_registry, length):
        fmt = run_registry.by_name("run_int64")
        rng = random.Random(length)
        value = {"v": [rng.randrange(-2**63, 2**63) for _ in range(length)]}
        xml = run_registry.xlate.emitter(fmt)(value)
        assert xml == tree_to_xml(value, fmt, run_registry)
        assert run_registry.xlate.parser(fmt)(xml) == value


#: Canonical value ranges of the long-run corpus.
LONG_RUN_KINDS = {"int32": (-2**31, 2**31), "int64": (-2**63, 2**63),
                  "uint8": (0, 256), "uint64": (0, 2**64)}

#: Items NumPy's integer text parser reads differently from int(), or
#: that are valid but off the canonical form, spliced into long runs.
LONG_RUN_SPLICES = [
    "+", "-", "-0", "+5", "007", "1_0", " ", "\t", "\n \r", "\x0b", "\x0c",
    " 5", "5 ", "-\t5", "\x1c5", "5\x1f", "\x00", "5\x00", "\u0663",
    "\u0967\u0968", "0", "0", *(str(2**63 + d) for d in (-2, -1, 0)),
    *(str(-2**63 + d) for d in (-1, 0, 1)), str(2**64), str(-2**80)]

#: Text after a run's last item: a trailing separator, or one and a blank,
#: or a prefix of one (NumPy reads each as the end of the run).
LONG_RUN_TAILS = ["", "</item><item>", "</item><item> ", "</item>"]


def long_run_corpus(seed=1):
    """``(kind, xml)`` documents of 40, 300 and 1000 canonical items with
    up to three spliced ones, for every kind and tail; and each splice
    alone in a run of 300."""
    rng = random.Random(seed)
    corpus = []
    for kind, (lo, hi) in LONG_RUN_KINDS.items():
        for splice in LONG_RUN_SPLICES:
            texts = [str(rng.randrange(lo, hi)) for _ in range(300)]
            texts[rng.randrange(300)] = splice
            corpus.append((kind, "<run><v><item>" + "</item><item>".join(
                texts) + "</item></v></run>"))
        for length in (40, 300, 1000):
            for tail in LONG_RUN_TAILS:
                for _ in range(2 * SOAK):
                    texts = [str(rng.randrange(lo, hi))
                             for _ in range(length)]
                    for _ in range(rng.randint(0, 3)):
                        texts[rng.randrange(length)] = \
                            rng.choice(LONG_RUN_SPLICES)
                    corpus.append((kind, "<run><v><item>"
                                   + "</item><item>".join(texts) + tail
                                   + "</item></v></run>"))
    return corpus


class TestLongIntRuns:
    """Runs long enough for NumPy's C parser, against the pull oracle."""

    @pytest.mark.parametrize("c_step", [True, False], ids=["c", "no-c"])
    def test_corpus_matches_pull(self, run_registry, monkeypatch, c_step):
        from repro.soap import xlate
        monkeypatch.setattr(xlate, "_C_INT_RUNS",
                            xlate._C_INT_RUNS and c_step)
        taken = []
        real = xlate._c_int_values

        def spy(run):
            values = real(run)
            taken.append(values is not None)
            return values
        monkeypatch.setattr(xlate, "_c_int_values", spy)
        for kind, xml in long_run_corpus():
            fmt = run_registry.by_name(f"run_{kind}")
            assert outcome(lambda: run_registry.xlate.parser(fmt)(xml)) == \
                outcome(lambda: pull_from_xml(xml, fmt, run_registry)), \
                (kind, xml)
        assert any(taken) == c_step

    def test_canonical_int32_1k_takes_the_c_step(self, run_registry,
                                                 monkeypatch):
        from repro.soap import xlate
        assert xlate._C_INT_RUNS
        results = []
        real = xlate._c_int_values

        def spy(run):
            results.append(real(run))
            return results[-1]
        monkeypatch.setattr(xlate, "_c_int_values", spy)
        rng = random.Random(1)
        value = {"v": [rng.randrange(-2**31, 2**31) for _ in range(1000)]}
        fmt = run_registry.by_name("run_int32")
        xml = run_registry.xlate.emitter(fmt)(value)
        assert run_registry.xlate.parser(fmt)(xml) == value
        assert results == [value["v"]]

    def test_probe_refuses_a_parser_that_warns(self, monkeypatch):
        import warnings
        from repro.soap import xlate

        def lenient(text, dtype, sep):
            warnings.warn("string could not be read to its end",
                          DeprecationWarning)
            return np.array([7, -8][:text.count(sep) + 1], dtype=dtype)
        assert xlate._probe_c_int_runs()
        monkeypatch.setattr(xlate._np, "fromstring", lenient)
        assert not xlate._probe_c_int_runs()


class TestEmitMemory:
    def test_int_run_peak_is_about_twice_the_output(self, run_registry):
        """Emitting a long int run allocates about the output twice (the
        chunks, then the joined text) and keeps nothing: a template as
        long as the run, cached per length, would show as retained
        memory, and per-item strings as a higher peak."""
        fmt = run_registry.by_name("run_int32")
        emit = run_registry.xlate.emitter(fmt)
        rng = random.Random(7)
        value = {"v": [rng.randrange(-2**31, 2**31) for _ in range(100_000)]}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            size = len(emit(value))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 2.25 * size
        assert current - before <= 0.01 * size


# ----------------------------------------------------------------------
# header-bearing quality envelopes: pull-read Header, planned Body
# ----------------------------------------------------------------------

QUALITY_TEXT = """
    attribute rtt
    history 1
    0.0 0.5 - QRes
    0.5 inf - QSmall
"""


def quality_service():
    from repro.core import SoapBinService
    registry = FormatRegistry()
    req = Format.from_dict("QReq", {"n": "int32", "ids": "int32[]"})
    full = Format.from_dict("QRes", {"data": "float64[]", "tag": "string"})
    small = Format.from_dict("QSmall", {"tag": "string"})
    for fmt in (req, full, small):
        registry.register(fmt)
    service = SoapBinService(registry, quality_text=QUALITY_TEXT)
    service.add_operation(
        "Q", req, full,
        lambda p: {"data": [0.5] * p["n"], "tag": f"t{sum(p['ids'])}"})
    return service, registry, req, full, small


def tree_only(service):
    """``service`` with its XML fast path switched off: the oracle."""
    service.xml_service._decode_request_fast = lambda payload: None
    return service


#: Text spliced in just before ``</SOAP-ENV:Header>``: what the fast
#: Header reader must leave to the tree path, or read as the tree does.
HEADER_SPLICES = ["", "", "", "<!-- c -->", "<![CDATA[x]]>", "<?pi x?>",
                  "<a>", "</a>", "stray", "&amp;", "<b/>", "  \n",
                  '<q:x xmlns:q="urn:q"><binq:attribute name="rtt" '
                  'value="9"/></q:x>', "<binq:attribute name='rtt' "
                  "value='0.9'/>"]

ATTR_NAMES = st.sampled_from(["rtt", "cpu_load", "a&b", 'q"t', "<x>", ""])
ATTR_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["NaN?", "0.5", "", " 2 ", "1e400", "0x1p-2", "nan"]))


@st.composite
def header_children(draw, message_types=False):
    from repro.xmlcore import BINQ_NS
    entries = []
    for name, value in draw(st.lists(st.tuples(ATTR_NAMES, ATTR_VALUES),
                                     max_size=4)):
        prefix = draw(st.sampled_from(["binq:", "b:", ""]))
        attrib = {"name": name, "value": value}
        if prefix:
            attrib[f"xmlns:{prefix[:-1]}"] = BINQ_NS
        if draw(st.booleans()):
            del attrib[draw(st.sampled_from(["name", "value"]))]
        entries.append(Element(f"{prefix}attribute", attrib))
    if message_types:
        for name in draw(st.lists(st.sampled_from(
                ["QRes", "QSmall", "Unknown", "", None]), max_size=2)):
            attrib = {"xmlns:binq": BINQ_NS}
            if name is not None:
                attrib["name"] = name
            entries.append(Element("binq:message-type", attrib))
    if draw(st.booleans()):
        hint = Element("q:hint", {"xmlns:q": "urn:q", "v": "1"})
        hint.subelement("binq:attribute", {"name": "rtt", "value": "7"})
        hint.children.append("text & more")
        entries.insert(draw(st.integers(0, len(entries))), hint)
    return entries


def splice_header(payload, splice):
    from repro.soap.envelope import HEADER_CLOSE
    if not splice:
        return payload
    text = payload.decode("utf-8")
    at = text.find(HEADER_CLOSE)
    if at < 0:
        return payload
    return (text[:at] + splice + text[at:]).encode("utf-8")


class TestHeaderEnvelopeParity:
    """Quality requests and replies with Header entries: the fast path
    (pull-read Header, planned Body) against the tree path."""

    @settings(max_examples=100 * SOAK, deadline=None)
    @given(entries=header_children(message_types=True),
           ids=st.lists(st.integers(-2**31, 2**31 - 1), max_size=40),
           n=st.integers(0, 5),
           body=st.sampled_from(["ok", "ok", "unknown-op", "bad-int",
                                 "two-entries"]),
           splice=st.sampled_from(HEADER_SPLICES))
    def test_request_matches_tree(self, entries, ids, n, body, splice):
        from repro.core.xmlq import (attributes_from_entries,
                                     message_type_from_entries,
                                     parse_attribute_headers,
                                     parse_message_type_header)
        from repro.soap.envelope import build_envelope, envelope_to_bytes
        fast_svc, registry, req, _, _ = quality_service()
        tree_svc = tree_only(quality_service()[0])
        wrapper = Element("Nope" if body == "unknown-op" else "Q")
        encode_fields(wrapper, {"n": n, "ids": ids}, req, registry)
        if body == "bad-int":
            wrapper.find("n").children[:] = ["12a"]
        children = [wrapper]
        if body == "two-entries":
            children.append(Element("Extra"))
        payload = splice_header(
            envelope_to_bytes(build_envelope(children, entries)), splice)

        def fast():
            params, op, found = fast_svc.xml_service.read_request(payload)
            return (params, op.name, attributes_from_entries(found),
                    message_type_from_entries(found))

        def tree():
            params, op, env = fast_svc.xml_service.decode_request(payload)
            return (params, op.name, parse_attribute_headers(env),
                    parse_message_type_header(env))

        assert outcome(fast) == outcome(tree)
        if splice == "" and body == "ok":
            assert fast_svc.xml_service._decode_request_fast(payload)
        # The whole quality exchange, attributes applied: same reply.
        a = fast_svc.endpoint(payload, "text/xml", {})
        b = tree_svc.endpoint(payload, "text/xml", {})
        assert (a.status, a.body, a.headers) == (b.status, b.body, b.headers)

    @settings(max_examples=100 * SOAK, deadline=None)
    @given(entries=header_children(message_types=True),
           body=st.sampled_from(["full", "small", "fault", "full+fault",
                                 "bad", "empty"]),
           splice=st.sampled_from(HEADER_SPLICES))
    def test_reply_matches_tree(self, entries, body, splice):
        from repro.core import XmlQualityClient
        from repro.soap.envelope import (build_envelope, build_fault,
                                         envelope_to_bytes)
        from repro.soap.errors import SoapFault
        from repro.transport import DirectChannel
        _, registry, _, full, small = quality_service()
        client = XmlQualityClient(DirectChannel(None), registry)
        oracle = XmlQualityClient(DirectChannel(None), registry)
        oracle._read_reply_fast = lambda body, fmt: None
        children = []
        if body in ("full", "full+fault"):
            wrapper = Element("QResponse")
            encode_fields(wrapper, {"data": [1.5, -2.0], "tag": "t&t"}, full,
                          registry)
            children.append(wrapper)
        elif body == "small":
            wrapper = Element("QResponse")
            encode_fields(wrapper, {"tag": "s"}, small, registry)
            children.append(wrapper)
        elif body == "bad":
            wrapper = Element("QResponse")
            wrapper.subelement("data").subelement("item", text="x")
            wrapper.subelement("tag", text="t")
            children.append(wrapper)
        if body in ("fault", "full+fault"):
            children.append(build_fault(SoapFault("Server", "boom")))
        reply = splice_header(
            envelope_to_bytes(build_envelope(children, entries)), splice)
        assert outcome(lambda: client.read_reply(reply, full)) == \
            outcome(lambda: oracle.read_reply(reply, full))
        if splice == "" and body == "full" and not any(
                e.get("name") == "QSmall" for e in entries
                if e.local_name == "message-type"):
            assert client._read_reply_fast(reply, full) is not None


    def test_fault_shaped_like_the_reply_is_still_a_fault(self):
        # a Fault whose children happen to match the reply format's
        # fields must raise, not decode
        from repro.core import XmlQualityClient
        from repro.soap.envelope import fault_envelope
        from repro.soap.errors import SoapFault
        from repro.transport import DirectChannel
        registry = FormatRegistry()
        shaped = Format.from_dict("Shaped", {"faultcode": "string",
                                             "faultstring": "string"})
        registry.register(shaped)
        client = XmlQualityClient(DirectChannel(None), registry)
        with pytest.raises(SoapFault) as err:
            client.read_reply(fault_envelope(SoapFault("Server", "boom")),
                              shaped)
        assert err.value.faultstring == "boom"


def pull_header_entries(header_xml):
    """Top-level Header entries as the pull parser reads them, or ``None``
    where it refuses the fragment."""
    from repro.xmlcore.tokenizer import START
    entries = []
    try:
        pp = XmlPullParser(header_xml)
        while not pp.at_eof():
            ev = pp.next()
            if ev.kind == START and ev.depth == 1:
                entries.append((ev.name.rsplit(":", 1)[-1], ev.attrs))
    except XmlParseError:
        return None
    return entries


#: Attribute text the entry pattern must read as the pull parser does:
#: escaped, normalized or non-ASCII characters among plain ones.
FRAMED_TEXT = st.text(st.sampled_from("rt0.5-e+ &<>\"'\t\n\r=/\u00e9\u4e2d"),
                      max_size=6)


@st.composite
def framed_entries(draw):
    """``binq`` entries in this stack's framing (namespace declaration
    first), with or without ``name`` and ``value``."""
    from repro.xmlcore import BINQ_NS
    entries = []
    for local in draw(st.lists(st.sampled_from(["attribute",
                                                "message-type"]),
                               max_size=4)):
        attrib = {"xmlns:binq": BINQ_NS}
        for key in draw(st.sampled_from([("name", "value"), ("name",),
                                         ("value",), (), ("value", "name")])):
            attrib[key] = draw(FRAMED_TEXT)
        entries.append(Element(f"binq:{local}", attrib))
    return entries


class TestHeaderEntryPattern:
    """The compiled ``binq`` entry pattern against the pull parser."""

    @settings(max_examples=200 * SOAK, deadline=None)
    @given(entries=st.one_of(framed_entries(),
                             header_children(message_types=True)),
           splice=st.sampled_from(HEADER_SPLICES + ['name="x"', "\t"]),
           at=st.integers(0, 400))
    def test_entries_match_pull(self, entries, splice, at):
        from repro.soap.envelope import _header_entries
        header_xml = "".join(tostring(e) for e in entries)
        header_xml = header_xml[:at] + splice + header_xml[at:]
        assert outcome(lambda: _header_entries(header_xml)) == outcome(
            lambda: pull_header_entries(header_xml))

    def test_stack_framing_skips_the_pull_parser(self, monkeypatch):
        import repro.soap.envelope as envelope
        from repro.core.xmlq import (build_attribute_headers,
                                     message_type_header_xml)

        def spy(*args, **kwargs):
            raise AssertionError("pull parser reached")
        header_xml = "".join(
            [tostring(e) for e in build_attribute_headers(
                {"rtt": 0.0123, "cpu_load": float("nan"), "x": -1e300})]
            + [message_type_header_xml("QSmall")])
        expected = pull_header_entries(header_xml)
        monkeypatch.setattr(envelope, "XmlPullParser", spy)
        assert envelope._header_entries(header_xml) == expected
        assert [name for name, _ in expected] == [
            "attribute", "attribute", "attribute", "message-type"]


class TestQualityXmlOffTheTree:
    def test_header_bearing_exchange_never_builds_a_tree(self, monkeypatch):
        """Well-formed quality requests and replies, full and degraded,
        never reach ``parse_envelope`` or ``decode_fields``."""
        import repro.core.xmlq as xmlq
        import repro.soap.client as soap_client
        import repro.soap.service as soap_service
        from repro.core import XmlQualityClient
        from repro.transport import DirectChannel

        def spy(*args, **kwargs):
            raise AssertionError("tree codec reached")

        for module in (xmlq, soap_client, soap_service):
            monkeypatch.setattr(module, "parse_envelope", spy)
            monkeypatch.setattr(module, "decode_fields", spy)
        service, registry, req, full, _ = quality_service()
        client = XmlQualityClient(DirectChannel(service.endpoint), registry)
        out = client.call("Q", {"n": 2, "ids": [1, 2, 3]}, req, full)
        assert out == {"data": [0.5, 0.5], "tag": "t6"}
        client.estimator.update(9.0)  # report a terrible RTT: QSmall
        out = client.call("Q", {"n": 2, "ids": [4]}, req, full)
        assert out == {"data": [], "tag": "t4"}
        assert service.quality.attributes.get("rtt") > 0.5

    def test_message_type_header_string_matches_tree(self):
        from repro.core.xmlq import (build_message_type_header,
                                     message_type_header_xml)
        for name in ("ImageHalf", "a&b", 'q"<t>'):
            assert message_type_header_xml(name) == \
                tostring(build_message_type_header(name))
