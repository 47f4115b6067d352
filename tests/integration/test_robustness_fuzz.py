"""Fuzz-style robustness tests: malformed input must raise the layer's
declared error type — never an unrelated exception, never a hang.

Every wire-facing decoder in the stack is fed random and mutated bytes.
"""

from hypothesis import given, settings, strategies as st

from repro.compress import CompressError, lzss, zlib_codec
from repro.core import PBIO_CONTENT_TYPE, SoapBinService
from repro.http11 import HttpError, RequestParser, ResponseParser
from repro.pbio import (DecodeError, Format, FormatRegistry, PbioSession,
                        UnknownFormatError)
from repro.soap import SoapError, parse_envelope
from repro.sunrpc import RpcProtocolError, XdrDecoder, XdrError, decode_call
from repro.wsdl import WsdlError, parse_wsdl
from repro.xmlcore import XmlError, parse, tokenize
from tests.http11.scripted import Pieces

random_bytes = st.binary(max_size=300)
random_text = st.text(max_size=300)


class TestXmlRobustness:
    @settings(max_examples=80, deadline=None)
    @given(random_text)
    def test_tokenizer_never_crashes(self, text):
        try:
            tokenize(text)
        except XmlError:
            pass

    @settings(max_examples=80, deadline=None)
    @given(random_text)
    def test_parser_never_crashes(self, text):
        try:
            parse(text)
        except XmlError:
            pass

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="<>&;!?/= abc\"'", max_size=80))
    def test_markup_heavy_soup(self, text):
        try:
            parse(text)
        except XmlError:
            pass


class TestPbioRobustness:
    @settings(max_examples=80, deadline=None)
    @given(random_bytes)
    def test_session_unpack_one_message(self, blob):
        # short blobs and bad magic fail the header read; a header that
        # passes names a format id no session of an empty registry knows
        try:
            PbioSession(FormatRegistry()).unpack(blob)
        except (DecodeError, UnknownFormatError):
            pass

    @settings(max_examples=80, deadline=None)
    @given(random_bytes)
    def test_format_from_wire(self, blob):
        try:
            Format.from_wire(blob)
        except DecodeError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(random_bytes)
    def test_session_unpack(self, blob):
        session = PbioSession(FormatRegistry())
        try:
            session.unpack_stream(blob)
        except (DecodeError, UnknownFormatError):
            pass

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 200), st.integers(0, 3))
    def test_truncated_real_message(self, cut, which):
        """Truncations of a *valid* message stream must raise cleanly."""
        registry = FormatRegistry()
        fmt = Format.from_dict("F", {"s": "string", "d": "float64[]"})
        registry.register(fmt)
        tx = PbioSession(registry)
        blob = tx.pack_bytes(fmt, {"s": "hello", "d": [1.0, 2.0]})
        mutated = blob[:cut] if which == 0 else (
            blob + b"\x00" * which)
        rx = PbioSession(FormatRegistry())
        try:
            rx.unpack_stream(mutated)
        except (DecodeError, UnknownFormatError):
            pass


class TestCompressionRobustness:
    @settings(max_examples=60, deadline=None)
    @given(random_bytes)
    def test_lzss_decompress(self, blob):
        try:
            lzss.decompress(blob)
        except CompressError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(random_bytes)
    def test_zlib_decompress(self, blob):
        try:
            zlib_codec.decompress(blob)
        except CompressError:
            pass

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=1, max_size=200), st.integers(0, 199),
           st.integers(0, 255))
    def test_lzss_bitflip(self, data, pos, value):
        blob = bytearray(lzss.compress(data))
        blob[pos % len(blob)] = value
        try:
            out = lzss.decompress(bytes(blob))
            assert isinstance(out, bytes)
        except CompressError:
            pass


class TestHttpRobustness:
    @settings(max_examples=60, deadline=None)
    @given(random_bytes)
    def test_request_parser(self, blob):
        try:
            RequestParser().read_message(Pieces([blob]))
        except HttpError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(random_bytes)
    def test_response_parser(self, blob):
        try:
            ResponseParser().read_message(Pieces([blob]))
        except HttpError:
            pass


class TestRpcRobustness:
    @settings(max_examples=60, deadline=None)
    @given(random_bytes)
    def test_decode_call(self, blob):
        try:
            decode_call(blob)
        except (RpcProtocolError, XdrError):
            pass

    @settings(max_examples=60, deadline=None)
    @given(random_bytes)
    def test_xdr_decoder(self, blob):
        dec = XdrDecoder(blob)
        try:
            dec.unpack_string()
        except XdrError:
            pass


class TestSoapAndWsdlRobustness:
    @settings(max_examples=60, deadline=None)
    @given(random_bytes)
    def test_parse_envelope(self, blob):
        try:
            parse_envelope(blob)
        except (SoapError, XmlError):
            pass

    @settings(max_examples=40, deadline=None)
    @given(random_text)
    def test_parse_wsdl(self, text):
        try:
            parse_wsdl(text)
        except (WsdlError, XmlError):
            pass


class TestServiceEndpointRobustness:
    """The dispatch boundary must turn any garbage into an error reply."""

    @settings(max_examples=50, deadline=None)
    @given(random_bytes,
           st.sampled_from([PBIO_CONTENT_TYPE, "text/xml", "junk/type"]))
    def test_binservice_endpoint(self, blob, content_type):
        registry = FormatRegistry()
        service = SoapBinService(registry)
        reply = service.endpoint(blob, content_type, {})
        assert reply.status in (200, 500)
