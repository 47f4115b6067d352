"""Round-trip, corruption and behaviour tests for the LZ codecs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import (CompressError, codec_names, get_codec, lzss,
                            zlib_codec)

ALL = [get_codec(n) for n in codec_names()]


def xml_like(n_items: int) -> bytes:
    rows = "".join(f"<item><id>{i}</id><v>{i * 1.5}</v></item>"
                   for i in range(n_items))
    return f"<doc>{rows}</doc>".encode()


class TestApi:
    def test_names(self):
        assert codec_names() == ["lzss", "zlib"]

    def test_unknown_codec(self):
        with pytest.raises(CompressError):
            get_codec("brotli")

    def test_ratio_reported(self):
        codec = get_codec("zlib")
        assert codec.ratio(xml_like(200)) > 2.0


@pytest.mark.parametrize("codec", ALL, ids=lambda c: c.name)
class TestRoundTrips:
    def test_empty(self, codec):
        assert codec.decompress(codec.compress(b"")) == b""

    def test_single_byte(self, codec):
        assert codec.decompress(codec.compress(b"x")) == b"x"

    def test_short_text(self, codec):
        data = b"hello hello hello world"
        assert codec.decompress(codec.compress(data)) == data

    def test_xml_document(self, codec):
        data = xml_like(500)
        assert codec.decompress(codec.compress(data)) == data

    def test_binary_data(self, codec):
        data = bytes(range(256)) * 40
        assert codec.decompress(codec.compress(data)) == data

    def test_incompressible_random(self, codec):
        import random
        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(4096))
        assert codec.decompress(codec.compress(data)) == data

    def test_highly_repetitive(self, codec):
        data = b"A" * 10000
        blob = codec.compress(data)
        assert codec.decompress(blob) == data
        # LZSS's 18-byte max match bounds its ratio near 8.5x; the others
        # do far better on a pure run
        assert len(blob) < len(data) // 6

    def test_xml_compresses_well(self, codec):
        """The paper's observation: compressed XML is small because of its
        highly structured nature."""
        data = xml_like(300)
        assert len(codec.compress(data)) < len(data) / 2.5

    def test_type_error(self, codec):
        with pytest.raises(CompressError):
            codec.compress("not bytes")


class TestLzssSpecifics:
    def test_header(self):
        blob = lzss.compress(b"abc")
        assert blob[:4] == lzss.MAGIC

    def test_bad_magic(self):
        with pytest.raises(CompressError):
            lzss.decompress(b"XXXX\x00\x00\x00\x00")

    def test_truncated_stream(self):
        blob = lzss.compress(b"some data that compresses somewhat ok ok ok")
        with pytest.raises(CompressError):
            lzss.decompress(blob[:len(blob) // 2])

    def test_too_short(self):
        with pytest.raises(CompressError):
            lzss.decompress(b"LZS1")

    def test_length_mismatch_detected(self):
        blob = bytearray(lzss.compress(b"abcdef"))
        blob[4] = 200  # claim a larger original length
        with pytest.raises(CompressError):
            lzss.decompress(bytes(blob))

    def test_matches_cross_flag_groups(self):
        # long run ensures matches spanning several 8-token groups
        data = (b"0123456789" * 100) + b"tail"
        assert lzss.decompress(lzss.compress(data)) == data

    def test_window_limit_respected(self):
        # repetition farther apart than the window cannot be matched,
        # but must still round-trip
        chunk = bytes(range(200))
        data = chunk + b"\x00" * (lzss.WINDOW + 100) + chunk
        assert lzss.decompress(lzss.compress(data)) == data


class TestZlibSpecifics:
    def test_corrupt_stream(self):
        with pytest.raises(CompressError):
            zlib_codec.decompress(b"garbage")

    def test_level_affects_size(self):
        data = xml_like(400)
        fast = zlib_codec.compress(data, level=1)
        best = zlib_codec.compress(data, level=9)
        assert len(best) <= len(fast)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=2000))
    def test_lzss_roundtrip(self, data):
        assert lzss.decompress(lzss.compress(data)) == data

    @settings(max_examples=30, deadline=None)
    @given(st.text(max_size=400))
    def test_all_codecs_agree_on_text(self, text):
        data = text.encode("utf-8")
        for codec in ALL:
            assert codec.decompress(codec.compress(data)) == data
