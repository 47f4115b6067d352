"""Tests for the pull parser and qualified names."""

import pytest

from repro.xmlcore import PullEvent, XmlParseError, XmlPullParser, local_name
from repro.xmlcore import tokenizer as tk


class TestPullParser:
    def test_event_stream(self):
        pp = XmlPullParser("<a><b>x</b></a>")
        kinds = []
        while not pp.at_eof():
            kinds.append(pp.next().kind)
        assert kinds == [tk.START, tk.START, tk.TEXT, tk.END, tk.END]

    def test_self_closing_emits_end(self):
        pp = XmlPullParser("<a/>")
        assert pp.next().kind == tk.START
        assert pp.next().kind == tk.END
        assert pp.at_eof()

    def test_depth_tracking(self):
        pp = XmlPullParser("<a><b/></a>")
        assert pp.next().depth == 1   # <a>
        assert pp.next().depth == 2   # <b>
        assert pp.next().depth == 1   # </b>
        assert pp.next().depth == 0   # </a>

    def test_peek_does_not_consume(self):
        pp = XmlPullParser("<a/>")
        assert pp.peek().name == "a"
        assert pp.next().name == "a"

    def test_require_start_checks_name(self):
        pp = XmlPullParser("<a><b/></a>")
        pp.require_start("a")
        with pytest.raises(XmlParseError):
            pp.require_start("zzz")

    def test_require_start_matches_local_name(self):
        pp = XmlPullParser('<soap:Envelope xmlns:soap="urn:x"/>')
        ev = pp.require_start("Envelope")
        assert ev.name == "soap:Envelope"

    def test_read_element_text(self):
        pp = XmlPullParser("<r><v>42</v><w>x</w></r>")
        pp.require_start("r")
        assert pp.read_element_text("v") == "42"
        assert pp.read_element_text("w") == "x"
        pp.require_end("r")

    def test_read_text_concatenates_cdata(self):
        pp = XmlPullParser("<a>one<![CDATA[ two]]></a>")
        pp.require_start("a")
        assert pp.read_text() == "one two"

    def test_skip_element(self):
        pp = XmlPullParser("<r><junk><deep><deeper/></deep></junk><v>1</v></r>")
        pp.require_start("r")
        pp.skip_element()
        assert pp.read_element_text("v") == "1"

    def test_skip_text_only_skips_whitespace(self):
        pp = XmlPullParser("<a>  <b/>real</a>")
        pp.require_start("a")
        pp.skip_text()
        assert pp.peek().kind == tk.START

    def test_unbalanced_detected(self):
        pp = XmlPullParser("<a><b></a></b>")
        pp.next()
        pp.next()
        with pytest.raises(XmlParseError):
            pp.next()

    def test_eof_raises(self):
        pp = XmlPullParser("<a/>")
        pp.next()
        pp.next()
        with pytest.raises(XmlParseError):
            pp.next()

    def test_repr(self):
        assert "start" in repr(PullEvent(tk.START, name="x"))


class TestNames:
    def test_local_name(self):
        assert local_name("soap:Body") == "Body"
        assert local_name("Body") == "Body"
