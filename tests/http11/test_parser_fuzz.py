"""Differential fuzz of the one HTTP/1.1 parser.

Streams of back-to-back messages — ``Content-Length`` bodies, empty
messages, chunked bodies with trailers — must parse to the same
(start line, headers, body) sequence whether the input arrives whole,
fed in pieces split at arbitrary offsets, or read through ``read_from``
over a socket-like source.  Malformed input must end in a typed
``HttpError`` for every split, never in a hang, and a committed corpus of
ambiguous framings (the request-smuggling class) must be refused with
``HttpParseError`` by both parsers at every split.

``REPRO_SOAK=1`` (the CI ``reactor-soak`` job) runs ten times the
examples.
"""

import os

from hypothesis import given, settings, strategies as st

import pytest

from repro.http11 import (HttpConnectionClosed, HttpError, HttpParseError,
                          Request, RequestParser, ResponseParser)
from tests.http11.scripted import Pieces

EXAMPLES = 100 * (10 if os.environ.get("REPRO_SOAK") == "1" else 1)

_token = st.text("abcdefgXYZ-", min_size=1, max_size=8)
_value = st.text("abc xyz012;=/", max_size=12).map(str.strip)
_headers = st.lists(st.tuples(_token.map("X-".__add__), _value), max_size=3)


@st.composite
def _message(draw, kind):
    if kind == "request":
        start = "%s /%s HTTP/1.1" % (draw(st.sampled_from(["GET", "POST"])),
                                     draw(_token))
    else:
        start = "HTTP/1.1 %d Any" % draw(st.sampled_from([200, 404, 500]))
    headers = draw(_headers)
    framing = draw(st.sampled_from(["length", "empty", "chunked"]))
    body = b"" if framing == "empty" else draw(st.binary(max_size=100))
    head = "".join("%s: %s\r\n" % pair for pair in headers)
    if framing == "length":
        wire = b"%s\r\n%sContent-Length: %d\r\n\r\n%s" % (
            start.encode(), head.encode(), len(body), body)
        return wire, body
    if framing == "empty":
        return b"%s\r\n%s\r\n" % (start.encode(), head.encode()), body
    cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=3)))
    chunks = [body[a:b] for a, b in zip([0] + cuts, cuts + [len(body)])]
    trailers = "".join("%s: %s\r\n" % pair for pair in draw(_headers))
    wire = b"%s\r\n%sTransfer-Encoding: chunked\r\n\r\n" % (
        start.encode(), head.encode())
    wire += b"".join(b"%x\r\n%s\r\n" % (len(c), c) for c in chunks if c)
    return wire + b"0\r\n" + trailers.encode() + b"\r\n", body


@st.composite
def _stream(draw):
    kind = draw(st.sampled_from(["request", "response"]))
    messages = draw(st.lists(_message(kind), min_size=1, max_size=4))
    wire = b"".join(w for w, _ in messages)
    offsets = sorted(draw(st.lists(st.integers(0, len(wire)), max_size=6)))
    return kind, wire, [body for _, body in messages], offsets


def _parser(kind):
    return RequestParser() if kind == "request" else ResponseParser()


def _summary(message):
    if isinstance(message, Request):
        start = (message.method, message.target, message.version)
    else:
        start = (message.version, message.status)
    return start, list(message.headers), bytes(message.body)


def _pieces(wire, offsets):
    bounds = [0] + offsets + [len(wire)]
    return [wire[a:b] for a, b in zip(bounds, bounds[1:])]


def _fed(kind, pieces):
    parser, out = _parser(kind), []
    for piece in pieces:
        parser.feed(piece)
        while (message := parser.next_message()) is not None:
            out.append(_summary(message))
    assert not parser.mid_message
    return out


def _read(kind, pieces):
    """Messages through ``read_from``, and the error that ended them."""
    parser, source, out = _parser(kind), Pieces(pieces), []
    try:
        while True:
            out.append(_summary(parser.read_message(source)))
    except HttpError as exc:
        return out, type(exc)


@settings(max_examples=EXAMPLES, deadline=None)
@given(_stream())
def test_every_split_yields_the_same_messages(case):
    kind, wire, bodies, offsets = case
    whole = _fed(kind, [wire])
    assert [body for _, _, body in whole] == bodies
    assert _fed(kind, _pieces(wire, offsets)) == whole
    assert _read(kind, _pieces(wire, offsets)) == (whole,
                                                   HttpConnectionClosed)
    assert _read(kind, [wire]) == (whole, HttpConnectionClosed)
    assert _read(kind, Pieces.split(wire, 1).pieces) == (
        whole, HttpConnectionClosed)


@settings(max_examples=EXAMPLES, deadline=None)
@given(_stream(), st.data())
def test_malformed_input_ends_in_a_typed_error_for_every_split(case, data):
    kind, wire, _bodies, offsets = case
    blob = bytearray(wire)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] = data.draw(st.integers(0, 255))
    blob = bytes(blob[:data.draw(st.integers(0, len(blob)))])
    outcome = _read(kind, [blob])
    assert _read(kind, _pieces(blob, [o for o in offsets
                                      if o <= len(blob)])) == outcome
    assert _read(kind, Pieces.split(blob, 1).pieces) == outcome


#: Header blocks whose body length two readers could disagree on
#: (RFC 9112 §5.1, §6.3).  Each is followed by five body bytes, so a
#: parser that picks any one of the values frames *some* message.
SMUGGLING_CORPUS = {
    "differing-repeat": b"Content-Length: 3\r\nContent-Length: 5\r\n",
    "identical-repeat": b"Content-Length: 5\r\nContent-Length: 5\r\n",
    "list-value": b"Content-Length: 5, 5\r\n",
    "space-before-colon": b"Content-Length : 3\r\n",
    "tab-before-colon": b"Content-Length\t: 3\r\n",
    "space-before-colon-any-field": b"X-Pad : 1\r\nContent-Length: 5\r\n",
    "plus-sign": b"Content-Length: +3\r\n",
    "underscore": b"Content-Length: 1_0\r\n",
    "non-ascii-digit": "Content-Length: \u00b3\r\n".encode("latin-1"),
    # a peer that unfolds obsolete line folding reads X-Pad's value here
    "folded-content-length": b"X-Pad: 1\r\n Content-Length: 5\r\n",
}

_STARTS = {"request": b"POST /x HTTP/1.1\r\n",
           "response": b"HTTP/1.1 200 OK\r\n"}


def _every_split(wire):
    yield [wire]
    for at in range(1, len(wire)):
        yield [wire[:at], wire[at:]]
    yield Pieces.split(wire, 1).pieces


@pytest.mark.parametrize("kind", ["request", "response"])
@pytest.mark.parametrize("case", sorted(SMUGGLING_CORPUS))
def test_ambiguous_framing_is_refused_at_every_split(kind, case):
    wire = _STARTS[kind] + SMUGGLING_CORPUS[case] + b"\r\nabcde"
    for pieces in _every_split(wire):
        assert _read(kind, list(pieces)) == ([], HttpParseError)
        with pytest.raises(HttpParseError):
            _fed(kind, list(pieces))


#: Heads holding a CR or LF outside a CRLF, or a NUL (RFC 9110 §5.5, RFC
#: 9112 §2.2); ``%s`` is the start line.  Some would parse into a field
#: value holding the stray byte, others would wait for a blank line that
#: never comes: each must be refused as soon as the stray byte arrives.
BARE_CORPUS = {
    "lf-line-ends": b"%s\nHost: a\nContent-Length: 0\n\n",
    "lf-in-value": b"%s\r\nHost: a\nX: y\r\n\r\n",
    "lf-blank-line": b"%s\r\nHost: a\r\n\n",
    "cr-line-ends": b"%s\rHost: a\r\r",
    "cr-in-value": b"%s\r\nX: a\rb\r\n\r\n",
    "cr-before-crlf": b"%s\r\nX: a\r\r\n\r\n",
    "nul-in-value": b"%s\r\nX: a\0b\r\n\r\n",
}


class _Open(Pieces):
    """A peer that stays connected: once the pieces are read, a read finds
    nothing yet (a non-blocking socket's ``BlockingIOError``), never EOF."""

    def recv(self, n):
        if not self.pieces:
            raise BlockingIOError
        return super().recv(n)


@pytest.mark.parametrize("kind", ["request", "response"])
@pytest.mark.parametrize("case", sorted(BARE_CORPUS))
def test_bare_cr_lf_or_nul_in_a_head_is_refused_at_every_split(kind, case):
    wire = BARE_CORPUS[case] % _STARTS[kind].rstrip(b"\r\n")
    for pieces in _every_split(wire):
        assert _read(kind, list(pieces)) == ([], HttpParseError)
        with pytest.raises(HttpParseError):
            _fed(kind, list(pieces))
        with pytest.raises(HttpParseError):
            _parser(kind).read_message(_Open(list(pieces)))
