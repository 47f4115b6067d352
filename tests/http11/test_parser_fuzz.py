"""Differential fuzz of the one HTTP/1.1 parser.

Streams of back-to-back messages — ``Content-Length`` bodies, empty
messages, chunked bodies with trailers — must parse to the same
(start line, headers, body) sequence whether the input arrives whole,
fed in pieces split at arbitrary offsets, or read through ``read_from``
over a socket-like source.  Malformed input must end in a typed
``HttpError`` for every split, never in a hang.

``REPRO_SOAK=1`` (the CI ``reactor-soak`` job) runs ten times the
examples.
"""

import os

from hypothesis import given, settings, strategies as st

from repro.http11 import (HttpConnectionClosed, HttpError, Request,
                          RequestParser, ResponseParser)
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
