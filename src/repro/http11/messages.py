"""HTTP/1.1 message model: headers, requests, responses, wire codecs.

SOAP rides on HTTP POST; the paper attributes part of SOAP-bin's remaining
overhead versus Sun RPC to exactly this layer ("The delay is mainly due to
SOAP-bin's use of HTTP for its transactions", §IV-A), so the reproduction
needs a real HTTP implementation rather than a function call in disguise —
header bytes, request lines and parsing all cost what they cost.

Scope: HTTP/1.1 with ``Content-Length`` framing, persistent connections,
and ``Transfer-Encoding: chunked`` for the large-message streaming path
(docs/wire-compact.md); :func:`encode_chunk` / :data:`LAST_CHUNK` frame
outgoing streams.  Other transfer codings are rejected.

**Framing is unambiguous or refused** (RFC 9112 §5.1, §6.3): a message
whose body length two readers could disagree on — the request-smuggling
class — fails with :class:`~repro.http11.errors.HttpParseError`.  A
``Content-Length`` value is one or more ASCII digits and nothing else (no
sign, no ``_``, no list); the header may appear **once**: a repeat is
refused even when it repeats the same value (no collapsing).  A field
name followed by whitespace before its colon is refused for every field,
and ``Content-Length`` together with ``Transfer-Encoding: chunked`` is
refused as well; so is a CR or LF outside a CRLF, a NUL, or a folded line.
A chunk-size line is hex digits only (no ``0x``, sign, ``_`` or leading
whitespace), then optionally whitespace, ``;`` and extensions, at most
1,024 bytes before its CRLF.

**One parser.**  Every reader — both servers, the blocking and the
pipelined client — reads HTTP through :class:`RequestParser` /
:class:`ResponseParser`: :meth:`~_IncrementalParser.read_from` does one
read from a socket, blocking or not, and messages come out whole however
the bytes were split.  A read into the parse buffer is one ``recv`` of
64 KiB (:data:`_RECV_SIZE`).

Bulk bodies cross each process once.  Senders write a message as two
buffers — :meth:`Response.head_bytes` and the body object itself — with a
gather write (:func:`send_gather`, or the reactor's ``sendmsg`` queue), so
a cached payload goes to the kernel without being concatenated; only a
body under 32 KiB is joined to its head (:func:`wire_buffers`).  On the
read side a body that arrived with its head is copied out of the parse
buffer once; a ``Content-Length`` body that is still arriving is read
straight into a buffer of its own (``recv_into``).

**Ownership rule.**  A body read directly owns its buffer: it is returned
as an immutable ``bytes`` that nothing else writes to, and the parser
starts a fresh buffer for whatever follows, so a keep-alive or pipelined
successor can never alias it.  A zero-copy view into a body (the PBIO
decode of a one-byte array is one) therefore stays valid and unchanged
for as long as it is held.  The direct-read buffer grows with the bytes
that actually arrive — at most twice what the peer has sent, past a
512 KiB start — so a declared ``Content-Length`` alone never allocates.
"""

from __future__ import annotations

import io
import re
import socket
from collections import deque
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Tuple)

from .errors import HttpConnectionClosed, HttpParseError, HttpTooLarge

#: Default cap on header-block size: plenty for SOAPAction + quality
#: headers.  Per-server overrides: ``HttpServer(max_header_bytes=...)``.
MAX_HEADER_BYTES = 64 * 1024
#: Default cap on body size (the biggest paper workload is ~1 MB images;
#: 256 MB leaves room for the stress tests).  Per-server overrides:
#: ``HttpServer(max_body_bytes=...)``.
MAX_BODY_BYTES = 256 * 1024 * 1024
#: First size of a directly read body's buffer; past it the buffer at most
#: doubles what has arrived, so an unverified ``Content-Length`` is never
#: allocated up front.
_OWNED_BODY_START = 512 * 1024
#: Size of one ``recv`` into the parse buffer.  CPython allocates the full
#: size before every ``recv``, and whether that is cheap depends on glibc's
#: mmap threshold, which rises only after an earlier large block was freed:
#: in a fresh interpreter a 256 KiB ``recv`` of a 185 B message costs
#: ~15 us against ~1 us at 64 KiB, and a 256 KiB size cost the perf/
#: ``small_call`` server ~30 us of CPU per call (2-vCPU VM, one pinned
#: CPU).  Large bodies bypass it (read_from).
_RECV_SIZE = 64 * 1024

REASONS = {
    200: "OK",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class Headers:
    """A case-insensitive, order-preserving header multimap.

    ``_items``: the ``(name, value)`` pairs in wire order and case;
    :attr:`folded`: lower-cased name -> first value, so lookups never scan.
    Hot paths read ``folded`` with a constant lower-case name instead of
    calling :meth:`get`; nothing but this class writes to it.
    """

    __slots__ = ("_items", "folded")

    def __init__(self, items: Optional[Iterable[Tuple[str, str]]] = None,
                 folded: Optional[Dict[str, str]] = None) -> None:
        """``items``: ``(name, value)`` pairs, every value a ``str``;
        ``folded``: their index, when the caller has built it already."""
        self._items: List[Tuple[str, str]] = list(items or ())
        if folded is None:
            folded = {}
            for name, value in reversed(self._items):   # first value wins
                folded[name.lower()] = value
        self.folded: Dict[str, str] = folded

    def add(self, name: str, value: str) -> None:
        value = str(value)
        self._items.append((name, value))
        self.folded.setdefault(name.lower(), value)

    def set(self, name: str, value: str) -> None:
        """Replace all values of ``name`` with one value."""
        lower = name.lower()
        if lower in self.folded:
            self._drop(lower)
        value = str(value)
        self._items.append((name, value))
        self.folded[lower] = value

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.folded.get(name.lower(), default)

    def get_all(self, name: str) -> List[str]:
        lower = name.lower()
        if lower not in self.folded:
            return []
        return [v for n, v in self._items if n.lower() == lower]

    def remove(self, name: str) -> None:
        self._drop(name.lower())

    def _drop(self, lower: str) -> None:
        if self.folded.pop(lower, None) is not None:
            self._items = [item for item in self._items
                           if item[0].lower() != lower]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.folded

    def fields(self) -> "HeaderFields":
        """The headers as one dict: wire-case name -> the value
        :meth:`get` reads, so a name repeated in any letter case has its
        first value under each spelling.  Its ``folded`` is this
        multimap's own."""
        folded = self.folded
        fields = HeaderFields(self._items)
        if len(folded) < len(self._items):  # a name repeats: first wins
            names = list(fields)
            fields.update(zip(names, map(folded.__getitem__,
                                         map(str.lower, names))))
        fields.folded = folded
        return fields

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items.copy())

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"


def connection_tokens(headers: Headers) -> FrozenSet[str]:
    """The lower-cased options of every ``Connection`` field: the field is
    a comma-separated token list and may repeat (RFC 9110 §7.6.1)."""
    if "connection" not in headers.folded:
        return frozenset()
    return frozenset(token.strip().lower()
                     for value in headers.get_all("Connection")
                     for token in value.split(","))


class HeaderFields(dict):
    """A request's headers as endpoints get them: wire-case name -> value.
    ``folded`` (lower-cased name -> value) makes a lookup in any letter
    case O(1) (:func:`repro.http11.deadline.header_value`)."""

    __slots__ = ("folded",)


class Request:
    """An HTTP request.

    ``streaming`` is True when the body is NOT in :attr:`body` but drains
    incrementally through ``RequestParser.drain_body`` (reactor streaming
    routes)."""

    __slots__ = ("method", "target", "headers", "body", "version",
                 "streaming")

    def __init__(self, method: str = "POST", target: str = "/",
                 headers: Optional[Headers] = None, body: bytes = b"",
                 version: str = "HTTP/1.1", streaming: bool = False) -> None:
        self.method = method
        self.target = target
        self.headers = Headers() if headers is None else headers
        self.body = body
        self.version = version
        self.streaming = streaming

    def __repr__(self) -> str:
        return (f"Request({self.method} {self.target} {self.version}, "
                f"{len(self.headers)} headers, {len(self.body)} B)")

    @property
    def content_type(self) -> str:
        return self.headers.folded.get("content-type", "")

    def wants_keep_alive(self) -> bool:
        """HTTP/1.1 keeps the connection unless a ``Connection`` option is
        ``close``; HTTP/1.0 only with ``keep-alive`` and no ``close``."""
        if "connection" not in self.headers.folded:
            return self.version != "HTTP/1.0"
        tokens = connection_tokens(self.headers)
        if "close" in tokens:
            return False
        return self.version != "HTTP/1.0" or "keep-alive" in tokens

    def head_bytes(self) -> bytes:
        """Request line and header block; the body follows it on the wire."""
        return _serialize_head(f"{self.method} {self.target} {self.version}",
                               self.headers, len(self.body))

    def to_bytes(self) -> bytes:
        return self.head_bytes() + self.body


class Response:
    """An HTTP response.

    ``streaming`` is True when the body is NOT in :attr:`body` but drains
    incrementally through ``ResponseParser.drain_body``
    (``HttpConnection.stream``)."""

    __slots__ = ("status", "headers", "body", "version", "streaming")

    def __init__(self, status: int = 200, headers: Optional[Headers] = None,
                 body: bytes = b"", version: str = "HTTP/1.1",
                 streaming: bool = False) -> None:
        self.status = status
        self.headers = Headers() if headers is None else headers
        self.body = body
        self.version = version
        self.streaming = streaming

    def __repr__(self) -> str:
        return (f"Response({self.version} {self.status}, "
                f"{len(self.headers)} headers, {len(self.body)} B)")

    @property
    def reason(self) -> str:
        return REASONS.get(self.status, "Unknown")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def content_type(self) -> str:
        return self.headers.folded.get("content-type", "")

    def head_bytes(self) -> bytes:
        """Status line and header block; the body follows it on the wire."""
        start = (_STATUS_LINES.get((self.version, self.status))
                 or f"{self.version} {self.status} {self.reason}")
        return _serialize_head(start, self.headers, len(self.body))

    def to_bytes(self) -> bytes:
        return self.head_bytes() + self.body

    @classmethod
    def text(cls, status: int, message: str) -> "Response":
        return cls(status, Headers([("Content-Type",
                                     "text/plain; charset=utf-8")]),
                   message.encode("utf-8"))


def etag_matches(if_none_match: Optional[str], etag: Optional[str]) -> bool:
    """RFC 9110 ``If-None-Match`` evaluation against one strong ETag.

    ``if_none_match`` is the raw header value (may list several quoted
    tags, or ``*``); comparison is the strong one — quotes included,
    ``W/`` weak tags never match.  The list is scanned as quoted
    entity-tags, not split on commas: a comma is a legal ``etagc``, so a
    foreign tag like ``"a,b"`` is one candidate, not two.
    """
    if not if_none_match or not etag:
        return False
    header = if_none_match.strip()
    if header == "*":
        return True
    return any(candidate == etag for candidate in _iter_entity_tags(header))


def _iter_entity_tags(header: str) -> Iterator[str]:
    """Yield the entity-tags of an ``If-None-Match`` list.

    Quoted strings are scanned (entity-tags contain no escapes — DQUOTE
    is excluded from ``etagc``), so commas inside a tag never mis-split;
    weak tags keep their ``W/`` prefix, which makes them fail the strong
    comparison naturally.  Malformed unquoted segments are yielded up to
    the next comma, preserving the old lenient behaviour for them.
    """
    i, n = 0, len(header)
    while i < n:
        if header[i] in " \t,":
            i += 1
            continue
        start = i
        if header.startswith("W/", i):
            i += 2
        if i < n and header[i] == '"':
            end = header.find('"', i + 1)
            if end < 0:                 # unterminated quote: take the rest
                yield header[start:]
                return
            i = end + 1
            yield header[start:i]
        else:
            end = header.find(",", i)
            if end < 0:
                end = n
            yield header[start:end].strip()
            i = end


#: Terminal frame of a chunked body: zero-size chunk, no trailers.
LAST_CHUNK = b"0\r\n\r\n"

#: Cap on one chunk-size line (hex digits + optional extensions).
_MAX_CHUNK_LINE = 1024


def encode_chunk(data: bytes) -> bytes:
    """Frame one non-empty chunk for ``Transfer-Encoding: chunked``.

    Empty input returns ``b""`` (an empty chunk would read as the body
    terminator); send :data:`LAST_CHUNK` explicitly to finish a stream.
    """
    if not data:
        return b""
    return b"%x\r\n" % len(data) + bytes(data) + b"\r\n"


def _stray(text: str, crlfs: int) -> bool:
    """Whether ``text``, holding ``crlfs`` CRLFs, also holds a CR or LF
    outside them, or a NUL."""
    return (text.count("\n") != crlfs or text.count("\r") != crlfs
            or "\0" in text)


#: A chunk-size line: hex digits only, then optional whitespace before a
#: ``;`` that starts the extensions (RFC 9112 §7.1); no CR, LF or NUL.
_CHUNK_SIZE_LINE = re.compile(rb"([0-9A-Fa-f]+)(?:[ \t]*;[^\r\n\0]*)?")


def _parse_chunk_size(line: bytes) -> int:
    match = _CHUNK_SIZE_LINE.fullmatch(line)
    if match is None:
        raise HttpParseError(f"bad chunk size line {line!r}")
    return int(match.group(1), 16)


#: The status line of every ``(version, status)`` in ``REASONS``.
_STATUS_LINES = {(version, status): f"{version} {status} {reason}"
                 for version in ("HTTP/1.1", "HTTP/1.0")
                 for status, reason in REASONS.items()}


def _serialize_head(start_line: str, headers: Headers,
                    body_length: int) -> bytes:
    """The head in one join; ``Content-Length`` is added unless the
    headers frame the body themselves."""
    folded = headers.folded
    if "content-length" in folded or "transfer-encoding" in folded:
        end = "\r\n\r\n"
    else:
        end = f"\r\nContent-Length: {body_length}\r\n\r\n"
    return ("\r\n".join([start_line, *map(": ".join, headers._items)])
            + end).encode("latin-1")


#: A body shorter than this goes out copied behind its head as one buffer:
#: on TCP loopback, writing head + body as two buffers costs more than the
#: copy up to ~24 KiB bodies and less from 32 KiB on (both ends on one CPU).
_JOIN_BELOW = 32 * 1024


def wire_buffers(message) -> Tuple[bytes, ...]:
    """The buffers that put a :class:`Request` or :class:`Response` on the
    wire, in order: the head and the body object itself (never copied), or
    one joined buffer when the body is under 32 KiB."""
    head = message.head_bytes()
    body = message.body
    if len(body) < _JOIN_BELOW:
        return (head + body,)
    return head, body


def send_gather(sock: socket.socket, *buffers) -> Iterator[int]:
    """Write ``buffers`` to a blocking socket in order with ``sendmsg``,
    yielding the byte count of every write; running it to the end is
    ``sendall`` over several buffers, none of them joined or copied."""
    sent = sock.sendmsg(buffers)
    yield sent
    if sent == sum(map(len, buffers)):
        return                          # the usual case: one write
    views = deque(memoryview(b) for b in buffers if len(b))
    consume_views(views, sent)
    while views:
        sent = sock.sendmsg(views)
        yield sent
        consume_views(views, sent)


def consume_views(views: deque, sent: int) -> None:
    """Drop the first ``sent`` bytes from a queue of buffers written in
    order (whole buffers popped, a partly written one replaced by a view
    of its unwritten tail)."""
    while sent:
        head = views[0]
        if sent >= len(head):
            sent -= len(head)
            views.popleft()
        else:
            views[0] = memoryview(head)[sent:]
            sent = 0


# ----------------------------------------------------------------------
# wire parsing
# ----------------------------------------------------------------------

class _IncrementalParser:
    """Incremental HTTP/1.1 message parser: the only reader of HTTP bytes.

    Bytes come in through :meth:`read_from` (one read from a socket,
    blocking or not) or :meth:`feed` (bytes already in hand); complete
    messages come out of :meth:`next_message` (``None`` while incomplete)
    or, on a blocking socket, :meth:`read_message`.  Back-to-back
    pipelined messages in one buffer come out one at a time; the parse
    state survives arbitrary fragmentation, including a header block
    split mid-CRLF.  Drive one parser either with :meth:`read_from` or
    with :meth:`feed`, not both: a body being read directly is not in
    the fed buffer.

    Errors: :class:`~repro.http11.errors.HttpParseError` for malformed
    messages, :class:`~repro.http11.errors.HttpTooLarge` for limit
    violations.  An errored parser stays errored — the connection is
    unrecoverable because message framing is lost.
    """

    # chunked-parse states
    _CHUNK_SIZE, _CHUNK_DATA, _CHUNK_DATA_END, _CHUNK_TRAILERS = range(4)

    def __init__(self, max_header_bytes: int = MAX_HEADER_BYTES,
                 max_body_bytes: int = MAX_BODY_BYTES) -> None:
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        self._buf = bytearray()
        #: consumption offset — bytes before it are already parsed.  The
        #: buffer is compacted lazily instead of ``del buf[:n]`` per
        #: message, which would memmove the whole tail and turn a large
        #: pipelined burst into O(n²) of copying.
        self._pos = 0
        self._scan = 0                  # resume offset for the \r\n\r\n hunt
        self._head: Optional[Tuple] = None   # parsed head awaiting its body
        self._body_length = 0
        self._failed = False
        # chunked-body state machine (Transfer-Encoding: chunked)
        self._chunked = False
        self._chunk_state = self._CHUNK_SIZE
        self._chunk_remaining = 0
        self._chunk_total = 0
        self._chunk_body = bytearray()
        #: streaming drain mode: the head was handed out already and body
        #: bytes leave through :meth:`drain_body` instead of accumulating
        self._streaming = False
        #: the ``Content-Length`` body being read directly, and its count
        #: of bytes received (see :meth:`read_from`)
        self._owned: Optional[io.BytesIO] = None
        self._owned_filled = 0

    def feed(self, data: bytes) -> None:
        """Append bytes received elsewhere."""
        self._buf += data

    def read_from(self, sock) -> int:
        """Do one read from ``sock`` (anything with ``recv`` and
        ``recv_into``) and return the byte count, 0 at end of stream.

        Normally that is one ``recv`` of 64 KiB into the parse buffer.
        While a parsed head's ``Content-Length`` body is not fully
        buffered, the body is read directly instead: its buffered part is
        copied once into a buffer of its own and the rest arrives there
        through ``recv_into``, never past the body's end, so a pipelined
        successor stays in the socket (see the module's ownership rule).
        ``BlockingIOError`` and ``TimeoutError`` propagate with the parse
        state intact; call again to continue.
        """
        if (self._owned is None and self._head is not None
                and not self._chunked
                and len(self._buf) - self._pos < self._body_length):
            with memoryview(self._buf) as view:
                self._owned = io.BytesIO(view[self._pos:])
            self._owned.seek(0, io.SEEK_END)
            self._owned_filled = len(self._buf) - self._pos
            del self._buf[:]
            self._pos = self._scan = 0
        body, filled = self._owned, self._owned_filled
        if body is None or filled == self._body_length:
            data = sock.recv(_RECV_SIZE)
            self._buf += data
            return len(data)
        size = body.tell()              # the buffer's size so far
        if filled == size:
            # Full: grow in place, no temporary.  Doubling rather than
            # growing per read keeps BytesIO from adding 1/8 to the size,
            # which it does to any step under 1.125x.
            size = min(self._body_length,
                       max(_OWNED_BODY_START, 2 * filled))
            body.seek(size - 1)
            body.write(b"\0")
        with body.getbuffer() as view:
            got = sock.recv_into(view[filled:size])
        self._owned_filled = filled + got
        return got

    def read_message(self, sock):
        """Block on ``sock`` until the next message is complete.

        Raises :class:`HttpConnectionClosed` when the peer closes between
        messages and :class:`HttpParseError` when it closes mid-message.
        """
        while True:
            message = self.next_message()
            if message is not None:
                return message
            if not self.read_from(sock):
                if self.mid_message:
                    raise HttpParseError("connection closed mid-message")
                raise HttpConnectionClosed("connection closed")

    @property
    def mid_message(self) -> bool:
        """True while a partially received message is pending (the
        distinction between a quiet keep-alive hang-up and a 408); a body
        being read directly counts, since its head is pending."""
        return (len(self._buf) > self._pos or self._head is not None
                or self._streaming)

    def _compact(self) -> None:
        if self._pos:
            del self._buf[:self._pos]
            self._scan = max(0, self._scan - self._pos)
            self._pos = 0

    def next_message(self):
        """Return the next complete message, or ``None`` if more bytes
        are needed.  Call repeatedly to drain a pipelined burst."""
        if self._failed:
            raise HttpParseError("parser already failed; framing lost")
        try:
            if self._streaming:
                # The head is already out; body bytes leave via drain_body().
                return None
            buf, pos, head = self._buf, self._pos, self._head
            if head is None:
                end = buf.find(b"\r\n\r\n", max(pos, self._scan - 3))
                if end < 0:
                    if len(buf) > pos:
                        self._check_partial_head()
                    return None
                if end - pos > self.max_header_bytes:
                    raise HttpTooLarge(
                        f"header block exceeds limit of "
                        f"{self.max_header_bytes} bytes")
                (start_line, headers, raw_length,
                 transfer_encoding) = self._split_head(
                     buf[pos:end].decode("latin-1"))
                pos = self._pos = self._scan = end + 4
                parsed_start = self._parse_start_line(start_line)
                self._body_length = self._content_length(raw_length,
                                                         transfer_encoding)
                head = self._head = (parsed_start, headers)
                if self._chunked and self._should_stream(parsed_start,
                                                         headers):
                    self._head = None
                    self._streaming = True
                    return self._build_streaming(parsed_start, headers)
            if self._chunked:
                return self._next_chunked()
            length = self._body_length
            if self._owned is not None:
                if self._owned_filled < length:
                    return None
                body = self._owned.getvalue()   # hands its buffer over
                self._owned = None
            elif len(buf) - pos < length:
                self._compact()  # keep the wait-for-body footprint small
                return None
            else:
                end = pos + length
                body = bytes(memoryview(buf)[pos:end])
                if end >= len(buf):
                    del buf[:]          # cheap reset: all bytes consumed
                    self._pos = self._scan = 0
                else:
                    self._pos = end
                    if end > 65536:
                        self._compact()
            self._head = None
            self._body_length = 0
            return self._build(*head, body)
        except (HttpParseError, HttpTooLarge):
            self._failed = True
            raise

    def _check_partial_head(self) -> None:
        """No head end yet: refuse a head that can never end (too large, a
        bare CR or LF, a NUL) instead of waiting.  Checks the bytes new
        since the last call; a CR at the very end may still get its LF."""
        buf, pos = self._buf, self._pos
        start = max(pos, self._scan - 1)
        if start > pos and buf[start] == 10:
            start += 1              # an LF checked together with its CR
        tail = buf[start:len(buf) - buf.endswith(b"\r")].decode("latin-1")
        if _stray(tail, tail.count("\r\n")):
            raise HttpParseError("bare CR, LF or NUL in the message head")
        if len(buf) - pos > self.max_header_bytes:
            raise HttpTooLarge(
                f"header block exceeds limit of "
                f"{self.max_header_bytes} bytes")
        self._scan = len(buf)

    # -- chunked bodies ------------------------------------------------
    def _next_chunked(self):
        if not self._pump_chunks(self._chunk_body):
            self._compact()
            return None
        body = bytes(self._chunk_body)
        parsed_start, headers = self._head
        self._head = None
        self._reset_chunk_state()
        self._finish_message_boundary()
        return self._build(parsed_start, headers, body)

    def drain_body(self) -> Tuple[bytes, bool]:
        """Streaming mode: decode whatever chunk data is buffered.

        Returns ``(data, done)``.  ``data`` may be empty while a chunk
        header straddles a read boundary; after ``done`` the parser is
        back at a message boundary, so pipelined bytes (if any) parse
        normally.  The decoded-body size limit is *not* applied here —
        constant memory is the whole point; the consumer sees every byte
        as it arrives and applies its own budget.
        """
        if not self._streaming:
            raise HttpParseError("parser is not draining a streamed body")
        if self._failed:
            raise HttpParseError("parser already failed; framing lost")
        sink = bytearray()
        try:
            done = self._pump_chunks(sink)
        except (HttpParseError, HttpTooLarge):
            self._failed = True
            raise
        if done:
            self._streaming = False
            self._reset_chunk_state()
            self._finish_message_boundary()
        else:
            self._compact()
        return bytes(sink), done

    def _pump_chunks(self, sink: bytearray) -> bool:
        """Advance the chunk state machine over the buffered bytes,
        appending decoded data to ``sink``.  True once the terminal chunk
        and trailer section are fully consumed."""
        buf = self._buf
        while True:
            n = len(buf)
            if self._chunk_state == self._CHUNK_SIZE:
                idx = buf.find(b"\r\n", self._pos)
                # the line so far, not counting a CR that may begin its CRLF
                if (idx if idx >= 0 else n - buf.endswith(b"\r")) \
                        - self._pos > _MAX_CHUNK_LINE:
                    raise HttpParseError("chunk size line too long")
                if idx < 0:
                    return False
                size = _parse_chunk_size(bytes(buf[self._pos:idx]))
                self._pos = idx + 2
                if size == 0:
                    self._chunk_state = self._CHUNK_TRAILERS
                    continue
                self._chunk_total += size
                if not self._streaming \
                        and self._chunk_total > self.max_body_bytes:
                    raise HttpTooLarge(
                        f"chunked body exceeds limit of "
                        f"{self.max_body_bytes} bytes")
                self._chunk_remaining = size
                self._chunk_state = self._CHUNK_DATA
            elif self._chunk_state == self._CHUNK_DATA:
                take = min(n - self._pos, self._chunk_remaining)
                if take <= 0:
                    return False
                sink += buf[self._pos:self._pos + take]
                self._pos += take
                self._chunk_remaining -= take
                if self._chunk_remaining == 0:
                    self._chunk_state = self._CHUNK_DATA_END
            elif self._chunk_state == self._CHUNK_DATA_END:
                if n - self._pos < 2:
                    return False
                if bytes(buf[self._pos:self._pos + 2]) != b"\r\n":
                    raise HttpParseError("chunk data not terminated by CRLF")
                self._pos += 2
                self._chunk_state = self._CHUNK_SIZE
            else:  # _CHUNK_TRAILERS
                idx = buf.find(b"\r\n", self._pos)
                if idx < 0:
                    if n - self._pos > self.max_header_bytes:
                        raise HttpTooLarge("trailer section too large")
                    return False
                line = buf[self._pos:idx].decode("latin-1")
                self._pos = idx + 2
                if not line:
                    return True
                self._add_trailer(line)

    def _add_trailer(self, line: str) -> None:
        """Check one trailer line as the head's lines are checked — no
        stray CR, LF or NUL, no folding, no whitespace before the colon —
        and refuse the fields a trailer may not carry (RFC 9110 §6.5.1).
        A buffered body's trailers then join its headers; a streamed
        one's head is out already, so they drop."""
        if _stray(line, 0):
            raise HttpParseError("bare CR, LF or NUL in a trailer")
        name, sep, value = line.partition(":")
        if not sep or not name or name[0] in " \t" or name[-1] in " \t":
            raise HttpParseError(f"bad trailer line {line!r}")
        if name.lower() in ("content-length", "transfer-encoding", "host"):
            raise HttpParseError(f"{name} is not allowed in a trailer")
        if self._head is not None:
            self._head[1].add(name, value.strip())

    def _reset_chunk_state(self) -> None:
        self._chunked = False
        self._chunk_state = self._CHUNK_SIZE
        self._chunk_remaining = 0
        self._chunk_total = 0
        self._chunk_body = bytearray()

    def _finish_message_boundary(self) -> None:
        if self._pos >= len(self._buf):
            del self._buf[:]
            self._pos = self._scan = 0
        else:
            self._compact()

    def _should_stream(self, parsed_start, headers: Headers) -> bool:
        """Hook: hand the head out before the body finishes arriving.
        Only consulted for chunked messages."""
        return False

    def _build_streaming(self, parsed_start,
                         headers: Headers):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _split_head(text: str) -> Tuple[str, Headers, Optional[str],
                                        Optional[str]]:
        """Split a header block (``text``, decoded as latin-1) into its
        start line, :class:`Headers` and the two framing headers
        (Content-Length, Transfer-Encoding), in one pass over its lines.
        Refused: a CR or LF outside a CRLF or a NUL (RFC 9110 §5.5), a
        folded line (RFC 9112 §5.2), a line without a colon, whitespace
        before a colon, and a repeated framing header."""
        lines = text.split("\r\n")
        if _stray(text, len(lines) - 1):
            raise HttpParseError("bare CR, LF or NUL in the message head")
        tabs = "\t" in text            # rare: one cheap scan spares two
        if "\n " in text or tabs and "\n\t" in text:
            raise HttpParseError("obsolete line folding in the message head")
        # " :" may sit in a value: names are checked only if the head has any
        check_names = " :" in text or tabs and "\t:" in text
        items: List[Tuple[str, str]] = []
        folded: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep or check_names and name.endswith((" ", "\t")):
                raise HttpParseError(f"bad header line {line!r}")
            value = value.strip()
            items.append((name, value))
            lower = name.lower()
            if lower not in folded:
                folded[lower] = value
            elif lower in ("content-length", "transfer-encoding"):
                raise HttpParseError(f"repeated {name} header")
        headers = Headers(items, folded)
        return (lines[0], headers, folded.get("content-length"),
                folded.get("transfer-encoding"))

    def _content_length(self, raw_length: Optional[str],
                        transfer_encoding: Optional[str]) -> int:
        """The body length a head declares; a chunked body sets
        ``_chunked`` and returns 0.  Only the single ``chunked`` coding is
        supported; anything else, and its illegal combination with
        ``Content-Length``, fails the message (framing would be ambiguous,
        RFC 9112 §6.3)."""
        if transfer_encoding:
            codings = [t.strip().lower() for t in transfer_encoding.split(",")
                       if t.strip()]
            if codings != ["chunked"]:
                raise HttpParseError(
                    f"unsupported Transfer-Encoding {transfer_encoding!r}")
            if raw_length is not None:
                raise HttpParseError("message has both Content-Length and "
                                     "Transfer-Encoding: chunked")
            self._chunked = True
            return 0
        if raw_length is None:
            return 0
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise HttpParseError(f"bad Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > self.max_body_bytes:
            raise HttpTooLarge(
                f"body of {length} bytes exceeds limit of "
                f"{self.max_body_bytes} bytes")
        return length

    def _parse_start_line(self, line: str):  # pragma: no cover - abstract
        raise NotImplementedError

    def _build(self, parsed_start, headers: Headers,
               body: bytes):  # pragma: no cover - abstract
        raise NotImplementedError


class RequestParser(_IncrementalParser):
    """Incremental request parser (both servers' read path).

    Set :attr:`stream_decider` — ``(method, target, headers) -> bool`` —
    to opt chunked requests into streaming mode: the :class:`Request` is
    handed out as soon as its head parses (``streaming=True``, empty
    ``body``) and the body drains incrementally through
    :meth:`drain_body` instead of buffering.
    """

    stream_decider = None

    def _should_stream(self, parsed_start, headers: Headers) -> bool:
        decider = self.stream_decider
        if decider is None:
            return False
        method, target, _version = parsed_start
        return bool(decider(method, target, headers))

    def _build_streaming(self, parsed_start: Tuple[str, str, str],
                         headers: Headers) -> Request:
        method, target, version = parsed_start
        return Request(method=method, target=target, headers=headers,
                       body=b"", version=version, streaming=True)

    def _parse_start_line(self, line: str) -> Tuple[str, str, str]:
        parts = line.split(" ")
        if len(parts) != 3:
            raise HttpParseError(f"bad request line {line!r}")
        method, target, version = parts
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise HttpParseError(f"unsupported HTTP version {version!r}")
        return method, target, version

    def _build(self, parsed_start: Tuple[str, str, str], headers: Headers,
               body: bytes) -> Request:
        method, target, version = parsed_start
        return Request(method, target, headers, body, version)

    #: the next complete request, or ``None`` (:meth:`next_message`)
    next_request = _IncrementalParser.next_message


class ResponseParser(_IncrementalParser):
    """Incremental response parser (every client's read path).

    Set :attr:`stream_chunked` to hand a chunked response out as soon as
    its head parses (``streaming=True``, empty ``body``); its body then
    drains through :meth:`drain_body` (``HttpConnection.stream``).
    """

    stream_chunked = False

    def _should_stream(self, parsed_start, headers: Headers) -> bool:
        return self.stream_chunked

    def _build_streaming(self, parsed_start: Tuple[str, int],
                         headers: Headers) -> Response:
        version, status = parsed_start
        return Response(status=status, headers=headers, version=version,
                        streaming=True)

    def _parse_start_line(self, line: str) -> Tuple[str, int]:
        parts = line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpParseError(f"bad status line {line!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise HttpParseError(f"bad status code in {line!r}")
        return parts[0], status

    def _build(self, parsed_start: Tuple[str, int], headers: Headers,
               body: bytes) -> Response:
        version, status = parsed_start
        return Response(status, headers, body, version)

    #: the next complete response, or ``None`` (:meth:`next_message`)
    next_response = _IncrementalParser.next_message
