"""A hand-written, single-pass XML tokenizer.

This is the reproduction's stand-in for the Expat toolkit the paper uses for
parsing XML (footnote 1 of the paper).  It scans a document exactly once and
yields a flat stream of tokens; the tree builder (:mod:`repro.xmlcore.tree`)
and the pull parser (:mod:`repro.xmlcore.pull`) are both thin consumers of
this stream.

The tokenizer supports the subset of XML 1.0 that SOAP 1.1 and WSDL actually
exercise:

* start / end / empty element tags with attributes,
* character data with entity references (named and numeric),
* CDATA sections,
* comments and processing instructions (reported, usually skipped),
* an XML declaration and DOCTYPE (skipped; internal subsets rejected).

It intentionally does *not* implement external entities or DTD validation —
neither do Expat-based SOAP stacks in their default configuration, and
omitting them removes an entire class of XXE security problems.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import XmlParseError

#: Token kind constants.  Kept as plain strings for cheap comparisons and
#: readable debugging output.
START = "start"          #: start tag, possibly self-closing
END = "end"              #: end tag
TEXT = "text"            #: character data (entities already resolved)
COMMENT = "comment"      #: ``<!-- ... -->``
PI = "pi"                #: processing instruction ``<? ... ?>``
CDATA = "cdata"          #: CDATA section content
DOCTYPE = "doctype"      #: document type declaration (content unparsed)

_NAMED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

# XML 1.0 Name production, restricted to ASCII letters, digits and
# ``-._:`` plus every code point from U+00C0 through U+FFFF.  Each class
# is written as one negated class: the range form ``[A-Za-z_:\xc0-\uffff]``
# matches the same characters, but ``re`` walks all 65k code points of the
# range to compile it (8-16 ms per pattern, in every process; this form
# compiles in about 0.5 ms).
#: A name's first character.
NAME_START_CLASS = (r"[^\x00-\x39\x3b-\x40\x5b-\x5e\x60\x7b-\xbf"
                    r"\U00010000-\U0010ffff]")
#: Any later character of a name.
NAME_CHAR_CLASS = (r"[^\x00-\x2c\x2f\x3b-\x40\x5b-\x5e\x60\x7b-\xbf"
                   r"\U00010000-\U0010ffff]")
_NAME_START = re.compile(NAME_START_CLASS)
_NAME_CHAR = re.compile(NAME_CHAR_CLASS)
# Whole-name matcher: one C-level scan instead of per-character stepping.
_NAME_RX = re.compile(NAME_START_CLASS + NAME_CHAR_CLASS + "*")

_WHITESPACE = " \t\r\n"
_WS_RX = re.compile(r"[ \t\r\n]*")


@dataclass
class Token:
    """One lexical token.

    ``name`` is set for START/END/PI tokens, ``data`` for TEXT/COMMENT/CDATA
    and PI payloads, ``attrs`` only for START tokens.  ``self_closing`` marks
    ``<tag/>`` style tags, for which no matching END token is emitted.
    """

    kind: str
    name: str = ""
    data: str = ""
    attrs: Dict[str, str] = field(default_factory=dict)
    self_closing: bool = False
    line: int = 0
    column: int = 0


def resolve_entity(name: str) -> str:
    """Resolve an entity reference body (without ``&`` and ``;``).

    Supports the five XML named entities plus decimal (``#65``) and
    hexadecimal (``#x41``) character references.

    >>> resolve_entity("amp")
    '&'
    >>> resolve_entity("#x41")
    'A'
    """
    if name in _NAMED_ENTITIES:
        return _NAMED_ENTITIES[name]
    if name.startswith("#x") or name.startswith("#X"):
        try:
            return chr(int(name[2:], 16))
        except ValueError:
            raise XmlParseError(f"bad hex character reference &{name};")
    if name.startswith("#"):
        try:
            return chr(int(name[1:], 10))
        except ValueError:
            raise XmlParseError(f"bad character reference &{name};")
    raise XmlParseError(f"unknown entity &{name};")


class Tokenizer:
    """Single pass scanner over an XML source string.

    Iterate over the instance to receive :class:`Token` objects.  The
    tokenizer performs *well-formedness checks that are local to a token*
    (attribute syntax, entity syntax, tag syntax); cross-token checks such as
    tag balancing belong to the consumers.
    """

    def __init__(self, text: str) -> None:
        if text.startswith("﻿"):
            text = text[1:]
        self._text = text
        self._pos = 0
        self._len = len(text)
        # Incremental line/column tracking: positions are requested in
        # monotonically increasing offset order (one per token), so we keep
        # a high-water mark and only count newlines in the gap since the
        # last request — O(n) total instead of O(n^2).
        self._mark_offset = 0
        self._mark_line = 1
        self._mark_last_nl = -1

    # ------------------------------------------------------------------
    # position helpers
    # ------------------------------------------------------------------
    def _position(self, offset: Optional[int] = None) -> Tuple[int, int]:
        """Return (line, column), both 1-based, for ``offset``."""
        if offset is None:
            offset = self._pos
        if offset < self._mark_offset:
            # Rare (error reporting for an earlier offset): full rescan.
            line = self._text.count("\n", 0, offset) + 1
            last_nl = self._text.rfind("\n", 0, offset)
            return line, offset - last_nl
        gap_newlines = self._text.count("\n", self._mark_offset, offset)
        if gap_newlines:
            self._mark_line += gap_newlines
            self._mark_last_nl = self._text.rfind("\n", self._mark_offset,
                                                  offset)
        self._mark_offset = offset
        return self._mark_line, offset - self._mark_last_nl

    def _error(self, message: str, offset: Optional[int] = None) -> XmlParseError:
        if offset is None:
            offset = self._pos
        line, column = self._position(offset)
        return XmlParseError(message, line=line, column=column, offset=offset)

    # ------------------------------------------------------------------
    # scanning primitives
    # ------------------------------------------------------------------
    def _peek(self) -> str:
        if self._pos >= self._len:
            return ""
        return self._text[self._pos]

    def _startswith(self, s: str) -> bool:
        return self._text.startswith(s, self._pos)

    def _skip_ws(self) -> None:
        # One C-level scan (find-chunked) instead of per-character stepping.
        self._pos = _WS_RX.match(self._text, self._pos).end()

    def _scan_name(self) -> str:
        match = _NAME_RX.match(self._text, self._pos)
        if match is None:
            raise self._error("expected a name")
        self._pos = match.end()
        # Tag and attribute names repeat constantly in SOAP documents
        # (every array item shares one tag); interning makes every
        # downstream name comparison a pointer check and collapses the
        # per-token allocations to one string per distinct name.
        return sys.intern(match.group())

    def _expect(self, s: str) -> None:
        if not self._startswith(s):
            raise self._error(f"expected {s!r}")
        self._pos += len(s)

    def _scan_until(self, marker: str, what: str) -> str:
        end = self._text.find(marker, self._pos)
        if end < 0:
            raise self._error(f"unterminated {what}")
        data = self._text[self._pos:end]
        self._pos = end + len(marker)
        return data

    # ------------------------------------------------------------------
    # token production
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Token]:
        return self.tokens()

    def tokens(self) -> Iterator[Token]:
        """Yield the token stream for the whole document."""
        while self._pos < self._len:
            if self._peek() == "<":
                tok = self._scan_markup()
                if tok is not None:
                    yield tok
            else:
                yield self._scan_text()

    def _scan_text(self) -> Token:
        start = self._pos
        line, column = self._position(start)
        nxt = self._text.find("<", start)
        if nxt < 0:
            nxt = self._len
        raw = self._text[start:nxt]
        self._pos = nxt
        return Token(TEXT, data=self._decode_text(raw, start), line=line,
                     column=column)

    def _decode_text(self, raw: str, base_offset: int) -> str:
        """Resolve entity references inside character data."""
        if "&" not in raw:
            return raw
        out: List[str] = []
        pos = 0
        while True:
            amp = raw.find("&", pos)
            if amp < 0:
                out.append(raw[pos:])
                break
            out.append(raw[pos:amp])
            semi = raw.find(";", amp + 1)
            if semi < 0 or semi - amp > 12:
                raise self._error("unterminated entity reference",
                                  offset=base_offset + amp)
            try:
                out.append(resolve_entity(raw[amp + 1:semi]))
            except XmlParseError as exc:
                raise self._error(exc.message, offset=base_offset + amp)
            pos = semi + 1
        return "".join(out)

    def _scan_markup(self) -> Optional[Token]:
        line, column = self._position()
        if self._startswith("<!--"):
            self._pos += 4
            data = self._scan_until("-->", "comment")
            if "--" in data:
                raise self._error("'--' not allowed inside a comment")
            return Token(COMMENT, data=data, line=line, column=column)
        if self._startswith("<![CDATA["):
            self._pos += 9
            data = self._scan_until("]]>", "CDATA section")
            return Token(CDATA, data=data, line=line, column=column)
        if self._startswith("<!DOCTYPE"):
            self._pos += 9
            data = self._scan_doctype()
            return Token(DOCTYPE, data=data, line=line, column=column)
        if self._startswith("<?"):
            self._pos += 2
            name = self._scan_name()
            data = self._scan_until("?>", "processing instruction")
            return Token(PI, name=name, data=data.strip(), line=line,
                         column=column)
        if self._startswith("</"):
            self._pos += 2
            name = self._scan_name()
            self._skip_ws()
            self._expect(">")
            return Token(END, name=name, line=line, column=column)
        return self._scan_start_tag(line, column)

    def _scan_doctype(self) -> str:
        """Skip a DOCTYPE declaration, rejecting internal subsets.

        Internal subsets can define entities, which we deliberately do not
        support (XXE hardening); SOAP messages never carry them.
        """
        start = self._pos
        depth = 0
        while self._pos < self._len:
            ch = self._text[self._pos]
            if ch == "[":
                raise self._error("DOCTYPE internal subsets are not supported")
            if ch == ">":
                data = self._text[start:self._pos]
                self._pos += 1
                return data.strip()
            self._pos += 1
            if ch == "<":
                depth += 1
        raise self._error("unterminated DOCTYPE")

    def _scan_start_tag(self, line: int, column: int) -> Token:
        self._expect("<")
        name = self._scan_name()
        attrs: Dict[str, str] = {}
        while True:
            had_ws = self._peek() in _WHITESPACE
            self._skip_ws()
            ch = self._peek()
            if ch == "":
                raise self._error(f"unterminated start tag <{name}>")
            if ch == ">":
                self._pos += 1
                return Token(START, name=name, attrs=attrs, line=line,
                             column=column)
            if self._startswith("/>"):
                self._pos += 2
                return Token(START, name=name, attrs=attrs,
                             self_closing=True, line=line, column=column)
            if not had_ws:
                raise self._error("whitespace required before attribute")
            attr_offset = self._pos
            attr = self._scan_name()
            self._skip_ws()
            self._expect("=")
            self._skip_ws()
            value = self._scan_attr_value()
            if attr in attrs:
                raise self._error(f"duplicate attribute {attr!r}",
                                  offset=attr_offset)
            attrs[attr] = value

    def _scan_attr_value(self) -> str:
        quote = self._peek()
        if quote not in ("'", '"'):
            raise self._error("attribute value must be quoted")
        self._pos += 1
        start = self._pos
        end = self._text.find(quote, start)
        if end < 0:
            raise self._error("unterminated attribute value", offset=start)
        raw = self._text[start:end]
        if "<" in raw:
            raise self._error("'<' not allowed in attribute value",
                              offset=start + raw.index("<"))
        self._pos = end + 1
        # Attribute-value normalization: newlines/tabs become spaces.
        raw = raw.replace("\t", " ").replace("\n", " ").replace("\r", " ")
        return self._decode_text(raw, start)


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` eagerly and return the token list.

    Convenience wrapper used heavily in tests; production consumers iterate
    a :class:`Tokenizer` lazily instead.
    """
    return list(Tokenizer(text).tokens())
