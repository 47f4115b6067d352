"""Fused, format-driven streaming XML <-> native translation plans.

This is the XML analogue of the compiled codec layer in
:mod:`repro.pbio.compiler`: for each :class:`~repro.pbio.fmt.Format` we
compile an *XML plan* — a pair of closures that translate between native
values and SOAP-encoded XML text with **no intermediate Element tree and no
per-item objects**:

* the **emitter** renders a native value straight into one output string.
  Primitive arrays become a single ``str.join`` over a C-level ``map`` of
  preformatted item runs (``<item>1</item><item>2</item>...``), strings are
  escaped with one :meth:`str.translate` call, and tag strings are
  precomputed once per plan;
* the **parser** scans the document text directly with ``str.find`` /
  ``str.split`` — a homogeneous primitive array is recognized as one run
  and bulk-converted with ``map(int, ...)`` / ``map(float, ...)`` — and
  builds native dicts/lists without constructing a single
  :class:`~repro.xmlcore.tree.Element` or pull event.

The fast parser accepts exactly the grammar the emitter produces (plus
entity references and surrounding whitespace).  Anything else — prefixed
tags, attributes, CDATA, comments between items, malformed markup — raises
the internal :class:`_Fallback` signal and the document is re-parsed on the
streaming pull-parser path, which yields the same values for valid input
and the same :class:`~repro.xmlcore.errors.XmlParseError` /
:class:`~repro.soap.errors.SoapDecodingError` for invalid input.  The tree
path (:func:`repro.soap.encoding.decode_fields`) stays as the differential
-test oracle, the same role :mod:`repro.pbio.interp` plays for the binary
codec.

Plans are cached per format fingerprint in an :class:`XlatePlanner`.  One
planner is shared per registry (see :attr:`FormatRegistry.xlate`) and its
cache is invalidated by :meth:`FormatRegistry.redefine`, exactly like the
codec caches.  Loading this module installs :class:`XlatePlanner` as that
shared planner (:func:`repro.pbio.registry.install_xlate_planner`); the
``repro.soap`` package imports it first, so any SOAP import does.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a hard dep in practice
    _np = None

from ..pbio import Array, FieldType, Format, Primitive, StructRef
from ..pbio.registry import install_xlate_planner
from ..xmlcore import XmlPullParser
from ..xmlcore import tokenizer as tk
from ..xmlcore.errors import XmlParseError, XmlWriteError
from ..xmlcore.writer import _NAME_OK, escape_text
from .encoding import (ITEM_TAG, _parse_primitive, _primitive_text,
                       decode_fields_pull)
from .errors import SoapDecodingError, SoapEncodingError

__all__ = ["XlatePlanner", "compile_emitter", "compile_parser"]

_WS = " \t\r\n"

#: Exact start tag of the emitter's grammar: no attributes, no prefix.
_SIMPLE_TAG_RX = re.compile(
    "<(" + tk.NAME_START_CLASS + tk.NAME_CHAR_CLASS + "*)>")

EmitFn = Callable[..., str]
ParseFn = Callable[[str], Dict[str, Any]]


class _Fallback(Exception):
    """Internal control flow: the fast scanner left its grammar.

    Never escapes this module — the compiled parser catches it and re-runs
    the document through the streaming pull path.
    """


# ----------------------------------------------------------------------
# emitter compilation: native -> XML text
# ----------------------------------------------------------------------

def _check_tag(tag: str) -> str:
    """Mirror the writer's element-name validation at plan-compile time."""
    if not _NAME_OK.match(tag):
        raise XmlWriteError(f"invalid element name {tag!r}")
    return tag


def _type_emitter(tag: str, ftype: FieldType,
                  planner: "XlatePlanner") -> Callable[[List[str], Any], None]:
    """Compile ``emit(parts, value)`` appending ``<tag>...</tag>``."""
    _check_tag(tag)
    open_, close, empty = f"<{tag}>", f"</{tag}>", f"<{tag}/>"

    if isinstance(ftype, Primitive):
        if ftype.kind in ("string", "char"):
            def emit(parts: List[str], v: Any) -> None:
                parts.append(open_)
                parts.append(escape_text(_primitive_text(v, ftype)))
                parts.append(close)
        else:
            def emit(parts: List[str], v: Any) -> None:
                parts.append(open_)
                parts.append(_primitive_text(v, ftype))
                parts.append(close)
        return emit

    if isinstance(ftype, Array):
        return _array_emitter(tag, ftype, planner, open_, close, empty)

    if isinstance(ftype, StructRef):
        fmt_name = ftype.format_name
        cell: List[List[Callable]] = []

        def emit(parts: List[str], v: Any) -> None:
            if not cell:
                sub_fmt = planner.registry.by_name(fmt_name)
                cell.append(_field_emitters(sub_fmt, planner))
            field_emits = cell[0]
            if not field_emits:
                parts.append(empty)
                return
            parts.append(open_)
            for fe in field_emits:
                fe(parts, v)
            parts.append(close)
        return emit

    raise SoapEncodingError(f"cannot encode type {ftype!r}")


def _array_emitter(tag: str, ftype: Array, planner: "XlatePlanner",
                   open_: str, close: str,
                   empty: str) -> Callable[[List[str], Any], None]:
    el = ftype.element
    length = ftype.length
    item_open, item_close = f"<{ITEM_TAG}>", f"</{ITEM_TAG}>"
    sep = item_close + item_open

    def check(v: Any) -> int:
        n = len(v)
        if length is not None and n != length:
            raise SoapEncodingError(
                f"<{tag}>: expected {length} items, got {n}")
        return n

    if isinstance(el, Primitive) and el.kind not in ("string", "char"):
        # Numeric run: one tolist + two C-level maps + one join.  The text
        # of every item matches the tree path exactly (str(int(v)) for
        # integer kinds, repr(float(v)) for float kinds).
        if el.kind.startswith("float"):
            def run(v: Any) -> str:
                return sep.join(map(repr, map(float, v)))
        else:
            def run(v: Any) -> str:
                return sep.join(map(str, map(int, v)))

        def emit(parts: List[str], v: Any) -> None:
            if check(v) == 0:
                parts.append(empty)
                return
            if _np is not None and isinstance(v, _np.ndarray):
                v = v.tolist()
            try:
                body = run(v)
            except (TypeError, ValueError):
                # Re-derive the exact per-item tree-path error message.
                for item in v:
                    _primitive_text(item, el)
                raise  # pragma: no cover - retry cannot succeed
            parts.append(open_)
            parts.append(item_open)
            parts.append(body)
            parts.append(item_close)
            parts.append(close)
        return emit

    if isinstance(el, Primitive):
        def emit(parts: List[str], v: Any) -> None:
            if check(v) == 0:
                parts.append(empty)
                return
            texts = [escape_text(_primitive_text(item, el)) for item in v]
            parts.append(open_)
            parts.append(item_open)
            parts.append(sep.join(texts))
            parts.append(item_close)
            parts.append(close)
        return emit

    sub = _type_emitter(ITEM_TAG, el, planner)

    def emit(parts: List[str], v: Any) -> None:
        if check(v) == 0:
            parts.append(empty)
            return
        parts.append(open_)
        for item in v:
            sub(parts, item)
        parts.append(close)
    return emit


def _field_emitters(fmt: Format,
                    planner: "XlatePlanner") -> List[Callable]:
    emits: List[Callable] = []
    for field in fmt.fields:
        te = _type_emitter(field.name, field.ftype, planner)

        def fe(parts: List[str], value: Dict[str, Any], _te: Callable = te,
               _name: str = field.name, _fmt: str = fmt.name) -> None:
            try:
                fv = value[_name]
            except KeyError:
                raise SoapEncodingError(
                    f"message {_fmt!r}: missing field {_name!r}")
            _te(parts, fv)
        emits.append(fe)
    return emits


def compile_emitter(fmt: Format, planner: "XlatePlanner") -> EmitFn:
    """Compile the to-XML plan for ``fmt``.

    The returned callable matches
    :meth:`repro.core.conversion.ConversionHandler.to_xml`:
    ``emit(value, wrapper_tag=None) -> str``, byte-identical to the tree
    path (``tostring(encode_fields(Element(tag), ...))``).
    """
    field_emits = _field_emitters(fmt, planner)
    default_open = f"<{_check_tag(fmt.name)}>"
    default_close = f"</{fmt.name}>"
    default_empty = f"<{fmt.name}/>"

    def to_xml(value: Dict[str, Any],
               wrapper_tag: Optional[str] = None) -> str:
        if wrapper_tag is None or wrapper_tag == fmt.name:
            open_, close, empty = default_open, default_close, default_empty
        else:
            _check_tag(wrapper_tag)
            open_ = f"<{wrapper_tag}>"
            close = f"</{wrapper_tag}>"
            empty = f"<{wrapper_tag}/>"
        if not field_emits:
            return empty
        parts = [open_]
        for fe in field_emits:
            fe(parts, value)
        parts.append(close)
        return "".join(parts)

    return to_xml


# ----------------------------------------------------------------------
# parser compilation: XML text -> native
# ----------------------------------------------------------------------

def _skip_ws(text: str, pos: int) -> int:
    n = len(text)
    while pos < n and text[pos] in _WS:
        pos += 1
    return pos


def _resolve_entities(raw: str) -> str:
    """Resolve entity references; malformed ones trigger the slow path
    (which reports them with exact line/column positions)."""
    out: List[str] = []
    pos = 0
    while True:
        amp = raw.find("&", pos)
        if amp < 0:
            out.append(raw[pos:])
            return "".join(out)
        out.append(raw[pos:amp])
        semi = raw.find(";", amp + 1)
        if semi < 0 or semi - amp > 12:
            raise _Fallback
        try:
            out.append(tk.resolve_entity(raw[amp + 1:semi]))
        except XmlParseError:
            raise _Fallback
        pos = semi + 1


def _type_parser(tag: str, ftype: FieldType, planner: "XlatePlanner"
                 ) -> Callable[[str, int], Tuple[Any, int]]:
    """Compile ``parse(text, pos) -> (value, pos)`` consuming the whole
    ``<tag>...</tag>`` element (leading whitespace included)."""
    if isinstance(ftype, Primitive):
        return _prim_parser(tag, ftype)
    if isinstance(ftype, Array):
        return _array_parser(tag, ftype, planner)
    if isinstance(ftype, StructRef):
        return _struct_parser(tag, ftype, planner)
    raise SoapDecodingError(f"cannot decode type {ftype!r}")


def _prim_parser(tag: str, ftype: Primitive
                 ) -> Callable[[str, int], Tuple[Any, int]]:
    open_, close, empty = f"<{tag}>", f"</{tag}>", f"<{tag}/>"
    lo = len(open_)

    def parse(text: str, pos: int) -> Tuple[Any, int]:
        pos = _skip_ws(text, pos)
        if not text.startswith(open_, pos):
            if text.startswith(empty, pos):
                return _parse_primitive("", ftype, tag), pos + len(empty)
            raise _Fallback
        start = pos + lo
        end = text.find("<", start)
        if end < 0 or not text.startswith(close, end):
            raise _Fallback
        raw = text[start:end]
        if "&" in raw:
            raw = _resolve_entities(raw)
        return _parse_primitive(raw, ftype, tag), end + len(close)
    return parse


def _array_parser(tag: str, ftype: Array, planner: "XlatePlanner"
                  ) -> Callable[[str, int], Tuple[Any, int]]:
    el = ftype.element
    length = ftype.length
    open_, close, empty = f"<{tag}>", f"</{tag}>", f"<{tag}/>"
    item_open, item_close = f"<{ITEM_TAG}>", f"</{ITEM_TAG}>"
    sep = item_close + item_open

    def check(items: List[Any]) -> List[Any]:
        if length is not None and len(items) != length:
            raise SoapDecodingError(
                f"<{tag}>: expected {length} items, got {len(items)}")
        return items

    bulk_conv: Any = None
    if isinstance(el, Primitive):
        if el.kind == "string":
            bulk_conv = str
        elif el.kind.startswith("float"):
            bulk_conv = float
        elif el.kind != "char":
            bulk_conv = int

    if bulk_conv is not None:
        def parse(text: str, pos: int) -> Tuple[Any, int]:
            pos = _skip_ws(text, pos)
            if text.startswith(empty, pos):
                return check([]), pos + len(empty)
            if not text.startswith(open_, pos):
                raise _Fallback
            body_start = pos + len(open_)
            endpos = text.find(close, body_start)
            if endpos < 0:
                raise _Fallback
            region = text[body_start:endpos]
            if not region:
                return check([]), endpos + len(close)
            if not (region.startswith(item_open)
                    and region.endswith(item_close)):
                raise _Fallback
            pieces = region[len(item_open):-len(item_close)].split(sep)
            # Exactly one '<' per item tag: anything extra (CDATA, nested
            # markup, comments, stray text with tags) leaves the grammar.
            if region.count("<") != 2 * len(pieces):
                raise _Fallback
            if "&" in region:
                pieces = [_resolve_entities(p) if "&" in p else p
                          for p in pieces]
            if bulk_conv is str:
                return check(pieces), endpos + len(close)
            try:
                items = list(map(bulk_conv, pieces))
            except (ValueError, OverflowError):
                # Re-derive the exact tree-path error for the bad item.
                for p in pieces:
                    _parse_primitive(p, el, ITEM_TAG)
                raise  # pragma: no cover - retry cannot succeed
            return check(items), endpos + len(close)
        return parse

    item_parse = _type_parser(ITEM_TAG, el, planner)

    def parse(text: str, pos: int) -> Tuple[Any, int]:
        pos = _skip_ws(text, pos)
        if text.startswith(empty, pos):
            return check([]), pos + len(empty)
        if not text.startswith(open_, pos):
            raise _Fallback
        pos += len(open_)
        items: List[Any] = []
        while True:
            pos = _skip_ws(text, pos)
            if text.startswith(close, pos):
                return check(items), pos + len(close)
            item, pos = item_parse(text, pos)
            items.append(item)
    return parse


def _struct_parser(tag: str, ftype: StructRef, planner: "XlatePlanner"
                   ) -> Callable[[str, int], Tuple[Any, int]]:
    open_, close, empty = f"<{tag}>", f"</{tag}>", f"<{tag}/>"
    fmt_name = ftype.format_name
    cell: List[List[Tuple[str, Callable]]] = []

    def parse(text: str, pos: int) -> Tuple[Any, int]:
        if not cell:
            sub_fmt = planner.registry.by_name(fmt_name)
            cell.append(_field_parsers(sub_fmt, planner))
        fps = cell[0]
        pos = _skip_ws(text, pos)
        if text.startswith(empty, pos):
            if not fps:
                return {}, pos + len(empty)
            raise _Fallback
        if not text.startswith(open_, pos):
            raise _Fallback
        pos += len(open_)
        value: Dict[str, Any] = {}
        for fname, fp in fps:
            value[fname], pos = fp(text, pos)
        pos = _skip_ws(text, pos)
        if not text.startswith(close, pos):
            raise _Fallback
        return value, pos + len(close)
    return parse


def _field_parsers(fmt: Format, planner: "XlatePlanner"
                   ) -> List[Tuple[str, Callable]]:
    return [(field.name, _type_parser(field.name, field.ftype, planner))
            for field in fmt.fields]


def compile_parser(fmt: Format, planner: "XlatePlanner") -> ParseFn:
    """Compile the from-XML plan for ``fmt``.

    The returned callable matches
    :meth:`repro.core.conversion.ConversionHandler.from_xml` (streaming
    mode): the wrapper element's name is not checked, fields must appear
    in format order.  Documents outside the fast grammar are transparently
    re-parsed on the pull path, so values and errors are identical to the
    pre-plan streaming behaviour.
    """
    fps = _field_parsers(fmt, planner)
    registry = planner.registry

    def fast(text: str) -> Dict[str, Any]:
        pos = 1 if text.startswith("﻿") else 0
        pos = _skip_ws(text, pos)
        # The XML declaration and PIs are invisible to the pull path.
        while text.startswith("<?", pos):
            end = text.find("?>", pos + 2)
            if end < 0:
                raise _Fallback
            pos = _skip_ws(text, end + 2)
        m = _SIMPLE_TAG_RX.match(text, pos)
        if m is None:
            raise _Fallback
        pos = m.end()
        value: Dict[str, Any] = {}
        for fname, fp in fps:
            value[fname], pos = fp(text, pos)
        pos = _skip_ws(text, pos)
        if not text.startswith(f"</{m.group(1)}>", pos):
            raise _Fallback
        return value

    def from_xml(text: str) -> Dict[str, Any]:
        try:
            return fast(text)
        except _Fallback:
            pp = XmlPullParser(text)
            start = pp.require_start()
            value = decode_fields_pull(pp, fmt, registry)
            pp.require_end(start.name)
            return value

    return from_xml


# ----------------------------------------------------------------------
# the plan cache
# ----------------------------------------------------------------------

class XlatePlanner:
    """Compiles and caches XML plans per format fingerprint.

    One planner is shared per registry (:attr:`FormatRegistry.xlate`), the
    same ownership model as the codec compiler: plans are compiled once
    per process and dropped when :meth:`FormatRegistry.redefine` rebinds a
    format name.  Plans already handed out keep translating the layout
    they were compiled for.
    """

    def __init__(self, registry: Any) -> None:
        self.registry = registry
        self._emitters: Dict[str, EmitFn] = {}
        self._parsers: Dict[str, ParseFn] = {}
        attach = getattr(registry, "_attach_compiler", None)
        if attach is not None:
            attach(self)

    def emitter(self, fmt: Format) -> EmitFn:
        """The compiled to-XML plan for ``fmt`` (compiling if needed)."""
        fn = self._emitters.get(fmt.fingerprint)
        if fn is None:
            fn = compile_emitter(fmt, self)
            self._emitters[fmt.fingerprint] = fn
        return fn

    def parser(self, fmt: Format) -> ParseFn:
        """The compiled from-XML plan for ``fmt`` (compiling if needed)."""
        fn = self._parsers.get(fmt.fingerprint)
        if fn is None:
            fn = compile_parser(fmt, self)
            self._parsers[fmt.fingerprint] = fn
        return fn

    def invalidate(self) -> None:
        """Drop every cached plan (a registry format was redefined)."""
        self._emitters.clear()
        self._parsers.clear()


install_xlate_planner(XlatePlanner)
