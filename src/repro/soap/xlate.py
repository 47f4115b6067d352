"""Fused, format-driven streaming XML <-> native translation plans.

This is the XML analogue of the compiled codec layer in
:mod:`repro.pbio.compiler`: for each :class:`~repro.pbio.fmt.Format` we
compile an *XML plan* — a pair of closures that translate between native
values and SOAP-encoded XML text with **no intermediate Element tree and no
per-item objects**:

* the **emitter** renders a native value straight into one output string.
  An integer array is formatted by cached ``%d`` templates over chunks of
  16 items (``<item>1</item><item>2</item>...``), a float array by one
  ``str.join`` over two C-level maps, strings are escaped with one
  :meth:`str.translate` call, and tag strings are precomputed once per
  plan;
* the **parser** scans the document text directly with ``str.find`` /
  ``str.split`` — a homogeneous primitive array is recognized as one run
  and bulk-converted: a long integer run by NumPy's C text parser in one
  pass (``numpy.fromstring``, guarded so that it yields exactly what
  ``int()`` yields, else skipped), any other run with ``map(int, ...)`` /
  ``map(float, ...)``; its grammar checks run only when that conversion
  fails — and builds native dicts/lists without constructing a single
  :class:`~repro.xmlcore.tree.Element` or pull event.  A SOAP Body plan
  (:func:`compile_body_parser`) runs the same parsers over an envelope's
  Body and leaves anything else to the tree path.

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
import warnings
from functools import lru_cache
from itertools import islice
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

__all__ = ["XlatePlanner", "compile_body_parser", "compile_emitter",
           "compile_parser"]

_WS = " \t\r\n"

#: Exact start tag of the emitter's grammar: no attributes, no prefix.
_SIMPLE_TAG_RX = re.compile(
    "<(" + tk.NAME_START_CLASS + tk.NAME_CHAR_CLASS + "*)>")

EmitFn = Callable[..., str]
ParseFn = Callable[[str], Dict[str, Any]]
BodyFn = Callable[[str], Optional[Dict[str, Any]]]


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


#: Items per ``%d`` template of an integer run.  A chunk's argument tuple
#: and its text (an int32 item is at most 24 characters with its tags)
#: stay within CPython's 512-byte small-object allocator.  Larger chunks
#: are a little faster, but their temporaries go to the C allocator,
#: whose per-thread arenas kept ~0.7 MB more peak RSS in a reactor server
#: at 256 items; one template per run cached a string per distinct length.
_RUN_CHUNK = 16

_ITEM_SEP = f"</{ITEM_TAG}><{ITEM_TAG}>"


@lru_cache(maxsize=_RUN_CHUNK)
def _int_template(count: int) -> str:
    """``%d</item><item>%d...`` with ``count`` conversions."""
    return _ITEM_SEP.join(["%d"] * count)


def _int_run(v: Any, n: int) -> str:
    """The ``n`` items of integer run ``v`` joined by ``</item><item>``.

    ``%d`` formats what ``str(int(x))`` does for ints, bools, floats and
    anything with ``__int__``/``__index__``, in one C-level pass per chunk
    (``zip`` cuts the chunks).  It refuses strings and bytes that
    ``int()`` accepts, and a run it refuses is rendered by the per-item
    path, so the text and the errors stay those of the tree path.
    """
    try:
        if n <= _RUN_CHUNK:
            return _int_template(n) % tuple(v)
        items = iter(v)
        stop = n - n % _RUN_CHUNK
        chunks = list(map(_int_template(_RUN_CHUNK).__mod__,
                          zip(*[islice(items, stop)] * _RUN_CHUNK)))
        if stop < n:
            chunks.append(_int_template(n - stop) % tuple(items))
        return _ITEM_SEP.join(chunks)
    except (TypeError, ValueError, OverflowError):
        return _ITEM_SEP.join(map(str, map(int, v)))


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
        # Numeric run: one tolist + one C-level pass + one join.  The text
        # of every item matches the tree path exactly (str(int(v)) for
        # integer kinds, repr(float(v)) for float kinds).
        if el.kind.startswith("float"):
            def run(v: Any, n: int) -> str:
                return sep.join(map(repr, map(float, v)))
        else:
            run = _int_run

        def emit(parts: List[str], v: Any) -> None:
            n = check(v)
            if n == 0:
                parts.append(empty)
                return
            items = v.tolist() if _np is not None and isinstance(
                v, _np.ndarray) else v
            try:
                body = run(items, n)
            except (TypeError, ValueError):
                # Re-derive the exact per-item tree-path error message
                # (from the caller's items: a NumPy scalar's repr differs
                # from its tolist() value's).
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


#: Characters a numeric run is made of: its item tags, digits, signs,
#: exponents, ``nan``/``inf``/``infinity`` and whitespace.
_RUN_CHARS = frozenset("</item>0123456789+-._eEnaftyNAFTY \t\r\n")


def _tag_finder(tag: str) -> Callable[[str, int], int]:
    """``find(text, start)``: ``text.find(tag, start)``, faster past a run.

    ``str.find`` of a whole end tag crawls through a run's many ``<`` and
    ``>``; one character is one ``memchr``.  So the finder first looks for
    the first character of ``tag`` that runs are not made of, and takes
    that hit if the whole tag is there; otherwise (or for a tag made only
    of run characters) it searches for the whole tag.
    """
    back = next((i for i, ch in enumerate(tag) if ch not in _RUN_CHARS), -1)
    probe = tag[back]

    def find(text: str, start: int) -> int:
        if back >= 0:
            hit = text.find(probe, start + back)
            if hit >= 0 and text.startswith(tag, hit - back):
                return hit - back
        return text.find(tag, start)
    return find


def _probe_c_int_runs() -> bool:
    """Whether ``numpy.fromstring`` can read integer runs for this module.

    It must read a run exactly and *raise* on text it cannot match: older
    NumPy warns instead and returns what it read, which would drop items
    silently.
    """
    if _np is None:
        return False
    exact = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            exact = _np.fromstring(f"7{_ITEM_SEP}-8", dtype=_np.int64,
                                   sep=_ITEM_SEP).tolist() == [7, -8]
            _np.fromstring(f"7{_ITEM_SEP}x", dtype=_np.int64, sep=_ITEM_SEP)
        except ValueError:
            return exact and not caught
        except Exception:  # noqa: BLE001 - any other answer disables it
            return False
    return False


#: Integer runs are read by NumPy's C text parser (:func:`_c_int_values`).
_C_INT_RUNS = _probe_c_int_runs()

#: Runs shorter than this (about 35 to 50 items) are cheaper to ``split``
#: and ``int()``: the C step's NumPy calls cost ~5.5 µs per run.
_C_INT_MIN_CHARS = 768

#: Characters NumPy's integer parser reads differently from ``int()``:
#: it skips ASCII whitespace anywhere around a number (so a blank item
#: reads 0), and it reads a lone ``+`` as 0.
_C_INT_REFUSED = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "+")
_DIGITS = "0123456789"
_I64_MIN, _I64_MAX = -2**63, 2**63 - 1


def _c_int_values(run: str) -> Optional[List[int]]:
    """The integers of ``run`` (items joined by ``</item><item>``), read in
    one C-level pass, or ``None`` where ``int()`` might disagree.

    ``None`` sends the run to ``split`` and ``int()``, whose failure
    branch gives the exact error.  Each guard blocks one quirk of the C
    parser:

    * the run must end in a digit: it accepts a trailing separator, or
      any prefix of one, and reads an empty run as no items;
    * no ASCII whitespace and no ``+`` (:data:`_C_INT_REFUSED`);
    * no value at an int64 edge: out-of-range values saturate to them
      (a large negative one even to the maximum);
    * where a value is 0, as many ``-`` as negative values: a lone ``-``
      reads 0 too.
    """
    if len(run) < _C_INT_MIN_CHARS or not _C_INT_RUNS \
            or run[-1] not in _DIGITS:
        return None
    for ch in _C_INT_REFUSED:
        if ch in run:
            return None
    try:
        values = _np.fromstring(run, dtype=_np.int64, sep=_ITEM_SEP)
    except ValueError:
        return None
    if values.min() == _I64_MIN or values.max() == _I64_MAX:
        return None
    if not values.all() and \
            run.count("-") != _np.count_nonzero(values < 0):
        return None
    return values.tolist()


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
        find_close = _tag_finder(close)
        c_ints = bulk_conv is int

        def parse(text: str, pos: int) -> Tuple[Any, int]:
            pos = _skip_ws(text, pos)
            if text.startswith(empty, pos):
                return check([]), pos + len(empty)
            if not text.startswith(open_, pos):
                raise _Fallback
            body_start = pos + len(open_)
            endpos = find_close(text, body_start)
            if endpos < 0:
                raise _Fallback
            if endpos == body_start:
                return check([]), endpos + len(close)
            if not (text.startswith(item_open, body_start)
                    and text.endswith(item_close, body_start, endpos)):
                raise _Fallback
            run = text[body_start + len(item_open):
                       endpos - len(item_close)]
            items = _c_int_values(run) if c_ints else None
            if items is None:
                pieces = run.split(sep)
                if bulk_conv is str:
                    items = checked_values(pieces)
                else:
                    try:
                        items = list(map(bulk_conv, pieces))
                    except ValueError:
                        # No number holds '<' or '&', so a run that
                        # converts is on the grammar; only a failed one
                        # is scanned.
                        items = checked_values(pieces)
            return check(items), endpos + len(close)

        def checked_values(pieces: List[str]) -> List[Any]:
            """The item values of a run on the grammar, entities resolved.

            A piece holding a '<' (CDATA, nested markup, comments, stray
            tags) leaves the grammar.  Each other piece is read by the
            tree path's ``_parse_primitive``, which gives its value or
            its exact error.
            """
            if any("<" in p for p in pieces):
                raise _Fallback
            pieces = [_resolve_entities(p) if "&" in p else p
                      for p in pieces]
            if bulk_conv is str:
                return pieces
            return [_parse_primitive(p, el, ITEM_TAG) for p in pieces]
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


def _element_parser(fmt: Format, planner: "XlatePlanner"
                    ) -> Callable[[str, int], Tuple[Dict[str, Any], int]]:
    """Compile ``element(text, pos) -> (value, pos)`` for one element
    carrying ``fmt``'s fields; its own name is not checked."""
    fps = _field_parsers(fmt, planner)

    def element(text: str, pos: int) -> Tuple[Dict[str, Any], int]:
        m = _SIMPLE_TAG_RX.match(text, pos)
        if m is None:
            raise _Fallback
        pos = m.end()
        value: Dict[str, Any] = {}
        for fname, fp in fps:
            value[fname], pos = fp(text, pos)
        pos = _skip_ws(text, pos)
        close = f"</{m.group(1)}>"
        if not text.startswith(close, pos):
            raise _Fallback
        return value, pos + len(close)
    return element


def compile_parser(fmt: Format, planner: "XlatePlanner") -> ParseFn:
    """Compile the from-XML plan for ``fmt``.

    The returned callable matches
    :meth:`repro.core.conversion.ConversionHandler.from_xml` (streaming
    mode): the wrapper element's name is not checked, fields must appear
    in format order.  Documents outside the fast grammar are transparently
    re-parsed on the pull path, so values and errors are identical to the
    pre-plan streaming behaviour.
    """
    element = _element_parser(fmt, planner)
    registry = planner.registry

    def fast(text: str) -> Dict[str, Any]:
        pos = 1 if text.startswith("\ufeff") else 0
        pos = _skip_ws(text, pos)
        # The XML declaration and PIs are invisible to the pull path.
        while text.startswith("<?", pos):
            end = text.find("?>", pos + 2)
            if end < 0:
                raise _Fallback
            pos = _skip_ws(text, end + 2)
        return element(text, pos)[0]

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


def compile_body_parser(fmt: Format, planner: "XlatePlanner") -> BodyFn:
    """Compile the SOAP Body plan for ``fmt``.

    ``parse_body(fragment)`` decodes the inner XML of a Body whose only
    entry is one element carrying ``fmt``'s fields (its name is not
    checked) with nothing after it.  It returns ``None`` for a fragment
    off the fast grammar or one that does not decode: the caller's tree
    path then produces the value or the exact error, so there is no pull
    re-parse in between.
    """
    element = _element_parser(fmt, planner)

    def parse_body(fragment: str) -> Optional[Dict[str, Any]]:
        try:
            value, end = element(fragment, 0)
        except (_Fallback, SoapDecodingError):
            return None
        return value if end == len(fragment) else None

    return parse_body


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
        self._bodies: Dict[str, BodyFn] = {}
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

    def body_parser(self, fmt: Format) -> BodyFn:
        """The compiled SOAP Body plan for ``fmt`` (compiling if needed)."""
        fn = self._bodies.get(fmt.fingerprint)
        if fn is None:
            fn = compile_body_parser(fmt, self)
            self._bodies[fmt.fingerprint] = fn
        return fn

    def invalidate(self) -> None:
        """Drop every cached plan (a registry format was redefined)."""
        self._emitters.clear()
        self._parsers.clear()
        self._bodies.clear()


install_xlate_planner(XlatePlanner)
