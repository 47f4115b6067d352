"""Runtime-installed event filters for derived channels.

"The client can dynamically change the filter code and the output format
desired." (§IV-C.4)  A filter is Python source for a function body that
receives the event ``value`` (a dict) and either:

* returns a dict — the transformed event,
* returns ``None`` — the event is dropped.

Filter source arrives over the wire (the remote-viz client ships it in its
request), so compilation is sandboxed the cheap-but-honest way: no builtins
beyond an allowlist of pure functions, no import machinery, no attribute
access to dunder names.  This is *not* a security boundary against a
malicious peer — neither was ECho's DCG — but it stops accidents and keeps
filters declarative.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..core.dynamic import SAFE_BUILTINS, forbidden_token
from ..pbio import Format
from .errors import FilterError

EventFilter = Callable[[Format, Dict[str, Any]],
                       Optional[Tuple[Format, Dict[str, Any]]]]


def compile_filter(source: str, output_format: Optional[Format] = None,
                   name: str = "filter") -> EventFilter:
    """Compile filter source into an :data:`EventFilter`.

    The source is the *body* of a function ``def filter(value): ...``; it
    must ``return`` the transformed dict (or ``None`` to drop the event).

    >>> f = compile_filter("return {'n': value['n'] * 2}")
    >>> from repro.pbio import Format
    >>> fmt = Format.from_dict("ev", {"n": "int32"})
    >>> f(fmt, {"n": 21})[1]
    {'n': 42}
    """
    needle = forbidden_token(source)
    if needle is not None:
        raise FilterError(f"filter source may not contain {needle!r}")
    indented = "\n".join("    " + line for line in source.splitlines())
    wrapper = f"def _filter_fn(value):\n{indented or '    return value'}\n"
    namespace: Dict[str, Any] = {"__builtins__": dict(SAFE_BUILTINS)}
    try:
        exec(compile(wrapper, f"<echo-filter:{name}>", "exec"), namespace)
    except SyntaxError as exc:
        raise FilterError(f"filter does not compile: {exc}")
    fn = namespace["_filter_fn"]

    def event_filter(fmt: Format, value: Dict[str, Any]):
        try:
            result = fn(dict(value))
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise FilterError(f"filter raised {type(exc).__name__}: {exc}")
        if result is None:
            return None
        if not isinstance(result, dict):
            raise FilterError(
                f"filter must return a dict or None, got "
                f"{type(result).__name__}")
        return (output_format or fmt), result

    event_filter.__filter_source__ = source
    return event_filter


def identity_filter(fmt: Format, value: Dict[str, Any]):
    """The no-op filter (useful as a default)."""
    return fmt, value


def select_fields_filter(*field_names: str) -> EventFilter:
    """A pre-built filter keeping only the named fields."""

    def event_filter(fmt: Format, value: Dict[str, Any]):
        return fmt, {name: value[name] for name in field_names
                     if name in value}

    return event_filter
