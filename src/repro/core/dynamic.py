"""Runtime installation of quality handlers from source code.

§V (future work): "our current implementation installs handlers
statically, at compile-time.  In other work, we have already developed the
technologies necessary to install binary handlers at runtime, using dynamic
binary code generation techniques and/or using code repositories."

This module implements that extension for the reproduction: quality
handlers compiled from *source text* at runtime, which
``SoapBinService.install_handler_source`` installs on a live service.  The
compilation model matches the ECho filter sandbox: the source is the body
of a function, restricted builtins, no imports or dunder access.

Handler source contract: the body sees ``value`` (the application message
dict), ``src_fields``/``dst_fields`` (field-name lists of the two
formats), and ``attrs`` (a read-only snapshot of the quality attributes);
it must return the dict for the destination message type.  The result is
run through the trivial projection afterwards, so handlers may return a
superset of the destination fields and let projection trim it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..pbio import Format, FormatRegistry
from .attributes import AttributeStore
from .errors import QualityHandlerError
from .quality_handlers import QualityHandler, trivial_handler

#: Functions runtime-compiled source may call: quality handlers here, and
#: ECho filters (:mod:`repro.echo.filters`).
SAFE_BUILTINS = {
    "abs": abs, "min": min, "max": max, "sum": sum, "len": len,
    "round": round, "int": int, "float": float, "str": str, "bool": bool,
    "sorted": sorted, "reversed": reversed, "enumerate": enumerate,
    "range": range, "zip": zip, "list": list, "dict": dict, "tuple": tuple,
    "set": set, "any": any, "all": all,
}


def forbidden_token(source: str) -> Optional[str]:
    """The first token runtime-compiled source may not contain, or ``None``
    (no import machinery, no dunder access, no nested compilation)."""
    for needle in ("import", "__", "exec(", "eval(", "open(", "compile("):
        if needle in source:
            return needle
    return None


def compile_quality_handler(source: str,
                            name: str = "dynamic") -> QualityHandler:
    """Compile quality-handler source into a :data:`QualityHandler`.

    >>> handler = compile_quality_handler(
    ...     "return {'data': value['data'][:2]}")
    """
    needle = forbidden_token(source)
    if needle is not None:
        raise QualityHandlerError(
            f"handler source may not contain {needle!r}")
    indented = "\n".join("    " + line for line in source.splitlines())
    wrapper = (f"def _handler_fn(value, src_fields, dst_fields, attrs):\n"
               f"{indented or '    return value'}\n")
    namespace: Dict[str, Any] = {"__builtins__": dict(SAFE_BUILTINS)}
    try:
        exec(compile(wrapper, f"<quality-handler:{name}>", "exec"),
             namespace)
    except SyntaxError as exc:
        raise QualityHandlerError(f"handler does not compile: {exc}")
    fn = namespace["_handler_fn"]

    def handler(value: Dict[str, Any], src: Format, dst: Format,
                registry: FormatRegistry,
                attrs: AttributeStore) -> Dict[str, Any]:
        try:
            result = fn(dict(value), src.field_names(), dst.field_names(),
                        attrs.snapshot())
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise QualityHandlerError(
                f"handler {name!r} raised {type(exc).__name__}: {exc}")
        if not isinstance(result, dict):
            raise QualityHandlerError(
                f"handler {name!r} must return a dict, got "
                f"{type(result).__name__}")
        # projection guarantees the wire value matches the wire format
        return trivial_handler(result, src, dst, registry, attrs)

    handler.__handler_source__ = source
    return handler
