"""Lazy package facades: PEP 562 ``__getattr__``/``__dir__`` over a table.

A package ``__init__`` names what it re-exports and from which submodule;
:func:`attach` returns the ``__getattr__``, ``__dir__`` and ``__all__``
that import a submodule the first time one of its names is read (the
Scientific Python SPEC 1 pattern)::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "binservice": ["SoapBinService"],
        "modes": ["HEADER_RTT", "PBIO_CONTENT_TYPE"],
    })

``import repro.core`` then runs one small module, and a process loads only
the submodules whose names it uses.  A resolved name is stored on the
package, so later reads are plain attribute lookups.  ``submodules`` are
re-exported under their own names; ``aliases`` maps an exported name to
the ``(submodule, attribute)`` it stands for.  This module imports nothing
from the package it serves, so every facade can use it.

Submodules load through the ``__import__`` builtin rather than
:func:`importlib.import_module`, so ``python -X importtime`` still lists
each one a facade loads.
"""

from __future__ import annotations

import sys
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)


def attach(package: str,
           exports: Mapping[str, Iterable[str]],
           submodules: Sequence[str] = (),
           aliases: Optional[Mapping[str, Tuple[str, str]]] = None,
           ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                      List[str]]:
    """The ``(__getattr__, __dir__, __all__)`` of a lazy facade."""
    where: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        for name in names:
            where[name] = (module, name)
    where.update(aliases or {})
    children = frozenset(submodules)
    public = list(where) + [name for name in submodules if name not in where]

    def load(module: str):
        name = f"{package}.{module}"
        __import__(name)
        return sys.modules[name]

    def __getattr__(name: str) -> object:
        if name in children:
            return load(name)
        try:
            module, attribute = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(load(module), attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(public) | set(vars(sys.modules[package])))

    return __getattr__, __dir__, public
