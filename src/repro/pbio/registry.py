"""Format registries: id assignment, lookup and caching.

Every PBIO transaction begins with a registration of the format with a
"format server" (§III-B).  The registry here is the in-process half of that
story: it assigns wire ids, deduplicates by fingerprint, and acts as the
local cache that makes every message after the first one cheap.  The
network-facing format server lives in :mod:`repro.pbio.server`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .errors import FormatError, PbioError, UnknownFormatError
from .fmt import Format

#: Builds a registry's shared XML-plan cache.  ``pbio`` sits below the
#: SOAP layer, so it does not import the planner: :mod:`repro.soap.xlate`
#: installs :class:`~repro.soap.xlate.XlatePlanner` here when it loads
#: (every ``repro.soap`` import loads it).
_xlate_planner: Optional[Callable[["FormatRegistry"], Any]] = None


def install_xlate_planner(factory: Callable[["FormatRegistry"], Any]
                          ) -> None:
    """Set the factory behind :attr:`FormatRegistry.xlate`."""
    global _xlate_planner
    _xlate_planner = factory


class FormatRegistry:
    """Thread-safe store of formats, keyed by id, name and fingerprint.

    Registration is idempotent: registering a structurally identical format
    returns the previously assigned id.  Registering a *different* format
    under an existing name is an error — formats are immutable contracts;
    the sanctioned escape hatch is :meth:`redefine`, which rebinds a name
    and invalidates every codec cache attached to this registry.

    The registry also owns the per-process codec caches: :attr:`compiler`
    is the shared :class:`~repro.pbio.compiler.CodecCompiler` every layer
    (sessions, conversion handlers, services) should reuse so a format is
    compiled once per process, and :attr:`converter_cache` memoizes the
    format-to-format converters of :mod:`repro.pbio.convert`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_id: Dict[int, Format] = {}
        self._by_name: Dict[str, Format] = {}
        self._id_by_fp: Dict[str, int] = {}
        self._next_id = 1
        #: Optional fallback consulted when an id is unknown locally —
        #: typically :meth:`repro.pbio.server.FormatClient.fetch`.
        self.resolver: Optional[Callable[[int], Optional[Format]]] = None
        #: compilers/planners whose caches must be dropped on :meth:`redefine`
        self._compilers: "weakref.WeakSet" = weakref.WeakSet()
        self._shared_compiler: Optional[Any] = None
        self._shared_xlate: Optional[Any] = None
        #: (src fingerprint, dst fingerprint) -> compiled converter
        self.converter_cache: Dict[Tuple[str, str], Callable] = {}
        #: bumped on every :meth:`redefine`; lets long-lived holders of
        #: compiled codecs notice staleness cheaply
        self.codec_epoch = 0

    # ------------------------------------------------------------------
    # codec cache plumbing
    # ------------------------------------------------------------------
    @property
    def compiler(self):
        """The shared codec compiler for this registry (created lazily)."""
        with self._lock:
            if self._shared_compiler is None:
                from .compiler import CodecCompiler
                self._shared_compiler = CodecCompiler(self)
            return self._shared_compiler

    @property
    def xlate(self):
        """The shared XML-plan cache for this registry (created lazily).

        Holds the compiled XML emitters/parsers of
        :mod:`repro.soap.xlate` — the streaming XML<->native fast path —
        beside the binary codec plans of :attr:`compiler`.  Both cache
        families are invalidated together by :meth:`redefine`.  The
        planner comes from :func:`install_xlate_planner`, which importing
        ``repro.soap`` calls.
        """
        with self._lock:
            if self._shared_xlate is None:
                if _xlate_planner is None:
                    raise PbioError("no XML planner installed: import "
                                    "repro.soap before FormatRegistry.xlate")
                self._shared_xlate = _xlate_planner(self)
            return self._shared_xlate

    def _attach_compiler(self, compiler: Any) -> None:
        """Track ``compiler`` (anything with ``invalidate()``) so
        :meth:`redefine` can drop its caches."""
        self._compilers.add(compiler)

    # ------------------------------------------------------------------
    def register(self, fmt: Format) -> int:
        """Register ``fmt`` and return its wire id (idempotent)."""
        with self._lock:
            existing_id = self._id_by_fp.get(fmt.fingerprint)
            if existing_id is not None:
                return existing_id
            existing = self._by_name.get(fmt.name)
            if existing is not None and existing.fingerprint != fmt.fingerprint:
                raise FormatError(
                    f"format name {fmt.name!r} already registered with a "
                    f"different structure")
            fid = self._next_id
            self._next_id += 1
            self._by_id[fid] = fmt
            self._by_name[fmt.name] = fmt
            self._id_by_fp[fmt.fingerprint] = fid
            return fid

    def register_with_id(self, fmt: Format, fid: int) -> None:
        """Adopt a format under an id assigned elsewhere (wire handshake).

        Receivers use this when a sender announces ``(id, metadata)``; the
        sender's id space wins for that connection.
        """
        with self._lock:
            current = self._by_id.get(fid)
            if current is not None and current.fingerprint != fmt.fingerprint:
                raise FormatError(
                    f"format id {fid} already bound to {current.name!r}")
            self._by_id[fid] = fmt
            self._by_name.setdefault(fmt.name, fmt)
            self._id_by_fp.setdefault(fmt.fingerprint, fid)
            self._next_id = max(self._next_id, fid + 1)

    def redefine(self, fmt: Format) -> int:
        """Rebind ``fmt.name`` to a (possibly different) structure.

        Returns the wire id — the old name's id is reused so persistent
        sessions keep their id space — and invalidates every codec,
        XML-plan and converter cache attached to this registry, so the
        next ``compiler.encoder(...)`` / ``xlate.emitter(...)`` call
        recompiles against the new layout.
        Codec functions already held by callers keep the layout they were
        compiled for.
        """
        with self._lock:
            old = self._by_name.get(fmt.name)
            if old is None:
                fid = self._id_by_fp.get(fmt.fingerprint)
                if fid is None:
                    fid = self._next_id
                    self._next_id += 1
            else:
                fid = self._id_by_fp.pop(old.fingerprint, None)
                if fid is None:
                    fid = self._next_id
                    self._next_id += 1
            self._by_id[fid] = fmt
            self._by_name[fmt.name] = fmt
            self._id_by_fp[fmt.fingerprint] = fid
            self.codec_epoch += 1
            compilers = list(self._compilers)
            self.converter_cache.clear()
        for compiler in compilers:
            compiler.invalidate()
        return fid

    # ------------------------------------------------------------------
    def by_id(self, fid: int) -> Format:
        """Look up a format by wire id, consulting the resolver if set."""
        with self._lock:
            fmt = self._by_id.get(fid)
        if fmt is not None:
            return fmt
        if self.resolver is not None:
            fetched = self.resolver(fid)
            if fetched is not None:
                self.register_with_id(fetched, fid)
                return fetched
        raise UnknownFormatError(fid)

    def by_name(self, name: str) -> Format:
        with self._lock:
            fmt = self._by_name.get(name)
        if fmt is None:
            raise FormatError(f"no format named {name!r}")
        return fmt

    def has_id(self, fid: int) -> bool:
        with self._lock:
            return fid in self._by_id

    def has_name(self, name: str) -> bool:
        with self._lock:
            return name in self._by_name

    def id_of(self, fmt: Format) -> int:
        with self._lock:
            fid = self._id_by_fp.get(fmt.fingerprint)
        if fid is None:
            raise FormatError(f"format {fmt.name!r} not registered")
        return fid

    def formats(self) -> List[Format]:
        with self._lock:
            return list(self._by_id.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    def __iter__(self) -> Iterator[Format]:
        return iter(self.formats())

    def __contains__(self, name: str) -> bool:
        return self.has_name(name)


#: A process-wide default registry, used when callers do not care about
#: isolation (examples, quickstart).  Tests construct their own.
default_registry = FormatRegistry()
