"""PBIO wire messages and the per-connection session protocol.

A PBIO *data message* is a small fixed header followed by the encoded
payload.  The header names the format by id and records the sender's byte
order, so the receiver can "make right" — convert from the sender's native
layout — without the sender ever translating its own data.

The first time a session sends a given format it precedes the data message
with a *format announcement* carrying the full format metadata; receivers
cache it (locally and, when configured, in the shared format server), so
subsequent messages of the same type cost only the 8-byte header.  This is
the registration handshake of §III-B: "This transaction occurs only once,
since the format is cached locally thereafter."

The wire path is zero-copy end-to-end:

* :meth:`PbioSession.unpack` reads the header in place and decodes the
  payload straight out of a :class:`memoryview` over the caller's
  buffer — nothing is copied until a decoder materializes leaf values
  (and large primitive arrays decode as NumPy views over the same
  buffer, so even they stay copy-free);
* :func:`encode_message` accepts the un-joined buffer list produced by
  ``CodecCompiler.encoder_parts`` and performs a single writev-style
  ``bytes.join`` with the header, instead of joining the payload and then
  copying it again behind the header.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Set, Tuple, Union

from .compiler import BIG, LITTLE, CodecCompiler
from .errors import DecodeError, FormatError, UnknownFormatError
from .fmt import Format
from .registry import FormatRegistry

MAGIC = b"PB"
_HEADER = struct.Struct("<2sBBI")  # magic, flags, kind, format id
HEADER_SIZE = _HEADER.size

FLAG_LITTLE_ENDIAN = 0x01
#: Bits 1-3 of the flags byte hold a *compact revision* (docs/wire-compact.md,
#: "Revisions").  On a DATA message a nonzero revision marks the payload
#: compact-encoded under that revision's rules; on a FORMAT announcement it
#: advertises that the *sender* decodes that revision — the capability
#: half of the per-link handshake.  0 means native only.
_REVISION_SHIFT = 1
_REVISION_MASK = 0x0E
#: The compact rules this tree writes and reads; 2 added the int-array
#: mode byte.  Revision 1 was a bare ``0x02`` bit, and that bit is all a
#: revision-1 tree tests, so every later revision keeps it clear (is
#: even): such a tree reads our adverts as native-only.
COMPACT_REVISION = 2
#: The flag bits of a compact message of :data:`COMPACT_REVISION`.
FLAG_COMPACT = COMPACT_REVISION << _REVISION_SHIFT

KIND_DATA = 0
KIND_FORMAT = 1

#: Valid ``PbioSession(wire=...)`` policies: ``"native"`` never sends
#: compact and never advertises; ``"auto"`` advertises and switches to
#: compact once the peer advertises too; ``"compact"`` forces compact
#: data unconditionally (both ends known-capable).
WIRE_MODES = ("auto", "native", "compact")

Buffer = Union[bytes, bytearray, memoryview]


def encode_message(kind: int, format_id: int,
                   payload: Union[Buffer, Sequence[Buffer]],
                   endian: str = LITTLE, compact: bool = False) -> bytes:
    """Frame a payload as a PBIO wire message.

    ``payload`` may be a single buffer or a sequence of buffers (the
    output of ``CodecCompiler.encoder_parts``); a sequence is joined
    together with the header in one pass, so the payload bytes are copied
    exactly once.  ``compact`` sets :data:`FLAG_COMPACT` (compact payload
    on DATA, capability advertisement on FORMAT).
    """
    flags = FLAG_LITTLE_ENDIAN if endian == LITTLE else 0
    if compact:
        flags |= FLAG_COMPACT
    header = _HEADER.pack(MAGIC, flags, kind, format_id)
    if isinstance(payload, (list, tuple)):
        return b"".join([header, *payload])
    return header + payload


@dataclass
class SessionStats:
    """Counters exposed for the microbenchmarks (registration cost is only
    paid on the first message of each format — Fig. 5/6 discussion)."""

    messages_sent: int = 0
    messages_received: int = 0
    announcements_sent: int = 0
    announcements_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    compact_sent: int = 0
    compact_received: int = 0


class PbioSession:
    """Encode/decode values for one logical connection.

    The session owns the *sender-side* knowledge of which formats the peer
    has already seen, and the *receiver-side* cache of the peer's id → format
    bindings.  It is transport-agnostic: :meth:`pack` returns the wire blobs
    to send (possibly announcement + data) and :meth:`unpack` consumes one
    received blob.

    Parameters
    ----------
    registry:
        Local format registry (ids in announcements come from here).
    compiler:
        Shared codec compiler; defaults to the registry's own
        (``registry.compiler``), so sessions sharing a registry share
        compiled codecs.
    endian:
        The *native byte order this host writes*.  The paper's testbed mixed
        x86 (little) and SPARC (big); tests emulate the SPARC peer by
        constructing a session with ``endian=BIG``.
    format_fetcher:
        Optional callable ``(format_id) -> Format | None`` consulted for
        unknown ids — typically :meth:`repro.pbio.server.FormatClient.fetch`.
    adopt_redefines:
        Trust model for incoming format announcements whose *name* is
        already bound to a different structure in the local registry.
        ``True`` treats the peer's announcement as authoritative and
        rebinds the name via :meth:`FormatRegistry.redefine` — correct
        only when the peer *owns* the registry's contents, i.e. on the
        client side of a live quality redefinition (the server re-announces
        the new layout; see ``docs/caching.md``).  The default ``False``
        raises :class:`~repro.pbio.errors.FormatError`, failing that one
        message: a server must never let one client rebind server-owned
        format names (and flush every codec/response cache) for all
        connections.
    wire:
        Compact-encoding policy for *sent* data (one of
        :data:`WIRE_MODES`).  ``"auto"`` (default) advertises the compact
        capability on announcements and switches to compact payloads once
        the peer has advertised :data:`COMPACT_REVISION` too;
        ``"native"`` never advertises or sends compact; ``"compact"``
        forces compact unless the peer has advertised another revision.
        Decoding is universal — every session accepts compact data of
        :data:`COMPACT_REVISION` regardless of its own policy, so a
        compact speaker facing a native-only listener of this tree still
        interoperates (and an ``"auto"`` speaker facing one simply stays
        native).
    """

    def __init__(self, registry: FormatRegistry,
                 compiler: Optional[CodecCompiler] = None,
                 endian: str = LITTLE,
                 format_fetcher: Optional[Callable[[int], Optional[Format]]] = None,
                 adopt_redefines: bool = False,
                 wire: str = "auto") -> None:
        self.registry = registry
        if compiler is None:
            compiler = getattr(registry, "compiler", None) \
                or CodecCompiler(registry)
        self.compiler = compiler
        self.endian = endian
        self._flags = FLAG_LITTLE_ENDIAN if endian == LITTLE else 0
        self.format_fetcher = format_fetcher
        self.adopt_redefines = adopt_redefines
        if wire not in WIRE_MODES:
            raise ValueError(f"wire must be one of {WIRE_MODES}, got {wire!r}")
        #: the send policy, fixed for the session's life
        self.wire = wire
        self._learn_revision(0)
        self.stats = SessionStats()
        self._announced: Set[int] = set()
        #: fingerprint -> registry id of every format this session sent
        #: since the last :meth:`invalidate`, so a send skips the
        #: registry's lock
        self._ids: Dict[str, int] = {}
        self._remote: Dict[int, Format] = {}
        # Join the redefine() invalidation contract (weakly, like the
        # codec/xlate caches): a redefined format keeps its wire id, so
        # without this the peer would keep decoding with stale metadata.
        attach = getattr(registry, "_attach_compiler", None)
        if attach is not None:
            attach(self)

    def invalidate(self) -> None:
        """Forget which formats the peer has seen (called on
        :meth:`~repro.pbio.FormatRegistry.redefine`): the next send of
        each format re-announces it, overwriting the peer's stale id
        binding with the new metadata."""
        # The peer's decode capability is a property of the peer, not of
        # any format — redefinition does not forget it.
        self._announced.clear()
        self._ids.clear()

    @property
    def peer_compact_capable(self) -> bool:
        """True once the peer has proved it decodes compact payloads of
        :data:`COMPACT_REVISION`."""
        return self._peer_revision == COMPACT_REVISION

    def mark_peer_compact_capable(self) -> None:
        """Record out-of-band knowledge that the peer decodes compact —
        e.g. a paired receive session on the same link saw the peer's
        capability advert (the record-stream reply path)."""
        self._learn_revision(COMPACT_REVISION)

    def _learn_revision(self, revision: int) -> None:
        """Record the compact revision the peer decodes (0: none known),
        and so whether data goes out compact (``_compact``)."""
        self._peer_revision = revision
        if self.wire == "compact":
            self._compact = revision in (0, COMPACT_REVISION)
        else:
            self._compact = (self.wire == "auto"
                             and revision == COMPACT_REVISION)

    def wire_rep(self) -> str:
        """The representation the *next* data message will use —
        ``"compact"`` or ``"native"``.  Cache layers key response variants
        on this so compact and native payloads never alias."""
        return "compact" if self._compact else "native"

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def pack(self, fmt: Union[Format, str], value: Dict[str, Any]) -> list:
        """Encode ``value`` and return the list of wire blobs to transmit.

        The first call for a format yields ``[announcement, data]``; later
        calls yield ``[data]`` only.
        """
        blob, data_at = self._pack_joined(fmt, value)
        return [blob[:data_at], blob[data_at:]] if data_at else [blob]

    def pack_bytes(self, fmt: Union[Format, str],
                   value: Dict[str, Any]) -> bytes:
        """Like :meth:`pack` but concatenated — for stream transports that
        frame each :meth:`unpack_stream` call themselves.

        The announcement (if due), the data header and the payload parts
        are joined in a single pass.
        """
        return self._pack_joined(fmt, value)[0]

    def pack_split(self, fmt: Union[Format, str],
                   value: Dict[str, Any]) -> Tuple[bytes, memoryview]:
        """:meth:`pack_bytes`, plus a view of the data message at its end —
        the bytes :meth:`send_cached` can replay once the peer has the
        announcement — without joining the payload a second time."""
        blob, data_at = self._pack_joined(fmt, value)
        return blob, memoryview(blob)[data_at:]

    def _pack_joined(self, fmt: Union[Format, str],
                     value: Dict[str, Any]) -> Tuple[bytes, int]:
        """The joined message and the offset of its data message."""
        if isinstance(fmt, str):
            fmt = self.registry.by_name(fmt)
        fid = self._ids.get(fmt.fingerprint)
        if fid is None:
            fid = self._ids[fmt.fingerprint] = self.registry.register(fmt)
        stats = self.stats
        if self._compact:
            parts = [_HEADER.pack(MAGIC, self._flags | FLAG_COMPACT,
                                  KIND_DATA, fid),
                     *self.compiler.compact_encoder_parts(fmt)(value)]
            stats.compact_sent += 1
        else:
            parts = [_HEADER.pack(MAGIC, self._flags, KIND_DATA, fid),
                     *self.compiler.encoder_parts(fmt, self.endian)(value)]
        data_at = 0
        if fid not in self._announced:
            announcement = self._announce(fmt, fid)
            parts.insert(0, announcement)
            data_at = len(announcement)
        blob = b"".join(parts)
        stats.messages_sent += 1
        stats.bytes_sent += len(blob)
        return blob, data_at

    def has_announced(self, fmt: Union[Format, str]) -> bool:
        """True once this session has announced ``fmt`` to the peer — i.e.
        the next :meth:`pack_bytes` for it is a data-only message."""
        if isinstance(fmt, str):
            if not self.registry.has_name(fmt):
                return False
            fmt = self.registry.by_name(fmt)
        try:
            fid = self.registry.id_of(fmt)
        except FormatError:
            return False
        return fid in self._announced

    def send_cached(self, blob: Buffer) -> Buffer:
        """Account for a pre-encoded data message being replayed on this
        session (the response-cache byte path), keeping :attr:`stats`
        consistent with :meth:`pack_bytes`."""
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(blob)
        return blob

    def _announce(self, fmt: Format, fid: int) -> bytes:
        # Announcements double as the capability advert: any session not
        # pinned to native tells the peer it can decode compact payloads.
        announcement = encode_message(KIND_FORMAT, fid, fmt.to_wire(),
                                      self.endian,
                                      compact=(self.wire != "native"))
        self._announced.add(fid)
        self.stats.announcements_sent += 1
        return announcement

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def unpack(self, blob: Buffer) -> Optional[Tuple[Format, Dict[str, Any]]]:
        """Consume one wire message (``bytes`` or ``memoryview``).

        Returns ``(format, value)`` for data messages and ``None`` for
        control messages (format announcements).
        """
        view = blob if isinstance(blob, memoryview) else memoryview(blob)
        if len(view) < HEADER_SIZE:
            raise DecodeError(f"message shorter than header "
                              f"({len(view)} < {HEADER_SIZE})")
        magic, flags, kind, fid = _HEADER.unpack_from(view, 0)
        if magic != MAGIC:
            raise DecodeError(f"bad PBIO magic {magic!r}")
        if kind == KIND_FORMAT:
            self.stats.bytes_received += len(view)
            self._adopt(fid, flags, Format.from_wire(view[HEADER_SIZE:]))
            return None
        return self._decode(view, flags, kind, fid)

    def unpack_stream(self, blob: Buffer) -> Tuple[Format, Dict[str, Any]]:
        """Consume a blob that may contain announcement(s) + one data message
        back to back (the output of :meth:`pack_bytes`), reading each
        message header once.

        Announcements are self-describing (the metadata blob knows its
        length through its own fields), so the stream is walked: FORMAT
        messages are followed by more messages; the DATA message claims
        the rest of the blob.
        """
        view = blob if isinstance(blob, memoryview) else memoryview(blob)
        total = len(view)
        offset = 0
        while offset < total:
            if total - offset < HEADER_SIZE:
                raise DecodeError("trailing garbage after PBIO message")
            magic, flags, kind, fid = _HEADER.unpack_from(view, offset)
            if magic != MAGIC:
                raise DecodeError(f"bad PBIO magic {magic!r}")
            if kind != KIND_FORMAT:
                return self._decode(view[offset:] if offset else view,
                                    flags, kind, fid)
            fmt, size = Format.from_wire_prefix(
                view[offset + HEADER_SIZE:])
            size += HEADER_SIZE
            self.stats.bytes_received += size
            self._adopt(fid, flags, fmt)
            offset += size
        raise DecodeError("stream contained no data message")

    def _adopt(self, fid: int, flags: int, fmt: Format) -> None:
        """Bind the peer's format id ``fid`` to an announced ``fmt``, and
        learn the compact revision the announcement advertises."""
        try:
            self.registry.register(fmt)
        except FormatError:
            # The peer announced a name this registry already binds to
            # a different structure.  Only a session that explicitly
            # trusts its peer — the client side of a live quality
            # redefinition — may rebind shared registry state (which
            # also flushes codec plans compiled for the old layout).
            # Everywhere else the conflict fails this one message, so
            # a single peer can never rebind server-owned names or
            # thrash shared caches for every other connection.
            if not self.adopt_redefines:
                raise
            self.registry.redefine(fmt)
        self._remote[fid] = fmt
        self.stats.announcements_received += 1
        revision = (flags & _REVISION_MASK) >> _REVISION_SHIFT
        if revision:
            self._learn_revision(revision)

    def _decode(self, message: memoryview, flags: int, kind: int,
                fid: int) -> Tuple[Format, Dict[str, Any]]:
        """Decode the data message that is the whole of ``message``."""
        if kind != KIND_DATA:
            raise DecodeError(f"unknown message kind {kind}")
        stats = self.stats
        stats.bytes_received += len(message)
        fmt = self._remote.get(fid) or self._resolve(fid)
        if flags & _REVISION_MASK:
            # Universal decode: compact data is accepted regardless of this
            # session's own wire policy.  A peer that *sends* compact can
            # obviously decode it, so this also learns the capability —
            # and a peer on another revision is answered in native.
            revision = (flags & _REVISION_MASK) >> _REVISION_SHIFT
            if revision != self._peer_revision:
                self._learn_revision(revision)
            if revision != COMPACT_REVISION:
                raise DecodeError(
                    f"format {fmt.name!r}: compact revision "
                    f"{revision} payload (this side reads revision "
                    f"{COMPACT_REVISION})")
            stats.compact_received += 1
            decode = self.compiler.compact_decoder(fmt)
        else:
            decode = self.compiler.decoder(
                fmt, LITTLE if flags & FLAG_LITTLE_ENDIAN else BIG)
        value, consumed = decode(message, HEADER_SIZE)
        if consumed != len(message):
            raise DecodeError(
                f"format {fmt.name!r}: {len(message) - consumed} "
                f"trailing bytes in payload")
        stats.messages_received += 1
        return fmt, value

    def _resolve(self, fid: int) -> Format:
        fmt = self._remote.get(fid)
        if fmt is not None:
            return fmt
        if self.registry.has_id(fid):
            return self.registry.by_id(fid)
        if self.format_fetcher is not None:
            fetched = self.format_fetcher(fid)
            if fetched is not None:
                self._remote[fid] = fetched
                self.registry.register(fetched)
                return fetched
        raise UnknownFormatError(fid)
