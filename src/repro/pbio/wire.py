"""PBIO wire messages and the per-connection session protocol.

A PBIO *data message* is a small fixed header followed by the encoded
payload.  The header names the format by id and records the sender's byte
order, so the receiver can "make right" — convert from the sender's native
layout — without the sender ever translating its own data.

The first time a session sends a given format it precedes the data message
with a *format announcement* carrying the full format metadata; receivers
cache it (locally and, when configured, in the shared format server), so
subsequent messages of the same type cost only the 12-byte header.  This is
the registration handshake of §III-B: "This transaction occurs only once,
since the format is cached locally thereafter."

The wire path is zero-copy end-to-end:

* :func:`parse_message` hands out the payload as a :class:`memoryview`
  slice over the caller's buffer — nothing is copied until a decoder
  materializes leaf values (and large primitive arrays decode as NumPy
  views over the same buffer, so even they stay copy-free);
* :func:`encode_message` accepts the un-joined buffer list produced by
  ``CodecCompiler.encoder_parts`` and performs a single writev-style
  ``bytes.join`` with the header, instead of joining the payload and then
  copying it again behind the header.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

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


@dataclass
class Message:
    """A parsed PBIO wire message.

    ``payload`` is a :class:`memoryview` slice over the buffer given to
    :func:`parse_message` — no copy is made.  Use :attr:`payload_bytes`
    when an owned ``bytes`` object is genuinely needed.
    """

    kind: int
    endian: str
    format_id: int
    payload: Buffer
    #: DATA: the compact revision the payload is encoded in (0: native).
    #: FORMAT: the compact revision the sender decodes (0: none).
    revision: int = 0

    @property
    def is_data(self) -> bool:
        return self.kind == KIND_DATA

    @property
    def payload_bytes(self) -> bytes:
        """The payload materialized as ``bytes`` (copies on demand)."""
        payload = self.payload
        return payload if isinstance(payload, bytes) else bytes(payload)


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


def parse_message(blob: Buffer) -> Message:
    """Parse a wire blob into a :class:`Message` without copying.

    Raises :class:`~repro.pbio.errors.DecodeError` for short blobs or a bad
    magic — the failure-injection tests feed truncated messages here.
    """
    if len(blob) < HEADER_SIZE:
        raise DecodeError(f"message shorter than header "
                          f"({len(blob)} < {HEADER_SIZE})")
    magic, flags, kind, format_id = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise DecodeError(f"bad PBIO magic {magic!r}")
    endian = LITTLE if flags & FLAG_LITTLE_ENDIAN else BIG
    view = blob if isinstance(blob, memoryview) else memoryview(blob)
    return Message(kind=kind, endian=endian, format_id=format_id,
                   payload=view[HEADER_SIZE:],
                   revision=(flags & _REVISION_MASK) >> _REVISION_SHIFT)


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
        self.format_fetcher = format_fetcher
        self.adopt_redefines = adopt_redefines
        if wire not in WIRE_MODES:
            raise ValueError(f"wire must be one of {WIRE_MODES}, got {wire!r}")
        self.wire = wire
        # the compact revision the peer has shown it decodes (0: none yet)
        self._peer_revision = 0
        self.stats = SessionStats()
        self._announced: Set[int] = set()
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

    @property
    def peer_compact_capable(self) -> bool:
        """True once the peer has proved it decodes compact payloads of
        :data:`COMPACT_REVISION`."""
        return self._peer_revision == COMPACT_REVISION

    def mark_peer_compact_capable(self) -> None:
        """Record out-of-band knowledge that the peer decodes compact —
        e.g. a paired receive session on the same link saw the peer's
        capability advert (the record-stream reply path)."""
        self._peer_revision = COMPACT_REVISION

    def _use_compact(self) -> bool:
        if self.wire == "compact":
            return self._peer_revision in (0, COMPACT_REVISION)
        return self.wire == "auto" and \
            self._peer_revision == COMPACT_REVISION

    def wire_rep(self) -> str:
        """The representation the *next* data message will use —
        ``"compact"`` or ``"native"``.  Cache layers key response variants
        on this so compact and native payloads never alias."""
        return "compact" if self._use_compact() else "native"

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def pack(self, fmt: Union[Format, str], value: Dict[str, Any]) -> list:
        """Encode ``value`` and return the list of wire blobs to transmit.

        The first call for a format yields ``[announcement, data]``; later
        calls yield ``[data]`` only.
        """
        if isinstance(fmt, str):
            fmt = self.registry.by_name(fmt)
        fid = self.registry.register(fmt)
        blobs = []
        if fid not in self._announced:
            blobs.append(self._announce(fmt, fid))
        compact = self._use_compact()
        if compact:
            parts = self.compiler.compact_encoder_parts(fmt)(value)
            self.stats.compact_sent += 1
        else:
            parts = self.compiler.encoder_parts(fmt, self.endian)(value)
        blobs.append(encode_message(KIND_DATA, fid, parts, self.endian,
                                    compact=compact))
        self.stats.messages_sent += 1
        self.stats.bytes_sent += sum(len(b) for b in blobs)
        return blobs

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
        fid = self.registry.register(fmt)
        parts: List[bytes] = []
        data_at = 0
        if fid not in self._announced:
            parts.append(self._announce(fmt, fid))
            data_at = len(parts[0])
        compact = self._use_compact()
        flags = FLAG_LITTLE_ENDIAN if self.endian == LITTLE else 0
        if compact:
            flags |= FLAG_COMPACT
        parts.append(_HEADER.pack(MAGIC, flags, KIND_DATA, fid))
        if compact:
            parts.extend(self.compiler.compact_encoder_parts(fmt)(value))
            self.stats.compact_sent += 1
        else:
            parts.extend(self.compiler.encoder_parts(fmt, self.endian)(value))
        blob = b"".join(parts)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(blob)
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
        msg = parse_message(blob)
        self.stats.bytes_received += len(blob)
        if msg.kind == KIND_FORMAT:
            fmt = Format.from_wire(msg.payload)
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
            self._remote[msg.format_id] = fmt
            self.stats.announcements_received += 1
            if msg.revision:
                self._peer_revision = msg.revision
            return None
        if msg.kind != KIND_DATA:
            raise DecodeError(f"unknown message kind {msg.kind}")
        fmt = self._resolve(msg.format_id)
        if msg.revision:
            # Universal decode: compact data is accepted regardless of this
            # session's own wire policy.  A peer that *sends* compact can
            # obviously decode it, so this also learns the capability —
            # and a peer on another revision is answered in native.
            self._peer_revision = msg.revision
            if msg.revision != COMPACT_REVISION:
                raise DecodeError(
                    f"format {fmt.name!r}: compact revision "
                    f"{msg.revision} payload (this side reads revision "
                    f"{COMPACT_REVISION})")
            self.stats.compact_received += 1
            decode = self.compiler.compact_decoder(fmt)
        else:
            decode = self.compiler.decoder(fmt, msg.endian)
        value, consumed = decode(msg.payload, 0)
        if consumed != len(msg.payload):
            raise DecodeError(
                f"format {fmt.name!r}: {len(msg.payload) - consumed} "
                f"trailing bytes in payload")
        self.stats.messages_received += 1
        return fmt, value

    def unpack_stream(self, blob: Buffer) -> Tuple[Format, Dict[str, Any]]:
        """Consume a blob that may contain announcement(s) + one data message
        back to back (the output of :meth:`pack_bytes`)."""
        offset = 0
        result = None
        view = blob if isinstance(blob, memoryview) else memoryview(blob)
        total = len(view)
        while offset < total:
            if total - offset < HEADER_SIZE:
                raise DecodeError("trailing garbage after PBIO message")
            msg_len = self._message_length(view, offset)
            result = self.unpack(view[offset:offset + msg_len])
            offset += msg_len
        if result is None:
            raise DecodeError("stream contained no data message")
        return result

    def _message_length(self, view: memoryview, offset: int) -> int:
        """Length of the message at ``offset``.

        Announcements are self-describing (metadata blob knows its length
        through its own fields), so for stream parsing we walk: FORMAT
        messages are followed by more messages; the final DATA message claims
        the rest of the blob.
        """
        _, _, kind, _ = _HEADER.unpack_from(view, offset)
        if kind == KIND_DATA:
            return len(view) - offset
        # Format metadata blob: parse it to find its end.
        _, fmt_len = Format.from_wire_prefix(view[offset + HEADER_SIZE:])
        return HEADER_SIZE + fmt_len

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
