"""The PBIO format server.

"Every PBIO transaction begins with a registration of the format with a
'format server', which collects and caches PBIO formats.  Whenever a new
type is encountered, the application consults the format server to interpret
the message." (§III-B)

:class:`FormatServer` / :class:`FormatClient` are that service: a threaded
TCP server with a 4-byte-length-framed request/response protocol, and a
client that caches every answer.  Ids are global across the server,
assigned once per format fingerprint.

Protocol (all integers little-endian):

====  =======================  =========================================
op    request payload           response payload
====  =======================  =========================================
0x01  format metadata blob     u32 assigned id
0x02  u32 format id            u8 found flag + metadata blob when found
====  =======================  =========================================
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Dict, Optional, Tuple

from .errors import PbioError
from .fmt import Format

OP_REGISTER = 0x01
OP_LOOKUP = 0x02


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(struct.pack("<I", len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Optional[bytes]:
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack("<I", header)
    if length > 64 * 1024 * 1024:
        raise PbioError(f"format server frame too large ({length} bytes)")
    return _recv_exact(sock, length)


class FormatServer:
    """A threaded TCP format server.

    Use as a context manager::

        with FormatServer() as server:
            client = FormatClient(server.address)
            fid = client.register(fmt)
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._lock = threading.Lock()
        self._by_id: Dict[int, Format] = {}
        self._id_by_fp: Dict[str, int] = {}
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.address: Tuple[str, int] = self._sock.getsockname()
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop,
                                        name="pbio-format-server",
                                        daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # socket closed during shutdown
            worker = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True)
            worker.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while True:
                try:
                    frame = _recv_frame(conn)
                except (OSError, PbioError):
                    return
                if frame is None or not frame:
                    return
                try:
                    response = self._handle(frame)
                except PbioError:
                    return
                try:
                    _send_frame(conn, response)
                except OSError:
                    return

    def _handle(self, frame: bytes) -> bytes:
        op = frame[0]
        if op == OP_REGISTER:
            fmt = Format.from_wire(frame[1:])
            with self._lock:     # idempotent by fingerprint
                fid = self._id_by_fp.get(fmt.fingerprint)
                if fid is None:
                    fid = len(self._by_id) + 1
                    self._id_by_fp[fmt.fingerprint] = fid
                    self._by_id[fid] = fmt
            return struct.pack("<I", fid)
        if op == OP_LOOKUP:
            (fid,) = struct.unpack_from("<I", frame, 1)
            with self._lock:
                fmt = self._by_id.get(fid)
            if fmt is None:
                return b"\x00"
            return b"\x01" + fmt.to_wire()
        raise PbioError(f"unknown format server op {op}")

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._running = False
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FormatServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)


class FormatClient:
    """Client for :class:`FormatServer` with a local result cache.

    The cache is what turns the handshake into a one-time cost: after the
    first lookup of an id, :meth:`fetch` never touches the network again.
    """

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._cache: Dict[int, Format] = {}
        self._id_cache: Dict[str, int] = {}
        self.network_round_trips = 0

    def _connection(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(self.address, timeout=5.0)
        return self._sock

    def _call(self, request: bytes) -> bytes:
        with self._lock:
            sock = self._connection()
            _send_frame(sock, request)
            response = _recv_frame(sock)
            self.network_round_trips += 1
        if response is None:
            raise PbioError("format server closed the connection")
        return response

    def register(self, fmt: Format) -> int:
        """Register a format, returning its server-assigned id (cached)."""
        cached = self._id_cache.get(fmt.fingerprint)
        if cached is not None:
            return cached
        response = self._call(bytes([OP_REGISTER]) + fmt.to_wire())
        (fid,) = struct.unpack("<I", response)
        self._id_cache[fmt.fingerprint] = fid
        self._cache[fid] = fmt
        return fid

    def fetch(self, fid: int) -> Optional[Format]:
        """Fetch a format by id (cached after the first round trip)."""
        cached = self._cache.get(fid)
        if cached is not None:
            return cached
        response = self._call(bytes([OP_LOOKUP]) + struct.pack("<I", fid))
        if response[:1] == b"\x00":
            return None
        fmt = Format.from_wire(response[1:])
        self._cache[fid] = fmt
        self._id_cache[fmt.fingerprint] = fid
        return fmt

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                finally:
                    self._sock = None

    def __enter__(self) -> "FormatClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
