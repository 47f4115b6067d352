"""Tests for the format registry, wire sessions and format server."""

import struct
import threading

import pytest

from repro.pbio import (BIG, DecodeError, Format, FormatClient, FormatError,
                        FormatRegistry, FormatServer, HEADER_SIZE,
                        PbioSession, UnknownFormatError, encode_message)
from repro.pbio.wire import FLAG_LITTLE_ENDIAN, KIND_DATA, KIND_FORMAT, MAGIC

#: the documented 8-byte message header: magic, flags, kind, format id
HEADER = struct.Struct("<2sBBI")


def header(blob):
    """``(magic, flags, kind, format_id)`` of a wire message."""
    return HEADER.unpack_from(blob, 0)


def make_fmt(name="sample", spec=None):
    return Format.from_dict(name, spec or {"seq": "int32", "data": "float64[]"})


class TestRegistry:
    def test_register_assigns_ids(self):
        reg = FormatRegistry()
        a = reg.register(make_fmt("a"))
        b = reg.register(make_fmt("b"))
        assert a != b
        assert reg.by_id(a).name == "a"

    def test_register_idempotent(self):
        reg = FormatRegistry()
        assert reg.register(make_fmt()) == reg.register(make_fmt())
        assert len(reg) == 1

    def test_conflicting_name_rejected(self):
        reg = FormatRegistry()
        reg.register(make_fmt("x", {"a": "int32"}))
        with pytest.raises(FormatError):
            reg.register(make_fmt("x", {"a": "int64"}))

    def test_lookup_by_name(self):
        reg = FormatRegistry()
        reg.register(make_fmt("named"))
        assert reg.by_name("named").name == "named"
        assert "named" in reg
        with pytest.raises(FormatError):
            reg.by_name("ghost")

    def test_unknown_id_raises(self):
        reg = FormatRegistry()
        with pytest.raises(UnknownFormatError):
            reg.by_id(42)

    def test_resolver_consulted(self):
        reg = FormatRegistry()
        fmt = make_fmt("fetched")
        reg.resolver = lambda fid: fmt if fid == 7 else None
        assert reg.by_id(7).name == "fetched"
        # now cached
        reg.resolver = None
        assert reg.by_id(7).name == "fetched"

    def test_register_with_id(self):
        reg = FormatRegistry()
        fmt = make_fmt("adopted")
        reg.register_with_id(fmt, 40)
        assert reg.by_id(40) is fmt
        # same id with a different structure is rejected
        with pytest.raises(FormatError):
            reg.register_with_id(make_fmt("adopted2", {"z": "int8"}), 40)

    def test_id_of(self):
        reg = FormatRegistry()
        fmt = make_fmt()
        fid = reg.register(fmt)
        assert reg.id_of(fmt) == fid
        with pytest.raises(FormatError):
            reg.id_of(make_fmt("other"))

    def test_concurrent_registration(self):
        reg = FormatRegistry()
        formats = [make_fmt(f"f{i}") for i in range(20)]
        errors = []

        def work():
            try:
                for fmt in formats:
                    reg.register(fmt)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(reg) == 20


class TestWireMessages:
    def test_roundtrip(self):
        blob = encode_message(KIND_DATA, 5, b"payload")
        assert HEADER.size == HEADER_SIZE == 8
        assert header(blob) == (MAGIC, FLAG_LITTLE_ENDIAN, KIND_DATA, 5)
        assert blob[HEADER_SIZE:] == b"payload"
        # ... and a session decodes what the header frames
        reg = FormatRegistry()
        fmt = make_fmt()
        fid = reg.register(fmt)
        payload = reg.compiler.encoder(fmt)({"seq": 3, "data": [0.5]})
        got_fmt, value = PbioSession(reg).unpack(
            encode_message(KIND_DATA, fid, payload))
        assert got_fmt is fmt
        assert value["seq"] == 3 and list(value["data"]) == [0.5]

    def test_endian_flag(self):
        assert not header(encode_message(KIND_DATA, 1, b"", BIG))[1] \
            & FLAG_LITTLE_ENDIAN

    def test_short_blob_rejected(self):
        with pytest.raises(DecodeError, match="shorter than header"):
            PbioSession(FormatRegistry()).unpack(b"PB")
        with pytest.raises(DecodeError, match="trailing garbage"):
            PbioSession(FormatRegistry()).unpack_stream(b"PB")

    def test_bad_magic_rejected(self):
        blob = b"XX" + encode_message(KIND_DATA, 5, b"payload")[2:]
        for unpack in (PbioSession(FormatRegistry()).unpack,
                       PbioSession(FormatRegistry()).unpack_stream):
            with pytest.raises(DecodeError, match="bad PBIO magic"):
                unpack(blob)


class TestSession:
    def setup_method(self):
        self.reg = FormatRegistry()
        self.fmt = make_fmt()
        self.reg.register(self.fmt)

    def test_first_send_announces(self):
        sess = PbioSession(self.reg)
        blobs = sess.pack(self.fmt, {"seq": 1, "data": [1.0]})
        assert len(blobs) == 2
        assert header(blobs[0])[2] == KIND_FORMAT
        assert header(blobs[1])[2] == KIND_DATA

    def test_subsequent_sends_skip_announcement(self):
        sess = PbioSession(self.reg)
        sess.pack(self.fmt, {"seq": 1, "data": []})
        blobs = sess.pack(self.fmt, {"seq": 2, "data": []})
        assert len(blobs) == 1
        assert sess.stats.announcements_sent == 1
        assert sess.stats.messages_sent == 2

    def test_receiver_learns_format_from_announcement(self):
        tx = PbioSession(self.reg)
        rx_reg = FormatRegistry()  # knows nothing
        rx = PbioSession(rx_reg)
        value = {"seq": 3, "data": [2.5, 3.5]}
        for blob in tx.pack(self.fmt, value):
            result = rx.unpack(blob)
        fmt, decoded = result
        assert fmt.name == "sample"
        assert decoded["seq"] == 3
        assert list(decoded["data"]) == [2.5, 3.5]

    def test_unknown_format_raises(self):
        rx = PbioSession(FormatRegistry())
        data_only = encode_message(KIND_DATA, 99, b"")
        with pytest.raises(UnknownFormatError):
            rx.unpack(data_only)

    def test_format_fetcher_fallback(self):
        tx = PbioSession(self.reg)
        tx._announced.add(self.reg.id_of(self.fmt))  # suppress announcement
        fid = self.reg.id_of(self.fmt)
        rx = PbioSession(FormatRegistry(),
                         format_fetcher=lambda i: self.fmt if i == fid else None)
        blobs = tx.pack(self.fmt, {"seq": 1, "data": []})
        assert len(blobs) == 1
        fmt, value = rx.unpack(blobs[0])
        assert fmt.name == "sample"

    def test_pack_bytes_unpack_stream(self):
        tx = PbioSession(self.reg)
        rx = PbioSession(FormatRegistry())
        value = {"seq": 9, "data": [1.0, 2.0, 3.0]}
        blob = tx.pack_bytes(self.fmt, value)
        fmt, decoded = rx.unpack_stream(blob)
        assert decoded["seq"] == 9

    def test_unpack_stream_data_only(self):
        tx = PbioSession(self.reg)
        rx = PbioSession(self.reg)
        tx.pack_bytes(self.fmt, {"seq": 1, "data": []})
        second = tx.pack_bytes(self.fmt, {"seq": 2, "data": []})
        fmt, decoded = rx.unpack_stream(second)
        assert decoded["seq"] == 2

    def test_trailing_garbage_detected(self):
        tx = PbioSession(self.reg)
        blobs = tx.pack(self.fmt, {"seq": 1, "data": []})
        rx = PbioSession(self.reg)
        with pytest.raises(DecodeError):
            rx.unpack(blobs[-1] + b"JUNKJUNK")

    def test_big_endian_sender(self):
        tx = PbioSession(self.reg, endian=BIG)
        rx = PbioSession(FormatRegistry())
        value = {"seq": 0x0A0B0C0D, "data": [1.25]}
        for blob in tx.pack(self.fmt, value):
            result = rx.unpack(blob)
        _, decoded = result
        assert decoded["seq"] == 0x0A0B0C0D
        assert list(decoded["data"]) == [1.25]

    def test_byte_counters(self):
        tx = PbioSession(self.reg)
        blobs = tx.pack(self.fmt, {"seq": 1, "data": [1.0]})
        assert tx.stats.bytes_sent == sum(len(b) for b in blobs)


class TestAnnouncementTrust:
    """Conflicting peer announcements: rejected by default, adopted only
    by sessions that explicitly trust their peer (client side of a live
    quality redefinition)."""

    def setup_method(self):
        self.peer_reg = FormatRegistry()
        self.peer_fmt = make_fmt("sample", {"seq": "int64", "data": "int8[]"})
        self.peer_reg.register(self.peer_fmt)
        self.local_reg = FormatRegistry()
        self.local_fmt = make_fmt("sample", {"seq": "int32",
                                             "data": "float64[]"})
        self.local_reg.register(self.local_fmt)
        self.announcement = PbioSession(self.peer_reg).pack(
            self.peer_fmt, {"seq": 1, "data": []})[0]

    def test_conflicting_announcement_rejected_by_default(self):
        rx = PbioSession(self.local_reg)
        with pytest.raises(FormatError):
            rx.unpack(self.announcement)
        # the shared registry still holds the server-owned definition,
        # and no per-connection binding for the rejected id was kept
        assert (self.local_reg.by_name("sample").fingerprint
                == self.local_fmt.fingerprint)
        assert rx._remote == {}

    def test_conflict_does_not_flush_attached_caches(self):
        class Probe:
            flushed = 0

            def invalidate(self):
                self.flushed += 1

        probe = Probe()
        self.local_reg._attach_compiler(probe)
        rx = PbioSession(self.local_reg)
        with pytest.raises(FormatError):
            rx.unpack(self.announcement)
        assert probe.flushed == 0

    def test_trusting_session_adopts_redefinition(self):
        rx = PbioSession(self.local_reg, adopt_redefines=True)
        assert rx.unpack(self.announcement) is None
        assert (self.local_reg.by_name("sample").fingerprint
                == self.peer_fmt.fingerprint)

    def test_matching_announcement_fine_without_trust(self):
        tx = PbioSession(self.peer_reg)
        rx_reg = FormatRegistry()
        rx_reg.register(make_fmt("sample", {"seq": "int64",
                                            "data": "int8[]"}))
        rx = PbioSession(rx_reg)          # same structure: no conflict
        for blob in tx.pack(self.peer_fmt, {"seq": 4, "data": [1, 2]}):
            result = rx.unpack(blob)
        _fmt, decoded = result
        assert decoded["seq"] == 4


class TestTcpFormatServer:
    def test_register_lookup_roundtrip(self):
        with FormatServer() as server:
            with FormatClient(server.address) as client:
                fmt = make_fmt("tcp_fmt")
                fid = client.register(fmt)
                assert client.fetch(fid) == fmt
                assert len(server) == 1

    def test_lookup_unknown(self):
        with FormatServer() as server:
            with FormatClient(server.address) as client:
                assert client.fetch(424242) is None

    def test_client_caching_avoids_round_trips(self):
        with FormatServer() as server:
            with FormatClient(server.address) as client:
                fmt = make_fmt("cached")
                fid = client.register(fmt)
                before = client.network_round_trips
                client.register(fmt)
                client.fetch(fid)
                assert client.network_round_trips == before

    def test_two_clients_share_formats(self):
        with FormatServer() as server:
            with FormatClient(server.address) as alice, \
                    FormatClient(server.address) as bob:
                fid = alice.register(make_fmt("shared"))
                assert bob.fetch(fid).name == "shared"
            # ids are per fingerprint: another client's registration of
            # the same format (not in its cache) gets the same id back
            with FormatClient(server.address) as carol:
                assert carol.register(make_fmt("shared")) == fid
                assert carol.register(make_fmt("other")) == fid + 1
                assert carol.network_round_trips == 2
            assert len(server) == 2

    def test_session_with_format_server(self):
        """End-to-end: sender registers with the server; receiver resolves
        an unannounced format id via the server (the paper's handshake)."""
        reg_tx = FormatRegistry()
        fmt = make_fmt("via_server")
        with FormatServer() as server:
            with FormatClient(server.address) as tx_client, \
                    FormatClient(server.address) as rx_client:
                fid = tx_client.register(fmt)
                reg_tx.register_with_id(fmt, fid)
                tx = PbioSession(reg_tx)
                tx._announced.add(fid)  # rely on the server, not inline blobs
                rx = PbioSession(FormatRegistry(),
                                 format_fetcher=rx_client.fetch)
                blobs = tx.pack(fmt, {"seq": 5, "data": [9.0]})
                assert len(blobs) == 1
                got_fmt, value = rx.unpack(blobs[0])
                assert got_fmt == fmt
                assert value["seq"] == 5
