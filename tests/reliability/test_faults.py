"""Fault injection and error parity.

Every scripted fault must surface through the stack as exactly one typed
:class:`~repro.reliability.errors.ReliabilityError` — never a bare
``OSError``/``socket.timeout`` — whether the caller is a raw
:class:`~repro.reliability.channel.ReliableChannel`, a
:class:`~repro.soap.client.SoapClient` or a
:class:`~repro.core.binclient.SoapBinClient`.
"""

import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core import SoapBinClient, SoapBinService
from repro.http11 import HttpConnection, HttpConnectionPool
from repro.netsim import VirtualClock
from repro.pbio import Format, FormatRegistry
from repro.reliability import (CallTimeout, ConnectFailed, FaultInjector,
                               FaultInjectingChannel, FaultKind,
                               FaultSchedule, FaultWindow, ReliabilityError,
                               ReliableChannel, ResetMidStream, RetryPolicy,
                               ServiceUnavailable, StalledRead,
                               TruncatedReply)
from repro.soap import SoapClient, SoapService
from repro.transport import (DirectChannel, HttpChannel,
                             PipelinedHttpChannel, PooledHttpChannel,
                             serve_endpoint)

#: every name the socket channel goes by, each built with a per-attempt
#: timeout; the pooled one draws on a caller's pool
CHANNELS = {
    "HttpChannel": lambda address, pool, policy: HttpChannel(
        address, retry_policy=policy),
    "PooledHttpChannel": lambda address, pool, policy: PooledHttpChannel(
        address, pool=pool, retry_policy=policy),
    "PipelinedHttpChannel": lambda address, pool, policy:
        PipelinedHttpChannel(address, depth=8, retry_policy=policy),
}


def _call(channel, batched):
    """One call, or a batch of three; the typed error of the call or of
    every batch slot."""
    if not batched:
        with pytest.raises(ReliabilityError) as info:
            channel.call(b"x", "text/plain", {})
        return [info.value]
    results = channel.call_many([b"a", b"b", b"c"], "text/plain")
    assert all(result.reply is None for result in results)
    return [result.error for result in results]


@contextmanager
def _raw_server(reply: bytes):
    """A listener that reads each request, writes ``reply`` (perhaps
    nothing) and then only drains: an empty reply is a stall, a partial
    one a peer that closes mid-reply (its write side shut, so the client
    sees a FIN, not a reset)."""
    listener = socket.create_server(("127.0.0.1", 0))
    conns = []

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            conns.append(conn)
            conn.recv(65536)
            if reply:
                conn.sendall(reply)
                conn.shutdown(socket.SHUT_WR)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        thread.join(5.0)
        for conn in conns:
            conn.close()


class TestScheduleMatching:
    def test_time_window_is_half_open(self):
        window = FaultWindow(FaultKind.STALLED_READ, start_s=1.0, end_s=2.0)
        assert not window.matches(0, 0.999)
        assert window.matches(0, 1.0)
        assert window.matches(0, 1.999)
        assert not window.matches(0, 2.0)

    def test_call_index_list(self):
        window = FaultWindow(FaultKind.CONNECT_REFUSED, calls=[0, 3])
        assert window.matches(0, 99.0)
        assert not window.matches(1, 99.0)
        assert window.matches(3, 0.0)

    def test_combined_constraints(self):
        window = FaultWindow(FaultKind.RESET_MID_STREAM, start_s=1.0,
                             calls=[5])
        assert not window.matches(5, 0.5)  # right call, too early
        assert not window.matches(4, 1.5)  # right time, wrong call
        assert window.matches(5, 1.5)

    def test_first_matching_window_wins(self):
        schedule = FaultSchedule([
            FaultWindow(FaultKind.STALLED_READ, calls=[1]),
            FaultWindow(FaultKind.CONNECT_REFUSED),
        ])
        assert schedule.fault_at(0, 0.0) is FaultKind.CONNECT_REFUSED
        assert schedule.fault_at(1, 0.0) is FaultKind.STALLED_READ

    def test_burst_helper(self):
        schedule = FaultSchedule.burst(FaultKind.UNAVAILABLE_503, 0.5, 1.0)
        assert schedule.fault_at(0, 0.4) is None
        assert schedule.fault_at(0, 0.7) is FaultKind.UNAVAILABLE_503
        assert schedule.fault_at(0, 1.0) is None

    def test_injector_counts_per_kind(self):
        clock = VirtualClock()
        injector = FaultInjector(
            FaultSchedule([FaultWindow(FaultKind.CONNECT_REFUSED,
                                       calls=[0, 1])]),
            clock=clock)
        assert injector.next_fault() is FaultKind.CONNECT_REFUSED
        assert injector.next_fault() is FaultKind.CONNECT_REFUSED
        assert injector.next_fault() is None
        assert injector.calls_seen == 3
        assert injector.injected == {FaultKind.CONNECT_REFUSED: 2}
        assert injector.total_injected == 2


def always(kind):
    return FaultSchedule([FaultWindow(kind)])


def reliable_echo(schedule, clock, policy=None, **channel_kwargs):
    """DirectChannel echo endpoint wrapped in injector + ReliableChannel."""
    from repro.transport.base import ChannelReply

    def endpoint(body, content_type, headers):
        return ChannelReply(body=body, content_type=content_type)

    injector = FaultInjector(schedule, clock=clock)
    faulty = FaultInjectingChannel(DirectChannel(endpoint), injector,
                                   **channel_kwargs)
    policy = policy or RetryPolicy(max_attempts=1)
    return ReliableChannel(faulty, policy=policy, clock=clock), injector


class TestErrorParity:
    """Each injected fault kind -> exactly one typed exception."""

    @pytest.mark.parametrize("kind,expected", [
        (FaultKind.CONNECT_REFUSED, ConnectFailed),
        (FaultKind.RESET_MID_STREAM, ResetMidStream),
        (FaultKind.STALLED_READ, StalledRead),
        (FaultKind.TRUNCATED_REPLY, TruncatedReply),
        (FaultKind.UNAVAILABLE_503, ServiceUnavailable),
    ])
    def test_fault_maps_to_one_typed_error(self, kind, expected):
        clock = VirtualClock()
        channel, _ = reliable_echo(always(kind), clock)
        with pytest.raises(ReliabilityError) as info:
            channel.call(b"payload", "application/octet-stream", {})
        assert type(info.value) is expected
        assert info.value.attempts == 1

    def test_no_bare_oserror_escapes(self):
        for kind in FaultKind:
            clock = VirtualClock()
            channel, _ = reliable_echo(always(kind), clock)
            try:
                channel.call(b"x", "text/plain", {})
            except ReliabilityError:
                pass  # the only acceptable failure shape
            else:  # pragma: no cover
                pytest.fail(f"{kind} did not raise")

    def test_faults_charge_the_virtual_clock(self):
        clock = VirtualClock()
        channel, _ = reliable_echo(always(FaultKind.STALLED_READ), clock,
                                   read_timeout_s=0.25)
        with pytest.raises(StalledRead):
            channel.call(b"x", "text/plain", {})
        assert clock.now() == pytest.approx(0.25)

    def test_clean_calls_pass_through(self):
        clock = VirtualClock()
        channel, injector = reliable_echo(
            FaultSchedule([FaultWindow(FaultKind.CONNECT_REFUSED,
                                       calls=[99])]),
            clock)
        reply = channel.call(b"hello", "text/plain", {})
        assert reply.body == b"hello"
        assert injector.total_injected == 0
        assert channel.last_call.attempts == 1


class TestRetryAbsorbsFaults:
    def test_single_fault_absorbed_with_metadata(self):
        clock = VirtualClock()
        channel, injector = reliable_echo(
            FaultSchedule([FaultWindow(FaultKind.CONNECT_REFUSED,
                                       calls=[0])]),
            clock,
            policy=RetryPolicy(max_attempts=3, backoff_initial_s=0.01))
        reply = channel.call(b"hello", "text/plain", {})
        assert reply.body == b"hello"
        assert injector.total_injected == 1
        meta = channel.last_call
        assert meta.attempts == 2
        assert meta.retried
        assert meta.faults == ["ConnectFailed"]

    def test_injected_503_retry_after_floors_backoff(self):
        clock = VirtualClock()
        channel, _ = reliable_echo(
            FaultSchedule([FaultWindow(FaultKind.UNAVAILABLE_503,
                                       calls=[0])]),
            clock,
            policy=RetryPolicy(max_attempts=2, backoff_initial_s=0.001),
            retry_after_s=0.4)
        reply = channel.call(b"hello", "text/plain", {})
        assert reply.ok
        # the injected Retry-After (0.4s), not the 1ms backoff, set the wait
        assert clock.now() >= 0.4
        assert channel.last_call.faults == ["ServiceUnavailable"]

    def test_mid_stream_fault_not_retried_when_not_idempotent(self):
        clock = VirtualClock()
        channel, _ = reliable_echo(
            FaultSchedule([FaultWindow(FaultKind.RESET_MID_STREAM,
                                       calls=[0])]),
            clock,
            policy=RetryPolicy(max_attempts=3, backoff_initial_s=0.01))
        channel.idempotent = False
        with pytest.raises(ResetMidStream):
            channel.call(b"hello", "text/plain", {})
        assert channel.last_call.attempts == 1


@pytest.fixture()
def soap_setup():
    registry = FormatRegistry()
    req = Format.from_dict("PingRequest", {"label": "string"})
    res = Format.from_dict("PingResponse", {"label": "string"})
    svc = SoapService(registry)
    svc.add_operation("Ping", req, res,
                      lambda params: {"label": params["label"]})
    return registry, svc, req, res


@pytest.fixture()
def bin_setup():
    registry = FormatRegistry()
    registry.register(Format.from_dict("PingRequest", {"label": "string"}))
    registry.register(Format.from_dict("PingResponse", {"label": "string"}))
    svc = SoapBinService(registry)
    svc.add_operation("Ping", registry.by_name("PingRequest"),
                      registry.by_name("PingResponse"),
                      lambda params: {"label": params["label"]})
    return registry, svc


def wrap_endpoint(endpoint, schedule, clock, policy):
    injector = FaultInjector(schedule, clock=clock)
    faulty = FaultInjectingChannel(DirectChannel(endpoint), injector)
    return ReliableChannel(faulty, policy=policy, clock=clock)


class TestSoapClientParity:
    """Typed errors and call metadata through the XML SOAP client."""

    @pytest.mark.parametrize("kind,expected", [
        (FaultKind.CONNECT_REFUSED, ConnectFailed),
        (FaultKind.STALLED_READ, StalledRead),
        (FaultKind.UNAVAILABLE_503, ServiceUnavailable),
    ])
    def test_typed_error_surfaces(self, soap_setup, kind, expected):
        registry, svc, req, res = soap_setup
        clock = VirtualClock()
        channel = wrap_endpoint(svc.endpoint, always(kind), clock,
                                RetryPolicy(max_attempts=1))
        client = SoapClient(channel, registry)
        with pytest.raises(expected) as info:
            client.call("Ping", {"label": "x"}, req, res)
        assert isinstance(info.value, ReliabilityError)
        assert client.last_call is info.value.meta

    def test_retry_metadata_on_success(self, soap_setup):
        registry, svc, req, res = soap_setup
        clock = VirtualClock()
        channel = wrap_endpoint(
            svc.endpoint,
            FaultSchedule([FaultWindow(FaultKind.CONNECT_REFUSED,
                                       calls=[0])]),
            clock, RetryPolicy(max_attempts=3, backoff_initial_s=0.01))
        client = SoapClient(channel, registry)
        out = client.call("Ping", {"label": "x"}, req, res)
        assert out["label"] == "x"
        assert client.last_call.attempts == 2
        assert client.last_call.faults == ["ConnectFailed"]


class TestBinClientParity:
    """Same guarantees through the binary SOAP-bin client."""

    @pytest.mark.parametrize("kind,expected", [
        (FaultKind.RESET_MID_STREAM, ResetMidStream),
        (FaultKind.TRUNCATED_REPLY, TruncatedReply),
        (FaultKind.UNAVAILABLE_503, ServiceUnavailable),
    ])
    def test_typed_error_surfaces(self, bin_setup, kind, expected):
        registry, svc = bin_setup
        clock = VirtualClock()
        # idempotent retries ON but a schedule that always faults: the
        # typed error must still come out after attempts are exhausted
        channel = wrap_endpoint(svc.endpoint, always(kind), clock,
                                RetryPolicy(max_attempts=2,
                                            backoff_initial_s=0.01))
        client = SoapBinClient(channel, registry, clock=clock)
        with pytest.raises(expected) as info:
            client.call("Ping", {"label": "x"},
                        registry.by_name("PingRequest"),
                        registry.by_name("PingResponse"))
        assert isinstance(info.value, ReliabilityError)
        assert client.last_call is info.value.meta
        assert client.last_call.attempts >= 1

    def test_retry_metadata_on_success(self, bin_setup):
        registry, svc = bin_setup
        clock = VirtualClock()
        channel = wrap_endpoint(
            svc.endpoint,
            FaultSchedule([FaultWindow(FaultKind.STALLED_READ, calls=[0])]),
            clock, RetryPolicy(max_attempts=3, backoff_initial_s=0.01))
        client = SoapBinClient(channel, registry, clock=clock)
        out = client.call("Ping", {"label": "x"},
                          registry.by_name("PingRequest"),
                          registry.by_name("PingResponse"))
        assert out["label"] == "x"
        assert client.last_call.attempts == 2
        assert client.last_call.faults == ["StalledRead"]


class TestRealSockets:
    """The reliability layer over actual TCP, not just DirectChannel."""

    def test_capped_server_503_becomes_service_unavailable(self, bin_setup):
        registry, svc = bin_setup
        server = serve_endpoint(svc.endpoint, max_connections=1)
        try:
            holder = HttpConnection(server.address)
            assert holder.get("/").status in (200, 404, 405)
            channel = HttpChannel(server.address,
                                  retry_policy=RetryPolicy(max_attempts=1))
            try:
                with pytest.raises(ServiceUnavailable) as info:
                    channel.call(b"x", "text/plain", {})
                # HttpServer's default Retry-After is 1 second
                assert info.value.retry_after_s == pytest.approx(1.0)
                assert info.value.retry_safe
            finally:
                channel.close()
                holder.close()
        finally:
            server.close()

    def test_retry_waits_out_capped_server(self, bin_setup):
        registry, svc = bin_setup
        server = serve_endpoint(svc.endpoint, max_connections=1,
                                retry_after_s=0.05)
        try:
            holder = HttpConnection(server.address)
            assert holder.get("/").status in (200, 404, 405)

            import threading
            timer = threading.Timer(0.3, holder.close)
            timer.start()
            channel = HttpChannel(
                server.address,
                retry_policy=RetryPolicy(max_attempts=50, deadline_s=5.0,
                                         backoff_initial_s=0.05,
                                         backoff_max_s=0.1))
            client = SoapBinClient(channel, registry)
            try:
                out = client.call("Ping", {"label": "waited"},
                                  registry.by_name("PingRequest"),
                                  registry.by_name("PingResponse"))
                assert out["label"] == "waited"
                assert client.last_call.attempts >= 2
                assert "ServiceUnavailable" in client.last_call.faults
            finally:
                timer.cancel()
                channel.close()
        finally:
            server.close()

    def test_refused_connect_is_typed(self):
        import socket as socket_mod
        probe = socket_mod.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        channel = HttpChannel(
            address, retry_policy=RetryPolicy(max_attempts=2,
                                              backoff_initial_s=0.01,
                                              call_timeout_s=0.5))
        with pytest.raises(ConnectFailed) as info:
            channel.call(b"x", "text/plain", {})
        assert info.value.attempts == 2

    @pytest.mark.parametrize("name,batched", [
        ("HttpChannel", False), ("PooledHttpChannel", False),
        ("PipelinedHttpChannel", False), ("HttpChannel", True),
    ], ids=["HttpChannel", "PooledHttpChannel", "PipelinedHttpChannel",
            "call_many"])
    def test_call_timeout_is_typed(self, bin_setup, name, batched):
        registry, svc = bin_setup
        # the handler answers 2 s late, or as soon as the test is done,
        # so no handler outlives its server into the next test
        done = threading.Event()

        def slow_endpoint(body, content_type, headers):
            done.wait(2.0)
            return svc.endpoint(body, content_type, headers)

        server = serve_endpoint(slow_endpoint)
        pool = HttpConnectionPool()
        try:
            channel = CHANNELS[name](server.address, pool, RetryPolicy(
                max_attempts=1, call_timeout_s=0.1))
            try:
                started = time.monotonic()
                errors = _call(channel, batched)
                assert time.monotonic() - started < 1.0
                assert all(isinstance(error, (StalledRead, CallTimeout))
                           for error in errors)
            finally:
                channel.close()
        finally:
            done.set()
            pool.close()
            server.close()

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["call", "call_many"])
    @pytest.mark.parametrize("name", sorted(CHANNELS))
    @pytest.mark.parametrize("reply,typed", [
        (b"", StalledRead),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial",
         TruncatedReply),
    ], ids=["stall", "close_mid_reply"])
    def test_one_fault_one_type(self, reply, typed, name, batched):
        pool = HttpConnectionPool()
        with _raw_server(reply) as address:
            channel = CHANNELS[name](address, pool, RetryPolicy(
                max_attempts=1, call_timeout_s=0.2))
            try:
                errors = _call(channel, batched)
            finally:
                channel.close()
                pool.close()
        assert [type(error) for error in errors] == \
            [typed] * len(errors)

