"""SoapBinClient.call_many: batched invocations over every channel shape,
announcement priming, and partial-failure surfacing."""

import threading

import pytest

from repro.core import BinProtocolError, SoapBinClient, SoapBinService
from repro.pbio import Format, FormatRegistry
from repro.reliability import ReliableChannel, RetryPolicy
from repro.transport import (ChannelReply, DirectChannel,
                             PipelinedHttpChannel, serve_endpoint)


@pytest.fixture()
def registry():
    reg = FormatRegistry()
    reg.register(Format.from_dict("EchoRequest",
                                  {"data": "float64[]", "tag": "string"}))
    reg.register(Format.from_dict("EchoResponse",
                                  {"data": "float64[]", "tag": "string",
                                   "count": "int32"}))
    return reg


@pytest.fixture()
def service(registry):
    svc = SoapBinService(registry)
    svc.add_operation("Echo", registry.by_name("EchoRequest"),
                      registry.by_name("EchoResponse"),
                      lambda p: {"data": p["data"], "tag": p["tag"],
                                 "count": len(p["data"])})
    return svc


def params_batch(n):
    return [{"data": [float(i)], "tag": f"t{i}"} for i in range(n)]


class TestSequentialFallback:
    def test_channel_without_call_many_runs_sequentially(self, service,
                                                         registry):
        client = SoapBinClient(DirectChannel(service.endpoint), registry)
        out = client.call_many("Echo", params_batch(5),
                               registry.by_name("EchoRequest"),
                               registry.by_name("EchoResponse"))
        assert [o["tag"] for o in out] == [f"t{i}" for i in range(5)]
        assert len(client.last_calls) == 5

    def test_empty_batch(self, service, registry):
        client = SoapBinClient(DirectChannel(service.endpoint), registry)
        assert client.call_many("Echo", [],
                                registry.by_name("EchoRequest"),
                                registry.by_name("EchoResponse")) == []


class TestPipelinedBatch:
    def test_results_in_order_over_one_connection(self, service, registry):
        with serve_endpoint(service.endpoint) as server:
            channel = PipelinedHttpChannel(server.address, depth=8)
            client = SoapBinClient(channel, registry)
            out = client.call_many("Echo", params_batch(40),
                                   registry.by_name("EchoRequest"),
                                   registry.by_name("EchoResponse"))
            assert [o["tag"] for o in out] == [f"t{i}" for i in range(40)]
            channel.close()

    def test_announcements_are_primed_serially(self, service, registry):
        # the first sub-call of a fresh session carries the format
        # announcement: exactly one announcement goes out, before the
        # pipelined remainder, and the server decodes every message
        with serve_endpoint(service.endpoint) as server:
            channel = PipelinedHttpChannel(server.address, depth=8,
                                           connections=2)
            client = SoapBinClient(channel, registry)
            out = client.call_many("Echo", params_batch(20),
                                   registry.by_name("EchoRequest"),
                                   registry.by_name("EchoResponse"))
            assert len(out) == 20
            assert client.session.stats.announcements_sent == 1
            # a second batch has nothing left to announce
            out2 = client.call_many("Echo", params_batch(10),
                                    registry.by_name("EchoRequest"),
                                    registry.by_name("EchoResponse"))
            assert len(out2) == 10
            assert client.session.stats.announcements_sent == 1
            channel.close()

    def test_rtt_estimator_gets_one_sample_per_batch(self, service,
                                                     registry):
        with serve_endpoint(service.endpoint) as server:
            channel = PipelinedHttpChannel(server.address, depth=8)
            client = SoapBinClient(channel, registry)
            client.call_many("Echo", params_batch(16),
                             registry.by_name("EchoRequest"),
                             registry.by_name("EchoResponse"))
            # priming contributes one sample, the batch exactly one more
            assert client.estimator.samples == 2
            channel.close()


class TestPartialFailure:
    def _flaky_service(self, registry, fail_tags):
        svc = SoapBinService(registry)

        def handler(p):
            if p["tag"] in fail_tags:
                raise RuntimeError(f"boom on {p['tag']}")
            return {"data": p["data"], "tag": p["tag"],
                    "count": len(p["data"])}

        svc.add_operation("Echo", registry.by_name("EchoRequest"),
                          registry.by_name("EchoResponse"), handler)
        return svc

    def test_default_raises_first_error(self, registry):
        svc = self._flaky_service(registry, {"t2"})
        with serve_endpoint(svc.endpoint) as server:
            channel = PipelinedHttpChannel(server.address, depth=4)
            client = SoapBinClient(channel, registry)
            with pytest.raises(BinProtocolError):
                client.call_many("Echo", params_batch(6),
                                 registry.by_name("EchoRequest"),
                                 registry.by_name("EchoResponse"))
            channel.close()

    def test_return_exceptions_keeps_good_slots(self, registry):
        svc = self._flaky_service(registry, {"t2", "t4"})
        with serve_endpoint(svc.endpoint) as server:
            channel = PipelinedHttpChannel(server.address, depth=4)
            client = SoapBinClient(channel, registry)
            out = client.call_many("Echo", params_batch(6),
                                   registry.by_name("EchoRequest"),
                                   registry.by_name("EchoResponse"),
                                   return_exceptions=True)
            for i, result in enumerate(out):
                if i in (2, 4):
                    assert isinstance(result, BinProtocolError)
                else:
                    assert result["tag"] == f"t{i}"
            channel.close()


class TestPolicedBatch:
    def _shed_first_three(self, registry):
        """Echo service whose first three requests are shed with 503."""
        svc = SoapBinService(registry)
        state = {"left": 3}
        lock = threading.Lock()

        def handler(p):
            return {"data": p["data"], "tag": p["tag"],
                    "count": len(p["data"])}

        svc.add_operation("Echo", registry.by_name("EchoRequest"),
                          registry.by_name("EchoResponse"), handler)

        inner = svc.endpoint

        def shedding_endpoint(body, content_type, headers):
            with lock:
                shed = state["left"] > 0
                if shed:
                    state["left"] -= 1
            if shed:
                return ChannelReply(body=b"shed", content_type="text/plain",
                                    headers={"Retry-After": "0.01"},
                                    status=503)
            return inner(body, content_type, headers)

        return shedding_endpoint

    def _shed_subcalls_are_retried(self, registry, make_channel):
        with serve_endpoint(self._shed_first_three(registry)) as server:
            policy = RetryPolicy(max_attempts=4, backoff_initial_s=0.01,
                                 backoff_max_s=0.05)
            channel = make_channel(server.address, policy)
            client = SoapBinClient(channel, registry)
            out = client.call_many("Echo", params_batch(8),
                                   registry.by_name("EchoRequest"),
                                   registry.by_name("EchoResponse"))
            assert [o["tag"] for o in out] == [f"t{i}" for i in range(8)]
            metas = [m for m in client.last_calls if m is not None]
            assert any(m.retried for m in metas)
            assert any("ServiceUnavailable" in m.faults for m in metas)
            channel.close()

    def test_shed_subcalls_are_retried_with_meta(self, registry):
        self._shed_subcalls_are_retried(
            registry, lambda address, policy: PipelinedHttpChannel(
                address, depth=4, retry_policy=policy))

    def test_shed_subcalls_are_retried_through_reliable_channel(
            self, registry):
        self._shed_subcalls_are_retried(
            registry, lambda address, policy: ReliableChannel(
                PipelinedHttpChannel(address, depth=4), policy=policy))

    def test_reliable_channel_pipelines_each_round(self):
        """ReliableChannel over a pipelined channel hands each retry round
        to ``inner.call_many`` once — not once per body — and re-sends
        only the shed sub-calls."""
        shed = {"left": 3}
        lock = threading.Lock()

        def shedding_echo(body, content_type, headers):
            with lock:
                if shed["left"] > 0:
                    shed["left"] -= 1
                    return ChannelReply(body=b"", status=503,
                                        headers={"Retry-After": "0"})
            return ChannelReply(body=body, content_type=content_type)

        with serve_endpoint(shedding_echo) as server:
            inner = PipelinedHttpChannel(server.address, depth=4)
            rounds = []
            send_many = inner.call_many

            def counting_call_many(bodies, content_type, headers=None):
                rounds.append(list(bodies))
                return send_many(bodies, content_type, headers)

            inner.call_many = counting_call_many
            channel = ReliableChannel(inner, policy=RetryPolicy(
                max_attempts=3, backoff_initial_s=0.0))
            bodies = [b"%d" % i for i in range(8)]
            results = channel.call_many(bodies, "text/plain")
            channel.close()
        assert [r.reply.body for r in results] == bodies
        # one pipelined round for the batch, one for the shed prefix
        assert rounds == [bodies, bodies[:3]]
        assert [m.attempts for m in channel.last_calls] == [2] * 3 + [1] * 5

    def test_reliable_channel_fallback_batch(self, service, registry):
        with serve_endpoint(service.endpoint) as server:
            from repro.transport import HttpChannel
            channel = ReliableChannel(
                HttpChannel(server.address),
                policy=RetryPolicy(max_attempts=2, backoff_initial_s=0.01))
            client = SoapBinClient(channel, registry)
            out = client.call_many("Echo", params_batch(5),
                                   registry.by_name("EchoRequest"),
                                   registry.by_name("EchoResponse"))
            assert [o["tag"] for o in out] == [f"t{i}" for i in range(5)]
            assert all(m is not None and m.attempts == 1
                       for m in client.last_calls)
            channel.close()
