"""FleetServer: prefork scale-out on one port, supervision, zero-loss
rolling restarts, and cross-worker PBIO format consistency.

The kernel hashes each connection to one worker's ``SO_REUSEPORT``
listener, so a test that needs a second worker opens fresh connections
until one answers, within :data:`TRIES`."""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.core import SoapBinClient, SoapBinService
from repro.http11 import HttpConnection, Response
from repro.pbio import Format, FormatRegistry
from repro.reliability import ReliableChannel, RetryPolicy
from repro.serving import AdmissionController, FleetServer
from repro.transport import (HttpChannel, PipelinedHttpChannel,
                             endpoint_http_handler)

ECHO_FMT = Format.from_dict("FleetEcho", {"seq": "int32",
                                          "payload": "float64[]",
                                          "pid": "int32"})


def _echo_service():
    registry = FormatRegistry()
    registry.register(ECHO_FMT)
    service = SoapBinService(registry)
    service.add_operation(
        "Echo", ECHO_FMT, ECHO_FMT,
        lambda p: {"seq": p["seq"], "payload": p["payload"],
                   "pid": os.getpid()})
    return service


def echo_factory(ctx):
    return endpoint_http_handler(_echo_service().endpoint)


def slow_echo_factory(ctx):
    inner = endpoint_http_handler(_echo_service().endpoint)

    def handler(request):
        time.sleep(0.002)
        return inner(request)
    return handler


def pid_factory(ctx):
    def handler(request):
        return Response(status=200, body=str(os.getpid()).encode())
    return handler


def crashing_factory(ctx):
    raise RuntimeError("this worker can never start")


def admission_config(ctx):
    return {"admission": AdmissionController(max_concurrency=4,
                                             queue_limit=8)}


def _fleet(factory, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("publish_interval_s", 0.02)
    kwargs.setdefault("drain_s", 3.0)
    fleet = FleetServer(factory, **kwargs)
    assert fleet.wait_ready(15.0), "fleet workers never became ready"
    return fleet


#: fresh connections a test opens to reach every worker of a 2-worker
#: fleet (all of them hashing to one worker is vanishingly unlikely)
TRIES = 64


def _pids_answering(fleet):
    """Fresh connections until every worker has answered one."""
    pids, want = set(), set(fleet.worker_pids())
    for _ in range(TRIES):
        with HttpConnection(fleet.address) as conn:
            pids.add(int(conn.post("/", b"x", "text/plain").body))
        if pids >= want:
            break
    return pids


def _channel_off_worker(fleet, pid):
    """A fresh :class:`HttpChannel` whose connection a worker other than
    ``pid`` accepted (its ``/healthz`` names the worker)."""
    for _ in range(TRIES):
        channel = HttpChannel(fleet.address)
        healthz = channel.pool.get(channel.address, "/healthz")
        if json.loads(healthz.body)["pid"] != pid:
            return channel
        channel.close()
    pytest.fail(f"{TRIES} fresh connections all reached worker {pid}")


def _control_payload(fleet):
    with HttpConnection(fleet.control_address) as conn:
        response = conn.get("/healthz")
    return response.status, json.loads(response.body)


class TestOnePort:
    def test_workers_share_one_port_and_identify_themselves(self):
        with _fleet(pid_factory) as fleet:
            want = set(fleet.worker_pids())
            pids = set()
            for _ in range(TRIES):
                with HttpConnection(fleet.address) as conn:
                    body = conn.post("/", b"x", "text/plain").body
                    health = json.loads(conn.get("/healthz").body)
                pids.add(int(body))
                # the worker's own /healthz now carries pid + fleet size
                assert health["pid"] == int(body)
                assert health["workers"] == 2
                if pids >= want:
                    break
            assert pids == want

    def test_no_so_reuseport_refuses_before_forking(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT")

        def no_fork():
            raise AssertionError("forked a worker")
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(OSError, match="SO_REUSEPORT"):
            FleetServer(pid_factory, workers=2, control_port=None)

    def test_control_healthz_reports_per_worker_and_aggregate(self):
        with _fleet(pid_factory, worker_config=admission_config) as fleet:
            for _ in range(6):
                with HttpConnection(fleet.address) as conn:
                    assert conn.post("/", b"x", "text/plain").status == 200
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status, payload = _control_payload(fleet)
                if payload["aggregate"]["requests_served"] >= 6:
                    break
                time.sleep(0.05)
            assert status == 200
            assert payload["state"] == "ready"
            assert payload["workers"] == 2
            assert payload["workers_live"] == 2
            assert payload["pid"] == os.getpid()
            # per-worker slots published through shared memory
            live = [s for s in payload["fleet"] if s is not None]
            assert len(live) == 2
            assert {s["state"] for s in live} == {"ready"}
            assert len({s["pid"] for s in live}) == 2
            # the admission controllers wired by worker_config are visible
            assert payload["aggregate"]["max_concurrency"] == 8
            assert payload["aggregate"]["queue_limit"] == 16


class TestSupervision:
    def test_crash_respawn_restores_capacity_and_healthz_transitions(self):
        # A SIGKILLed worker stays "live" in the stats segment until its
        # heartbeat goes stale, and the respawn overwrites the slot — so
        # shrink the staleness window and stretch the respawn backoff to
        # make the degraded interval observable from the control port.
        with _fleet(pid_factory, stale_after_s=0.3,
                    respawn_backoff_s=0.8) as fleet:
            victim = fleet.kill_worker(0, signal.SIGKILL)
            # the fleet keeps serving through the outage
            saw_degraded = False
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with HttpConnection(fleet.address) as conn:
                    assert conn.post("/", b"x", "text/plain").status == 200
                _status, payload = _control_payload(fleet)
                if payload["workers_live"] == 1:
                    saw_degraded = True
                    assert payload["state"] == "degraded"
                supervisor = payload["supervisor"][0]
                if (saw_degraded and supervisor["alive"]
                        and supervisor["pid"] != victim):
                    break
                time.sleep(0.02)
            assert saw_degraded, "control /healthz never showed the loss"
            assert fleet.wait_ready(10.0), "respawn never became ready"
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                _status, payload = _control_payload(fleet)
                if payload["workers_live"] == 2:
                    break
                time.sleep(0.02)
            assert payload["workers_live"] == 2
            assert payload["state"] == "ready"
            assert payload["supervisor"][0]["generation"] == 2
            assert fleet.respawns_total == 1
            # the replacement serves traffic on the same port
            pids = _pids_answering(fleet)
            assert len(pids) == 2 and victim not in pids

    def test_respawn_backoff_gives_up_after_max(self, capfd):
        fleet = FleetServer(crashing_factory, workers=1, control_port=None,
                            publish_interval_s=0.02, max_respawns=2,
                            respawn_backoff_s=0.01,
                            respawn_backoff_max_s=0.05)
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                supervisor = fleet.describe()["supervisor"][0]
                if supervisor["failed"]:
                    break
                time.sleep(0.05)
            assert supervisor["failed"], "slot never marked failed"
            # initial spawn + max_respawns respawn attempts, then stop
            assert supervisor["generation"] == 3
            assert fleet.describe()["workers_live"] == 0
        finally:
            fleet.close()
            capfd.readouterr()           # swallow the children's tracebacks

    def _sigkill_mid_batch(self, make_channel):
        """Acceptance: killing one worker mid-load must not lose accepted
        in-flight calls beyond that worker's — and with the client retry
        policy re-driving the failed suffix, even those complete."""
        with _fleet(slow_echo_factory, respawn_backoff_s=0.05) as fleet:
            registry = FormatRegistry()
            registry.register(ECHO_FMT)
            policy = RetryPolicy(max_attempts=5, deadline_s=60.0,
                                 backoff_initial_s=0.02)
            channel = make_channel(fleet.address, policy)
            client = SoapBinClient(channel, registry)
            params = [{"seq": i, "payload": [float(i)], "pid": 0}
                      for i in range(240)]
            results = []

            def batch():
                results.extend(client.call_many(
                    "Echo", params, ECHO_FMT, ECHO_FMT,
                    return_exceptions=True))

            thread = threading.Thread(target=batch, daemon=True)
            thread.start()
            time.sleep(0.15)             # let the pipelines fill
            fleet.kill_worker(0, signal.SIGKILL)
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "batch never completed"
            channel.close()
            failures = [r for r in results if isinstance(r, Exception)]
            assert failures == []        # zero failed slots
            assert len(results) == 240
            assert [r["seq"] for r in results] == list(range(240))
            assert fleet.wait_ready(10.0)    # capacity restored

    def test_sigkill_mid_batch_loses_no_calls_under_retry(self):
        self._sigkill_mid_batch(lambda address, policy: PipelinedHttpChannel(
            address, depth=8, connections=2, retry_policy=policy))

    def test_sigkill_mid_batch_through_reliable_channel(self):
        self._sigkill_mid_batch(lambda address, policy: ReliableChannel(
            PipelinedHttpChannel(address, depth=8, connections=2),
            policy=policy))


class TestRollingRestart:
    def test_zero_loss_under_pipelined_call_many(self):
        """Satellite: drain/restart one worker of two while a call_many
        pipelined stream is in flight — zero failed slots, exact
        completed-call accounting."""
        with _fleet(slow_echo_factory, drain_s=5.0) as fleet:
            before = set(fleet.worker_pids())
            registry = FormatRegistry()
            registry.register(ECHO_FMT)
            policy = RetryPolicy(max_attempts=5, deadline_s=60.0,
                                 backoff_initial_s=0.02)
            channel = PipelinedHttpChannel(fleet.address, depth=8,
                                           connections=2,
                                           retry_policy=policy)
            client = SoapBinClient(channel, registry)
            params = [{"seq": i, "payload": [float(i), 2.0], "pid": 0}
                      for i in range(300)]
            results = []

            def batch():
                results.extend(client.call_many(
                    "Echo", params, ECHO_FMT, ECHO_FMT,
                    return_exceptions=True))

            thread = threading.Thread(target=batch, daemon=True)
            thread.start()
            time.sleep(0.1)              # stream in flight
            fleet.rolling_restart(drain_s=5.0)
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "batch never completed"
            channel.close()
            # zero failed slots...
            failures = [r for r in results if isinstance(r, Exception)]
            assert failures == []
            # ...and exact completed-call accounting, in order
            assert len(results) == 300
            assert [r["seq"] for r in results] == list(range(300))
            assert len(client.last_calls) == 300
            # every worker really was replaced, and the fleet recovered
            after = set(fleet.worker_pids())
            assert before.isdisjoint(after)
            assert fleet.wait_ready(10.0)
            assert fleet.aggregate()["workers_live"] == 2


class TestWholeFleetRestart:
    def test_same_port_restart_under_a_calling_client(self):
        """Close the whole fleet and start a new one on the same port
        while a client keeps calling: under a retry policy every call
        returns its own echoed value and none fails."""
        fleet = _fleet(echo_factory)
        replacement = None
        registry = FormatRegistry()
        registry.register(ECHO_FMT)
        policy = RetryPolicy(max_attempts=50, deadline_s=60.0,
                             backoff_initial_s=0.02, backoff_max_s=0.1)
        channel = ReliableChannel(HttpChannel(fleet.address), policy=policy)
        client = SoapBinClient(channel, registry)
        stop = threading.Event()
        results, attempts, errors = [], [], []

        def drive():
            seq = 0
            while not stop.is_set():
                try:
                    results.append(client.call(
                        "Echo", {"seq": seq, "payload": [float(seq)],
                                 "pid": 0}, ECHO_FMT, ECHO_FMT))
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)
                    return
                attempts.append(channel.last_call.attempts)
                seq += 1

        def wait_for_calls(count):
            deadline = time.monotonic() + 60.0
            while (len(results) < count and not errors
                   and time.monotonic() < deadline):
                time.sleep(0.01)

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        try:
            wait_for_calls(20)
            fleet.close()
            replacement = _fleet(echo_factory, port=fleet.address[1])
            new_pids = set(replacement.worker_pids())
            restarted_at = len(results)
            wait_for_calls(restarted_at + 20)
        finally:
            stop.set()
            thread.join(timeout=60.0)
            channel.close()
            fleet.close()
            if replacement is not None:
                replacement.close()
        assert not thread.is_alive(), "client never stopped"
        assert errors == []
        assert len(results) >= restarted_at + 20
        for seq, reply in enumerate(results):
            assert reply["seq"] == seq
            assert reply["payload"] == [float(seq)]
        # the outage really was crossed by retrying, and the calls after
        # it were answered by the new fleet's workers
        assert max(attempts) > 1
        assert {r["pid"] for r in results[restarted_at:]} <= new_pids


class TestCrossWorkerFormats:
    def test_format_announced_to_worker_a_round_trips_through_b(self):
        """Acceptance: PBIO formats announced through one worker must
        round-trip through another — deterministic registry construction
        plus the per-session announcement handshake are the sharing
        mechanism, with no cross-process registry state."""
        with _fleet(echo_factory) as fleet:
            registry = FormatRegistry()
            registry.register(ECHO_FMT)
            channel_a = HttpChannel(fleet.address)
            channel_b = None
            client = SoapBinClient(channel_a, registry)
            try:
                # call 1 carries the format announcement to worker A
                first = client.call("Echo",
                                    {"seq": 1, "payload": [1.0], "pid": 0},
                                    ECHO_FMT, ECHO_FMT)
                # swap the transport: same client session, other worker.
                # The session has already announced, so worker B receives
                # a bare data message and must resolve the format id from
                # its own (identically constructed) registry.
                channel_b = _channel_off_worker(fleet, first["pid"])
                client.channel = channel_b
                second = client.call("Echo",
                                     {"seq": 2, "payload": [2.0, 3.0],
                                      "pid": 0},
                                     ECHO_FMT, ECHO_FMT)
            finally:
                channel_a.close()
                if channel_b is not None:
                    channel_b.close()
            assert first["seq"] == 1 and first["payload"] == [1.0]
            assert second["seq"] == 2 and second["payload"] == [2.0, 3.0]
            # the two calls really were served by different processes
            assert first["pid"] != second["pid"]
            assert {first["pid"], second["pid"]} == \
                set(fleet.worker_pids())
