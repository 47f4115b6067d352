"""Fleet soak: a 4-worker prefork fleet under a connection stampede
survives losing a worker mid-load and respawns back to full capacity.

Gated behind ``REPRO_SOAK=1`` (the CI ``fleet-soak`` job): forking four
server processes and stampeding them is too heavy for every tier-1 run.
"""

import os
import signal
import threading
import time

import pytest

from repro.http11 import HttpConnection, HttpError, Response
from repro.serving import FleetServer

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SOAK") != "1",
    reason="soak tests run only with REPRO_SOAK=1")

WORKERS = 4
CLIENTS = 12
CALLS_PER_CLIENT = 80


def echo_pid_factory(ctx):
    def handler(request):
        return Response(status=200,
                        body=b"%d:%s" % (os.getpid(), request.body))
    return handler


def test_stampede_survives_losing_a_worker():
    with FleetServer(echo_pid_factory, workers=WORKERS,
                     publish_interval_s=0.02,
                     respawn_backoff_s=0.05) as fleet:
        assert fleet.wait_ready(30.0), "fleet never became ready"
        successes = [0] * CLIENTS
        seen_pids = [set() for _ in range(CLIENTS)]
        errors = []

        def stampede(slot):
            for i in range(CALLS_PER_CLIENT):
                body = b"%d-%d" % (slot, i)
                # a fresh connection per call IS the stampede; calls
                # caught on the killed worker are retried, so the only
                # acceptable end state is every call answered
                for attempt in range(6):
                    try:
                        with HttpConnection(fleet.address) as conn:
                            reply = conn.post("/", body, "text/plain")
                        assert reply.status == 200
                        pid, echoed = reply.body.split(b":", 1)
                        assert echoed == body
                        seen_pids[slot].add(int(pid))
                        successes[slot] += 1
                        break
                    except (OSError, HttpError, AssertionError):
                        if attempt == 5:
                            errors.append((slot, i))
                        time.sleep(0.02 * (attempt + 1))

        threads = [threading.Thread(target=stampede, args=(slot,),
                                    daemon=True)
                   for slot in range(CLIENTS)]
        for thread in threads:
            thread.start()
        time.sleep(0.15)                     # stampede in full swing
        victim = fleet.kill_worker(1, signal.SIGKILL)
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads), "stampede hung"

        assert errors == []
        assert successes == [CALLS_PER_CLIENT] * CLIENTS
        # the load really was spread across processes
        all_pids = set().union(*seen_pids)
        assert len(all_pids) >= 2
        # recovery: the victim was replaced and the fleet is whole again
        # (poll — the supervisor reaps on its own 50ms tick)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if (fleet.respawns_total >= 1
                    and victim not in fleet.worker_pids()
                    and fleet.aggregate()["workers_live"] == WORKERS):
                break
            time.sleep(0.05)
        assert fleet.respawns_total >= 1
        assert victim not in fleet.worker_pids()
        assert fleet.aggregate()["workers_live"] == WORKERS
        assert fleet.wait_ready(30.0), "fleet never became ready again"
