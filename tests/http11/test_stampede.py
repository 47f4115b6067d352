"""Stampede tests: exact accounting under concurrent hammering.

Every request must get exactly one answer — 200 or 503 — and the server's
counters must add up exactly: no lost sheds, no double counts, monotonic
throughout.
"""

import threading
import time

from repro.http11 import HttpConnection, HttpServer, Response
from repro.serving import AdmissionController

THREADS = 12
CALLS_PER_THREAD = 8


def _hammer(server, results, keep_alive=True):
    """Each thread: CALLS_PER_THREAD requests, recording each status."""

    def worker(slot):
        mine = []
        if keep_alive:
            with HttpConnection(server.address) as conn:
                for _ in range(CALLS_PER_THREAD):
                    mine.append(conn.post("/", b"x", "text/plain").status)
        else:
            for _ in range(CALLS_PER_THREAD):
                with HttpConnection(server.address) as conn:
                    mine.append(conn.post("/", b"x", "text/plain").status)
        results[slot] = mine

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "stampede worker hung"


class TestConnectionCapStampede:
    def test_exact_accounting_of_accepts_and_rejections(self):
        def handler(request):
            time.sleep(0.002)
            return Response(status=200, body=b"ok")

        total = THREADS * CALLS_PER_THREAD
        with HttpServer(handler, max_connections=3,
                        retry_after_s=0.01) as server:
            results = [None] * THREADS
            _hammer(server, results, keep_alive=False)
            statuses = [s for chunk in results for s in chunk]
            oks = statuses.count(200)
            sheds = statuses.count(503)
            # every request got exactly one answer
            assert oks + sheds == total
            assert set(statuses) <= {200, 503}
            # connection-level accounting is exact: every connect was
            # counted, every 503 corresponds to one rejected connection
            assert server.connections_accepted == total
            assert server.connections_rejected == sheds
            assert server.requests_served == oks

    def test_uncapped_server_serves_everything(self):
        with HttpServer(lambda r: Response(status=200)) as server:
            results = [None] * THREADS
            _hammer(server, results, keep_alive=False)
            statuses = [s for chunk in results for s in chunk]
            assert statuses == [200] * (THREADS * CALLS_PER_THREAD)
            assert server.connections_rejected == 0


class TestAdmissionStampede:
    def test_no_lost_503s_and_monotonic_counters(self):
        admission = AdmissionController(max_concurrency=2, queue_limit=2,
                                        retry_after_s=0.01)

        def handler(request):
            time.sleep(0.002)
            return Response(status=200, body=b"ok")

        total = THREADS * CALLS_PER_THREAD
        observations = []
        stop = threading.Event()

        def watch_counters():
            while not stop.is_set():
                m = admission.metrics
                observations.append((m.admitted, m.shed_total))
                time.sleep(0.002)

        watcher = threading.Thread(target=watch_counters, daemon=True)
        with HttpServer(handler, admission=admission) as server:
            watcher.start()
            results = [None] * THREADS
            _hammer(server, results, keep_alive=True)
            stop.set()
            watcher.join(timeout=5)
            statuses = [s for chunk in results for s in chunk]
            oks = statuses.count(200)
            sheds = statuses.count(503)
            # exact: every request was either admitted+completed or shed
            assert oks + sheds == total
            assert admission.metrics.admitted == oks
            assert admission.metrics.completed == oks
            assert admission.metrics.shed_total == sheds
            assert server.requests_served == total
            assert server.requests_shed == sheds
        # counters only ever went up
        for (a1, s1), (a2, s2) in zip(observations, observations[1:]):
            assert a2 >= a1
            assert s2 >= s1

    def test_displaced_waiters_get_their_503(self):
        # A full queue of undated waiters displaces its oldest waiter,
        # which unblocks with a shed — its client must still receive a
        # real 503, not a hang or reset.
        admission = AdmissionController(max_concurrency=1, queue_limit=1,
                                        retry_after_s=0.01)

        def handler(request):
            time.sleep(0.01)
            return Response(status=200)

        with HttpServer(handler, admission=admission) as server:
            results = [None] * THREADS
            _hammer(server, results, keep_alive=True)
            statuses = [s for chunk in results for s in chunk]
            assert len(statuses) == THREADS * CALLS_PER_THREAD
            assert set(statuses) <= {200, 503}
            assert statuses.count(200) == admission.metrics.completed
