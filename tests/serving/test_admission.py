"""AdmissionController: permits, earliest-deadline-first queue shedding,
load metrics."""

import threading

import pytest

from repro.netsim import VirtualClock
from repro.serving import (SHED_DEADLINE_EXPIRED, SHED_DISPLACED,
                           SHED_QUEUE_FULL, AdmissionController)


class TestBasics:
    def test_grant_and_release(self):
        ac = AdmissionController(max_concurrency=2, queue_limit=4)
        d1 = ac.acquire()
        d2 = ac.acquire()
        assert d1.admitted and d2.admitted
        assert ac.busy == 2
        ac.release(d1.ticket)
        ac.release(d2.ticket)
        assert ac.busy == 0
        assert ac.metrics.admitted == 2
        assert ac.metrics.completed == 2
        assert ac.metrics.shed_total == 0

    def test_zero_queue_sheds_queue_full(self):
        ac = AdmissionController(max_concurrency=1, queue_limit=0)
        d1 = ac.acquire()
        d2 = ac.acquire()  # would block, but there is nowhere to wait
        assert not d2.admitted
        assert d2.reason == SHED_QUEUE_FULL
        ac.release(d1.ticket)

    def test_expired_deadline_refused_at_door(self):
        clock = VirtualClock(start=100.0)
        ac = AdmissionController(max_concurrency=4, clock=clock)
        decision = ac.acquire(deadline=99.0)
        assert not decision.admitted
        assert decision.reason == SHED_DEADLINE_EXPIRED
        assert ac.metrics.shed == {SHED_DEADLINE_EXPIRED: 1}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrency=0)
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=-1)


class TestQueueing:
    """Blocking waits need real threads; deadlines stay far away or near
    zero so nothing here depends on scheduler timing."""

    def _queue_one(self, ac, results, **kwargs):
        def work():
            results.append(ac.acquire(**kwargs))
        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        return thread

    def _wait_for_queue(self, ac, depth):
        for _ in range(2000):
            if ac.queue_depth >= depth:
                return
            threading.Event().wait(0.001)
        raise AssertionError(f"queue never reached depth {depth}")

    def test_new_arrival_with_least_slack_is_shed(self):
        # A full queue of two: the arrival is tighter than every waiter,
        # so it is the one shed, and both waiters keep their places.
        ac = AdmissionController(max_concurrency=1, queue_limit=2)
        now = ac.clock.now()
        holder = ac.acquire()
        results = []
        waiters = [self._queue_one(ac, results, deadline=now + 50.0),
                   self._queue_one(ac, results, deadline=now + 60.0)]
        self._wait_for_queue(ac, 2)
        overflow = ac.acquire(deadline=now + 5.0)
        assert not overflow.admitted
        assert overflow.reason == SHED_QUEUE_FULL
        assert ac.queue_depth == 2
        for waiter in waiters:           # each waiter gets its permit
            ac.release(holder.ticket)
            waiter.join(timeout=5)
            assert not waiter.is_alive()
            holder = results[-1]
            assert holder.admitted
        ac.release(holder.ticket)

    def test_undated_full_queue_displaces_the_oldest_waiter(self):
        ac = AdmissionController(max_concurrency=1, queue_limit=1)
        holder = ac.acquire()
        results = []
        oldest = self._queue_one(ac, results)
        self._wait_for_queue(ac, 1)
        fresh = []
        fresh_thread = self._queue_one(ac, fresh)
        oldest.join(timeout=5)           # displaced -> unblocked with a shed
        assert results[0].admitted is False
        assert results[0].reason == SHED_DISPLACED
        ac.release(holder.ticket)
        fresh_thread.join(timeout=5)
        assert fresh[0].admitted
        ac.release(fresh[0].ticket)

    def test_deadline_policy_displaces_the_tightest_waiter(self):
        # The waiter with the least remaining budget is the most likely to
        # be abandoned by its client; it goes first.
        ac = AdmissionController(max_concurrency=1, queue_limit=1)
        now = ac.clock.now()
        holder = ac.acquire()
        tight = []
        tight_thread = self._queue_one(ac, tight, deadline=now + 5.0)
        self._wait_for_queue(ac, 1)
        roomy = []
        roomy_thread = self._queue_one(ac, roomy, deadline=now + 50.0)
        tight_thread.join(timeout=5)
        assert tight[0].admitted is False
        assert tight[0].reason == SHED_DISPLACED
        ac.release(holder.ticket)
        roomy_thread.join(timeout=5)
        assert roomy[0].admitted
        ac.release(roomy[0].ticket)

    def test_deadline_policy_sheds_tight_new_arrival(self):
        ac = AdmissionController(max_concurrency=1, queue_limit=1)
        now = ac.clock.now()
        holder = ac.acquire()
        roomy = []
        roomy_thread = self._queue_one(ac, roomy, deadline=now + 50.0)
        self._wait_for_queue(ac, 1)
        tight = ac.acquire(deadline=now + 5.0)
        assert not tight.admitted        # new arrival had the least slack
        assert tight.reason == SHED_QUEUE_FULL
        ac.release(holder.ticket)
        roomy_thread.join(timeout=5)
        assert roomy[0].admitted
        ac.release(roomy[0].ticket)

    def test_queued_waiter_aborted_at_its_deadline(self):
        ac = AdmissionController(max_concurrency=1, queue_limit=4)
        holder = ac.acquire()
        results = []
        thread = self._queue_one(ac, results,
                                 deadline=ac.clock.now() + 0.05)
        thread.join(timeout=5)
        assert results[0].admitted is False
        assert results[0].reason == SHED_DEADLINE_EXPIRED
        ac.release(holder.ticket)

    def test_release_grants_to_earliest_deadline(self):
        ac = AdmissionController(max_concurrency=1, queue_limit=4)
        now = ac.clock.now()
        holder = ac.acquire()
        late, early = [], []
        late_thread = self._queue_one(ac, late, deadline=now + 60.0)
        self._wait_for_queue(ac, 1)
        early_thread = self._queue_one(ac, early, deadline=now + 30.0)
        self._wait_for_queue(ac, 2)
        ac.release(holder.ticket)
        early_thread.join(timeout=5)     # EDF: the tighter one is served
        assert early[0].admitted
        assert ac.queue_depth == 1
        ac.release(early[0].ticket)
        late_thread.join(timeout=5)
        assert late[0].admitted
        ac.release(late[0].ticket)


class TestMetrics:
    def test_utilization_on_virtual_clock(self):
        clock = VirtualClock()
        ac = AdmissionController(max_concurrency=2, queue_limit=0,
                                 utilization_window_s=1.0, clock=clock)
        d = ac.acquire()
        clock.advance(0.5)
        ac.release(d.ticket)
        # one of two workers busy half the window
        assert ac.utilization() == pytest.approx(0.25)
        clock.advance(2.0)               # interval ages out of the window
        assert ac.utilization() == pytest.approx(0.0)

    def test_inflight_work_counts_toward_utilization(self):
        clock = VirtualClock()
        ac = AdmissionController(max_concurrency=1, queue_limit=0,
                                 utilization_window_s=1.0, clock=clock)
        d = ac.acquire()
        clock.advance(0.8)
        assert ac.utilization() == pytest.approx(0.8)
        ac.release(d.ticket)

    def test_p95_service_time(self):
        clock = VirtualClock()
        ac = AdmissionController(max_concurrency=1, queue_limit=0,
                                 clock=clock)
        for duration in [0.01 * i for i in range(1, 21)]:
            d = ac.acquire()
            clock.advance(duration)
            ac.release(d.ticket)
        # 20 samples 0.01..0.20: the p95 index lands on the 19th (0.19)
        assert ac.p95_service_time() == pytest.approx(0.19)

    def test_snapshot_is_coherent(self):
        clock = VirtualClock()
        ac = AdmissionController(max_concurrency=2, queue_limit=8,
                                 clock=clock)
        d = ac.acquire()
        snap = ac.snapshot()
        assert snap["busy"] == 1
        assert snap["queue_depth"] == 0
        assert snap["queue_limit"] == 8
        assert snap["max_concurrency"] == 2
        assert snap["admitted"] == 1
        assert snap["completed"] == 0
        assert snap["shed_total"] == 0
        ac.release(d.ticket)
        assert ac.snapshot()["completed"] == 1

    def test_counters_are_monotonic_and_exact(self):
        clock = VirtualClock()
        ac = AdmissionController(max_concurrency=1, queue_limit=0,
                                 clock=clock)
        outcomes = []
        for i in range(50):
            d = ac.acquire()
            outcomes.append(d.admitted)
            if d.admitted:
                ac.release(d.ticket)
        assert all(outcomes)             # sequential: all admitted
        d1 = ac.acquire()
        d2 = ac.acquire()                # no free permit, nowhere to wait
        assert not d2.admitted
        assert d2.reason == SHED_QUEUE_FULL
        ac.release(d1.ticket)
        m = ac.metrics
        assert m.admitted == 51
        assert m.completed == 51
        assert m.shed_total == 1
        assert m.admitted + m.shed_total == 52
