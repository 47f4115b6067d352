"""FleetStats: the seqlock shared-memory segment behind the fleet."""

import os
import struct
import time

import pytest

from repro.serving import FleetStats
from repro.serving.shm_stats import (_HEADER_FMT, _HEADER_SIZE, _SEQ_FMT,
                                     _SLOT_SIZE, MAGIC, STATE_DRAINING,
                                     STATE_READY, STATE_STOPPED, VERSION)


@pytest.fixture()
def stats():
    segment = FleetStats.create(3)
    yield segment
    segment.close()


class TestRoundTrip:
    def test_empty_slot_reads_none(self, stats):
        assert stats.read_slot(0) is None
        assert stats.read_all() == [None, None, None]

    def test_publish_then_read(self, stats):
        stats.writer(1).publish(
            pid=os.getpid(), generation=3, state=STATE_READY,
            requests_served=42, requests_shed=2, connections_accepted=7,
            connections_active=5, busy=2, queue_depth=1,
            max_concurrency=8, queue_limit=16, utilization=0.25,
            p95_service_s=0.004, port=8080)
        snap = stats.read_slot(1)
        assert snap.index == 1
        assert snap.pid == os.getpid()
        assert snap.generation == 3
        assert snap.state == STATE_READY
        assert snap.state_name == "ready"
        assert snap.requests_served == 42
        assert snap.requests_shed == 2
        assert snap.busy == 2
        assert snap.utilization == pytest.approx(0.25)
        assert snap.p95_service_s == pytest.approx(0.004)
        assert snap.port == 8080
        assert stats.read_slot(0) is None    # neighbours untouched

    def test_attach_sees_writes_from_the_creator(self, stats):
        stats.writer(0).publish(pid=123, generation=1, state=STATE_READY,
                                requests_served=9)
        attached = FleetStats.attach(stats.name)
        try:
            assert attached.workers == 3
            snap = attached.read_slot(0)
            assert snap.pid == 123 and snap.requests_served == 9
        finally:
            attached.close()
        # a non-owner close must not unlink: the creator still reads
        assert stats.read_slot(0).pid == 123

    def test_attach_rejects_foreign_segments(self):
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(create=True, size=256)
        try:
            with pytest.raises(ValueError, match="FleetStats"):
                FleetStats.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    @pytest.mark.parametrize("version,slot_size", [
        (VERSION - 1, 256),          # the previous, larger layout
        (VERSION, 256),              # current version, wrong slot size
    ])
    def test_attach_rejects_other_layouts(self, version, slot_size):
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(create=True,
                                         size=_HEADER_SIZE + slot_size)
        try:
            struct.pack_into(_HEADER_FMT, shm.buf, 0, MAGIC, version, 1,
                             slot_size, os.getpid(), time.monotonic())
            with pytest.raises(ValueError, match="FleetStats"):
                FleetStats.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_out_of_range_index_raises(self, stats):
        with pytest.raises(IndexError):
            stats.writer(3)
        with pytest.raises(IndexError):
            stats.read_slot(-1)


class TestSeqlock:
    def test_torn_write_is_never_surfaced(self, stats):
        # Simulate a writer dying mid-write: odd sequence number.  The
        # reader must refuse the slot rather than return torn data.
        stats.writer(0).publish(pid=1, generation=1, state=STATE_READY)
        off = _HEADER_SIZE + 0 * _SLOT_SIZE
        struct.pack_into(_SEQ_FMT, stats._shm.buf, off, 3)   # odd: in-write
        assert stats.read_slot(0) is None
        struct.pack_into(_SEQ_FMT, stats._shm.buf, off, 4)   # even again
        assert stats.read_slot(0) is not None

    def test_republish_overwrites_in_place(self, stats):
        writer = stats.writer(2)
        for served in (1, 2, 3):
            writer.publish(pid=7, generation=1, state=STATE_READY,
                           requests_served=served)
        assert stats.read_slot(2).requests_served == 3


class TestLiveness:
    def test_stale_heartbeat_is_dead(self, stats):
        writer = stats.writer(0)
        writer.publish(pid=1, generation=1, state=STATE_READY)
        assert stats.read_slot(0).is_live()
        writer.publish(pid=1, generation=1, state=STATE_READY,
                       heartbeat=time.monotonic() - 60.0)
        assert not stats.read_slot(0).is_live(stale_after_s=2.0)

    def test_stopped_state_is_dead_even_when_fresh(self, stats):
        stats.writer(0).publish(pid=1, generation=1, state=STATE_STOPPED)
        assert not stats.read_slot(0).is_live()

    def test_draining_still_counts_as_live(self, stats):
        stats.writer(0).publish(pid=1, generation=1, state=STATE_DRAINING)
        assert stats.read_slot(0).is_live()


class TestAggregate:
    def _publish_two(self, stats):
        stats.writer(0).publish(pid=1, generation=1, state=STATE_READY,
                                requests_served=10, busy=2, queue_depth=1,
                                max_concurrency=8, queue_limit=16,
                                utilization=0.25)
        stats.writer(1).publish(pid=2, generation=1, state=STATE_READY,
                                requests_served=5, busy=4, queue_depth=4,
                                max_concurrency=4, queue_limit=8,
                                utilization=1.0)

    def test_sums_and_capacity_weighted_load(self, stats):
        self._publish_two(stats)
        agg = stats.aggregate()
        assert agg["workers"] == 3
        assert agg["workers_live"] == 2
        assert agg["requests_served"] == 15
        assert agg["busy"] == 6
        # utilization weighted by pool size: (0.25*8 + 1.0*4) / 12
        assert agg["utilization"] == pytest.approx(0.5)
        # queue pressure over the fleet's whole queue capacity: 5 / 24
        assert agg["queue_pressure"] == pytest.approx(5 / 24)
        assert agg["load"] == pytest.approx(0.5 + 5 / 24)

    def test_stale_workers_drop_out_of_the_aggregate(self, stats):
        self._publish_two(stats)
        stats.writer(1).publish(pid=2, generation=1, state=STATE_READY,
                                heartbeat=time.monotonic() - 60.0)
        agg = stats.aggregate(stale_after_s=2.0)
        assert agg["workers_live"] == 1
        assert agg["requests_served"] == 10

    def test_empty_fleet_aggregates_to_zero_load(self, stats):
        agg = stats.aggregate()
        assert agg["workers_live"] == 0
        assert agg["load"] == 0.0


class TestPartialView:
    def test_excludes_the_caller_and_dead_slots(self, stats):
        stats.writer(0).publish(pid=1, generation=1, state=STATE_READY,
                                busy=2, queue_depth=1, max_concurrency=8,
                                queue_limit=16, utilization=0.25)
        stats.writer(1).publish(pid=2, generation=1, state=STATE_READY,
                                busy=4, queue_depth=4, max_concurrency=4,
                                queue_limit=8, utilization=1.0)
        view = stats.partial_view(exclude_index=0)
        assert view["workers_live"] == 1
        assert view["util_num"] == pytest.approx(4.0)   # 1.0 * 4
        assert view["util_den"] == pytest.approx(4.0)
        assert view["queue_depth"] == 4
        assert view["queue_limit"] == 8
        # excluding nobody picks up both
        both = stats.partial_view()
        assert both["workers_live"] == 2
        assert both["util_den"] == pytest.approx(12.0)
