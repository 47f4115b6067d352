"""The X-Deadline-Ms contract: rendering, parsing, per-attempt shrinking."""

import pytest

from repro.netsim import VirtualClock
from repro.reliability import ReliableChannel, RetryPolicy
from repro.http11.deadline import (HEADER_DEADLINE_MS, HEADER_SEND_TIMESTAMP,
                                   deadline_from_headers,
                                   deadline_header_value,
                                   with_deadline_header)
from repro.transport import ChannelReply


class TestHeaderRendering:
    def test_value_is_integer_milliseconds(self):
        assert deadline_header_value(1.5) == "1500"
        assert deadline_header_value(0.0301) == "30"

    def test_exhausted_budget_floors_at_zero(self):
        assert deadline_header_value(0.0) == "0"
        assert deadline_header_value(-3.0) == "0"

    def test_with_deadline_header_copies(self):
        original = {"X-Other": "1"}
        stamped = with_deadline_header(original, 0.25)
        assert stamped[HEADER_DEADLINE_MS] == "250"
        assert stamped["X-Other"] == "1"
        assert HEADER_DEADLINE_MS not in original


class TestHeaderParsing:
    def test_absent_header_means_unbounded(self):
        assert deadline_from_headers({}, now=5.0) is None

    def test_garbled_header_means_unbounded(self):
        headers = {HEADER_DEADLINE_MS: "soon-ish"}
        assert deadline_from_headers(headers, now=5.0) is None

    def test_unsynced_assumes_budget_intact_on_arrival(self):
        headers = {HEADER_DEADLINE_MS: "200"}
        assert deadline_from_headers(headers, now=10.0) == \
            pytest.approx(10.2)

    def test_case_insensitive_lookup(self):
        headers = {"x-deadline-ms": "100"}
        assert deadline_from_headers(headers, now=1.0) == pytest.approx(1.1)

    def test_zero_budget_is_already_expired(self):
        headers = {HEADER_DEADLINE_MS: "0"}
        deadline = deadline_from_headers(headers, now=7.0)
        assert deadline == pytest.approx(7.0)

    def test_synced_clock_consumes_transit_time(self):
        # Sent at t=10 with 200ms of budget; arrived at t=10.15 -> only
        # 50ms left, and the absolute deadline is sent_at + budget.
        headers = {HEADER_DEADLINE_MS: "200",
                   HEADER_SEND_TIMESTAMP: "10.0"}
        deadline = deadline_from_headers(headers, now=10.15,
                                         assume_synced_clock=True)
        assert deadline == pytest.approx(10.2)

    def test_synced_clock_detects_expired_on_arrival(self):
        headers = {HEADER_DEADLINE_MS: "100",
                   HEADER_SEND_TIMESTAMP: "10.0"}
        deadline = deadline_from_headers(headers, now=10.5,
                                         assume_synced_clock=True)
        assert deadline < 10.5           # budget drained in transit

    def test_untrustworthy_stamp_falls_back_to_arrival(self):
        # A stamp from the future or from hours ago is an unsynced clock;
        # fall back to the conservative arrival-based deadline.
        future = {HEADER_DEADLINE_MS: "100", HEADER_SEND_TIMESTAMP: "999.0"}
        assert deadline_from_headers(future, now=10.0,
                                     assume_synced_clock=True) == \
            pytest.approx(10.1)
        stale = {HEADER_DEADLINE_MS: "100", HEADER_SEND_TIMESTAMP: "1.0"}
        assert deadline_from_headers(stale, now=9999.0,
                                     assume_synced_clock=True) == \
            pytest.approx(9999.1)


class _RecordingChannel:
    """Fails with 503 until ``succeed_after`` attempts, recording headers."""

    def __init__(self, clock, succeed_after=3, attempt_cost_s=0.2):
        self.clock = clock
        self.succeed_after = succeed_after
        self.attempt_cost_s = attempt_cost_s
        self.seen = []

    def call(self, body, content_type, headers=None):
        self.seen.append(dict(headers or {}))
        self.clock.advance(self.attempt_cost_s)
        if len(self.seen) < self.succeed_after:
            return ChannelReply(body=b"busy", content_type="text/plain",
                                status=503, headers={"Retry-After": "0"})
        return ChannelReply(body=b"ok", content_type="text/plain")

    def close(self):
        pass


class TestPerAttemptPropagation:
    def test_retries_carry_a_shrinking_budget(self):
        clock = VirtualClock()
        inner = _RecordingChannel(clock, succeed_after=3, attempt_cost_s=0.2)
        channel = ReliableChannel(
            inner, policy=RetryPolicy(max_attempts=5, deadline_s=2.0,
                                      backoff_initial_s=0.1),
            clock=clock)
        reply = channel.call(b"x", "text/plain")
        assert reply.ok
        budgets = [int(h[HEADER_DEADLINE_MS]) for h in inner.seen]
        assert len(budgets) == 3
        assert budgets[0] == 2000        # full budget on the first attempt
        assert budgets[0] > budgets[1] > budgets[2]

    def test_no_deadline_no_header(self):
        clock = VirtualClock()
        inner = _RecordingChannel(clock, succeed_after=1)
        channel = ReliableChannel(
            inner, policy=RetryPolicy(max_attempts=2, deadline_s=None),
            clock=clock)
        channel.call(b"x", "text/plain")
        assert HEADER_DEADLINE_MS not in inner.seen[0]

    def test_caller_headers_survive_stamping(self):
        clock = VirtualClock()
        inner = _RecordingChannel(clock, succeed_after=1)
        channel = ReliableChannel(
            inner, policy=RetryPolicy(max_attempts=1, deadline_s=1.0),
            clock=clock)
        channel.call(b"x", "text/plain", headers={"X-App": "v"})
        assert inner.seen[0]["X-App"] == "v"
        assert inner.seen[0][HEADER_DEADLINE_MS] == "1000"
