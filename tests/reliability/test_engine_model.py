"""Model check of the retry engine (``repro.reliability.policy.RetryEngine``).

Hypothesis scripts every attempt of every call — ok, refused before any
byte was written, reset after the request was written, a 503 carrying
``Retry-After``, a read timeout — plus pipelines that break after an
answered prefix, breaker rejections, idempotency, ``max_attempts`` and
deadline budgets, all on a virtual clock.  The engine runs the script
through each of its entry points (``ReliableChannel.call_many`` for rounds
of 1–8 calls; ``ReliableChannel.call`` and ``call_with_policy`` for rounds
of one) and must agree exactly with :func:`reference`, a direct reading of
the policy's rules written here, on:

* each call's outcome (reply, or the typed error's class);
* each call's ``CallMeta``: attempts, faults, retried, backoff and
  deadline headroom;
* what the breaker was told (successes, failures, admissions asked);
* every request that went on the wire, round by round, with the
  ``X-Deadline-Ms`` it carried — so an answered call is never re-sent.

``REPRO_SOAK=1`` (the CI ``fault-soak`` job) runs ten times the examples.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import VirtualClock
from repro.reliability import (ReliableChannel, RetryPolicy,
                               call_with_policy, mark_bytes_written)
from repro.reliability.errors import ServiceUnavailable
from repro.transport import BatchResult, Channel, ChannelReply

EXAMPLES = 200 * (10 if os.environ.get("REPRO_SOAK") == "1" else 1)

#: Virtual seconds one round (or one single call) spends on the wire.
ROUND_COST = 0.01

OK, REFUSED, RESET, UNAVAILABLE, TIMEOUT = (
    "ok", "refused", "reset", "unavailable", "timeout")

#: Scripted outcome -> (typed error class name, resendable whatever the
#: idempotency); ``None`` for a good reply.
TYPED = {OK: None, REFUSED: ("ConnectFailed", True),
         RESET: ("ResetMidStream", False),
         UNAVAILABLE: ("ServiceUnavailable", True),
         TIMEOUT: ("StalledRead", False)}


# ----------------------------------------------------------------------
# the scripted world
# ----------------------------------------------------------------------
class Script:
    """Everything the world does, fixed up front: per-call attempt
    outcomes, per-round pipeline breaks and per-admission breaker
    answers."""

    def __init__(self, outcomes, breaks, rejections, retry_after_s,
                 cooldown_s):
        self.outcomes = [list(o) for o in outcomes]
        self.breaks = list(breaks)
        self.rejections = list(rejections)
        self.retry_after_s = retry_after_s
        self.cooldown_s = cooldown_s

    def __repr__(self):
        return (f"Script({self.outcomes!r}, {self.breaks!r}, "
                f"{self.rejections!r}, {self.retry_after_s!r}, "
                f"{self.cooldown_s!r})")

    def next_outcome(self, call):
        queue = self.outcomes[call]
        return queue.pop(0) if queue else OK

    def next_break(self):
        return self.breaks.pop(0) if self.breaks else None

    def next_rejection(self):
        return self.rejections.pop(0) if self.rejections else False


class CountingBreaker:
    """Duck-typed breaker: admissions follow the script, outcomes are
    counted."""

    def __init__(self, script):
        self.script = script
        self.asked = self.successes = self.failures = 0

    def allow(self):
        self.asked += 1
        return not self.script.next_rejection()

    def cooldown_remaining(self):
        return self.script.cooldown_s

    def record_success(self):
        self.successes += 1

    def record_failure(self):
        self.failures += 1


def _raise_for(outcome):
    if outcome == REFUSED:
        raise mark_bytes_written(ConnectionRefusedError("refused"), False)
    if outcome == RESET:
        raise mark_bytes_written(ConnectionResetError("reset"), True)
    raise mark_bytes_written(TimeoutError("stalled"), True)


class ScriptedChannel(Channel):
    """A transport whose every answer comes from the script.  Bodies are
    call numbers; ``wire`` logs each round as ``[(call, deadline_ms)]``."""

    def __init__(self, script, clock):
        self.script = script
        self.clock = clock
        self.wire = []
        self.rounds = 0
        #: calls that got a good reply, and any of them sent again
        self.answered = set()
        self.resent = set()

    def _send(self, calls, headers_list):
        self.rounds += 1
        self.resent |= self.answered.intersection(calls)
        self.wire.append([(call, (headers or {}).get("X-Deadline-Ms"))
                          for call, headers in zip(calls, headers_list)])
        self.clock.advance(ROUND_COST)

    def _answer(self, call, outcome):
        if outcome == OK:
            self.answered.add(call)
            return ChannelReply(body=b"%d" % call)
        if outcome == UNAVAILABLE:
            return ChannelReply(
                body=b"shed", status=503,
                headers={"Retry-After": f"{self.script.retry_after_s:g}"})
        _raise_for(outcome)

    def call(self, body, content_type, headers=None):
        self._send([body], [headers])
        return self._answer(body, self.script.next_outcome(body))

    def call_many(self, bodies, content_type, headers=None):
        self._send(bodies, headers)
        cut = self.script.next_break()
        results = []
        for position, call in enumerate(bodies):
            if cut is not None and position >= cut:
                # the pipeline broke: the rest of the round shares it
                results.append(BatchResult(error=mark_bytes_written(
                    ConnectionResetError("pipeline broke"), True)))
                continue
            try:
                results.append(BatchResult(reply=self._answer(
                    call, self.script.next_outcome(call))))
            except Exception as exc:  # noqa: BLE001 - scripted
                results.append(BatchResult(error=exc))
        return results


# ----------------------------------------------------------------------
# the reference model
# ----------------------------------------------------------------------
def reference(script, n, policy, idempotent, batched):
    """What the policy's rules say happens, computed round by round."""
    now = 0.0
    deadline = policy.deadline_s
    metas = [dict(attempts=0, faults=[], retried=False, backoff_s=0.0,
                  deadline_remaining_s=None) for _ in range(n)]
    outcome = [None] * n
    wire = []
    breaker = dict(asked=0, successes=0, failures=0)
    pending = list(range(n))

    def settle(call, result):
        outcome[call] = result
        if deadline is not None:
            left = deadline - now
            metas[call]["deadline_remaining_s"] = (
                left if result == "reply" else max(0.0, left))

    while pending:
        failed = []            # (call, error name, retry-safe, retry-after)
        sent = []
        for call in pending:
            metas[call]["attempts"] += 1
            breaker["asked"] += 1
            if script.next_rejection():
                failed.append((call, "CircuitOpen", True, script.cooldown_s))
            else:
                sent.append(call)
        if sent:
            stamp = (None if deadline is None
                     else str(max(0, int((deadline - now) * 1000.0))))
            cut = script.next_break() if batched else None
            if batched:
                wire.append([(call, stamp) for call in sent])
            else:
                wire.extend([[(call, stamp)] for call in sent])
            now += ROUND_COST * (1 if batched else len(sent))
            for position, call in enumerate(sent):
                if cut is not None and position >= cut:
                    kind = RESET
                else:
                    kind = script.next_outcome(call)
                if TYPED[kind] is None:
                    breaker["successes"] += 1
                    settle(call, "reply")
                    continue
                breaker["failures"] += 1
                name, safe = TYPED[kind]
                failed.append((call, name, safe,
                               script.retry_after_s if kind == UNAVAILABLE
                               else None))
        pending, pause = [], 0.0
        for call, name, safe, retry_after in failed:
            meta = metas[call]
            meta["faults"].append(name)
            resendable = safe or idempotent or policy.retry_non_idempotent
            if meta["attempts"] >= policy.max_attempts or not resendable:
                settle(call, name)
                continue
            wait = min(policy.backoff_initial_s
                       * policy.backoff_multiplier ** (meta["attempts"] - 1),
                       policy.backoff_max_s)
            if retry_after is not None:
                wait = max(wait, retry_after)
            pause = max(pause, wait)
            pending.append(call)
        if pending and deadline is not None and now + pause >= deadline:
            for call in pending:
                metas[call]["faults"].append("DeadlineExceeded")
                settle(call, "DeadlineExceeded")
            pending = []
        for call in pending:
            metas[call]["retried"] = True
            metas[call]["backoff_s"] += pause
        now += pause
    return outcome, metas, breaker, wire


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_outcome = st.sampled_from([OK, REFUSED, RESET, UNAVAILABLE, TIMEOUT])


@st.composite
def _case(draw):
    n = draw(st.integers(1, 8))
    entry = draw(st.sampled_from(["call_many", "call", "call_with_policy"])
                 if n == 1 else st.just("call_many"))
    script = Script(
        outcomes=draw(st.lists(st.lists(_outcome, max_size=4),
                               min_size=n, max_size=n)),
        breaks=draw(st.lists(st.none() | st.integers(0, 7), max_size=4)),
        rejections=draw(st.lists(st.booleans(), max_size=6)),
        retry_after_s=draw(st.sampled_from([0.0, 0.02, 0.3])),
        cooldown_s=draw(st.sampled_from([0.0, 0.05])))
    policy = RetryPolicy(
        max_attempts=draw(st.integers(1, 4)),
        deadline_s=draw(st.sampled_from([None, 0.05, 0.2, 1.0])),
        backoff_initial_s=draw(st.sampled_from([0.0, 0.01, 0.04])),
        backoff_multiplier=2.0, backoff_max_s=0.1,
        retry_non_idempotent=draw(st.booleans()))
    return entry, n, script, policy, draw(st.booleans())


def _mirror(script):
    return Script(script.outcomes, script.breaks, script.rejections,
                  script.retry_after_s, script.cooldown_s)


def _run(entry, n, script, policy, idempotent):
    """Drive the engine through ``entry``; returns what the model checks."""
    clock = VirtualClock()
    breaker = CountingBreaker(script)
    inner = ScriptedChannel(script, clock)
    if entry == "call_with_policy":
        def attempt():
            reply = inner.call(0, "t", None)
            if reply.status == 503:
                raise ServiceUnavailable("503",
                                         retry_after_s=script.retry_after_s)
            return reply
        try:
            reply, meta = call_with_policy(attempt, policy, clock=clock,
                                           idempotent=idempotent,
                                           breaker=breaker)
            results = [BatchResult(reply=reply, meta=meta)]
        except Exception as exc:  # noqa: BLE001 - typed, carries meta
            results = [BatchResult(error=exc, meta=exc.meta)]
    else:
        channel = ReliableChannel(inner, policy=policy, breaker=breaker,
                                  clock=clock, idempotent=idempotent)
        if entry == "call_many":
            results = channel.call_many(list(range(n)), "t")
            assert channel.last_calls == [r.meta for r in results]
        else:
            try:
                results = [BatchResult(reply=channel.call(0, "t"),
                                       meta=channel.last_call)]
            except Exception as exc:  # noqa: BLE001 - typed, carries meta
                assert exc.meta is channel.last_call
                results = [BatchResult(error=exc, meta=exc.meta)]
    return results, breaker, inner


@settings(max_examples=EXAMPLES, deadline=None)
@given(_case())
def test_engine_agrees_with_the_model(case):
    entry, n, script, policy, idempotent = case
    expected = reference(_mirror(script), n, policy, idempotent,
                         batched=entry == "call_many")
    want_outcome, want_metas, want_breaker, want_wire = expected
    results, breaker, inner = _run(entry, n, script, policy, idempotent)

    assert len(results) == n
    for call, (result, want, meta) in enumerate(
            zip(results, want_outcome, want_metas)):
        if want == "reply":
            assert result.ok and result.reply.body == b"%d" % call
        else:
            assert type(result.error).__name__ == want
            assert result.error.meta is result.meta
            assert result.error.attempts == meta["attempts"]
        got = result.meta
        assert got.attempts == meta["attempts"]
        assert got.faults == meta["faults"]
        assert got.retried == meta["retried"]
        assert got.backoff_s == pytest.approx(meta["backoff_s"])
        if meta["deadline_remaining_s"] is None:
            assert got.deadline_remaining_s is None
        else:
            assert got.deadline_remaining_s == pytest.approx(
                meta["deadline_remaining_s"])
    assert (breaker.asked, breaker.successes, breaker.failures) == (
        want_breaker["asked"], want_breaker["successes"],
        want_breaker["failures"])
    if entry == "call_with_policy":
        # an opaque attempt carries no headers to stamp
        want_wire = [[(call, None) for call, _ in sent] for sent in want_wire]
    assert inner.wire == want_wire
    assert inner.resent == set(), "an answered call was re-sent"
    if entry == "call_many":
        assert inner.rounds == len(want_wire)   # one call_many per round


def test_model_sees_a_retry():
    """Guard against a vacuous model: a refused first attempt of one call
    is retried once, on the wire, with a shrinking budget."""
    script = Script([[REFUSED]], [], [], 0.0, 0.0)
    policy = RetryPolicy(max_attempts=2, deadline_s=1.0,
                         backoff_initial_s=0.04)
    outcome, metas, breaker, wire = reference(
        _mirror(script), 1, policy, True, batched=True)
    assert outcome == ["reply"]
    assert metas[0]["faults"] == ["ConnectFailed"]
    assert wire == [[(0, "1000")], [(0, "950")]]
    results, _, inner = _run("call_many", 1, script, policy, True)
    assert inner.wire == wire and results[0].ok
