"""Retry policy with an end-to-end deadline budget.

A :class:`RetryPolicy` answers three questions for every failed attempt:

* **May this failure be retried at all?**  Connect-phase failures (nothing
  on the wire) always may; mid-stream failures only when the caller marked
  the operation idempotent.  See :mod:`repro.reliability.errors`.
* **How long to wait?**  Exponential backoff with a cap, plus deterministic
  injectable jitter (a plain ``attempt -> seconds`` callable, so tests and
  simulations replay exactly), floored by any server/breaker supplied
  ``Retry-After``.
* **Is there budget left?**  The *deadline* is end-to-end: it covers every
  attempt **and** every backoff sleep.  A retry whose backoff would overrun
  the budget is not attempted; the call fails with
  :class:`~repro.reliability.errors.DeadlineExceeded` while there is still
  time for the caller to act on the failure.

:class:`RetryEngine` is the one place these answers are acted on.  It
binds a policy to its clock, circuit breaker (checked before *every*
attempt, so a call that outlives an open window completes instead of being
shed) and breaker→quality coupling once, and drives *rounds*: every
still-pending call of a batch is attempted together, each with its own
:class:`CallMeta`, and only the calls whose attempt failed go into the next
round — an answered call is never re-sent.  A single call is a round of
one, and its first attempt runs inline: when it succeeds, the engine
allocates nothing but the call's :class:`CallMeta`.

For channel calls the engine also does the two jobs every policed channel
needs: it stamps each attempt with ``X-Deadline-Ms`` (the budget remaining
at send time, see :mod:`repro.http11.deadline`) and turns a 503 reply
into :class:`~repro.reliability.errors.ServiceUnavailable`, whose
``Retry-After`` floors the backoff.  :class:`ReliableChannel
<repro.reliability.channel.ReliableChannel>` and the socket channels' own
``retry_policy=`` both run through it; :func:`call_with_policy` is the
round of one for an arbitrary callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..channel import BatchResult, ChannelReply
from ..clock import Clock, WallClock
from ..http11.deadline import with_deadline_header
from .errors import (CircuitOpen, DeadlineExceeded, ReliabilityError,
                     ServiceUnavailable, classify_failure)

#: Deterministic jitter: extra seconds of backoff for a given attempt number.
JitterFn = Callable[[int], float]

#: One attempt of one channel call: ``(body, content_type, headers) -> reply``.
SendFn = Callable[[Any, str, Optional[Dict[str, str]]], ChannelReply]

#: One round of a batch: ``(bodies, content_type, headers_list) -> results``,
#: one :class:`~repro.channel.BatchResult` per body, in order.
SendManyFn = Callable[[Sequence[Any], str, Sequence[Optional[Dict[str, str]]]],
                      List[BatchResult]]


@dataclass
class CallMeta:
    """What one policed call cost: surfaced by the SOAP/bin clients.

    ``faults`` lists the typed error class name of every failed attempt in
    order, so a caller (or test) can see exactly which injected fault each
    retry absorbed.  The engine builds one per call, positionally: the two
    fields it knows up front come first.
    """

    attempts: int = 0
    deadline_s: Optional[float] = None
    retried: bool = False
    elapsed_s: float = 0.0
    backoff_s: float = 0.0
    deadline_remaining_s: Optional[float] = None
    faults: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the call ultimately returned a reply."""
        return self.attempts > 0 and (not self.faults
                                      or len(self.faults) < self.attempts)


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry/deadline policy for one class of calls.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (1 = never retry).
    deadline_s:
        End-to-end budget per call, attempts + backoffs included.  ``None``
        means unbounded.
    call_timeout_s:
        Per-attempt timeout hint, applied by transports that can enforce it
        (socket timeouts, the fault injector's stall clock).
    backoff_initial_s / backoff_multiplier / backoff_max_s:
        Exponential backoff schedule: ``initial * multiplier**(n-1)`` capped
        at ``backoff_max_s`` before the n+1'th attempt.
    jitter:
        Optional deterministic jitter ``attempt -> seconds`` added to the
        backoff.  Injectable so simulations replay bit-for-bit; ``None``
        means no jitter at all (still deterministic).
    retry_non_idempotent:
        When True, mid-stream failures are retried even for calls not
        marked idempotent.  Off by default — double-executing a booking is
        worse than failing it.
    """

    max_attempts: int = 3
    deadline_s: Optional[float] = None
    call_timeout_s: Optional[float] = None
    backoff_initial_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 2.0
    jitter: Optional[JitterFn] = None
    retry_non_idempotent: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    # ------------------------------------------------------------------
    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait after the ``attempt``'th failure (1-based)."""
        base = min(self.backoff_initial_s
                   * self.backoff_multiplier ** (attempt - 1),
                   self.backoff_max_s)
        if self.jitter is not None:
            base += max(0.0, self.jitter(attempt))
        return base

    def may_retry(self, error: ReliabilityError, idempotent: bool) -> bool:
        """Is retrying ``error`` safe for this call?"""
        if isinstance(error, DeadlineExceeded):
            return False
        return (error.retry_safe or idempotent
                or self.retry_non_idempotent)


def reply_unavailable(reply: ChannelReply) -> ServiceUnavailable:
    """Build the typed 503 error, honoring a ``Retry-After`` header."""
    retry_after: Optional[float] = None
    for name, value in (reply.headers or {}).items():
        if name.lower() == "retry-after":
            try:
                retry_after = max(0.0, float(value))
            except ValueError:
                retry_after = None
            break
    return ServiceUnavailable("server answered 503 Service Unavailable",
                              retry_after_s=retry_after)


def one_by_one(send: SendFn) -> SendManyFn:
    """A round sender for a channel without a batch surface: the round's
    calls go out one after another, each failure kept to its own slot."""

    def send_many(bodies, content_type, headers_list):
        results = []
        for body, headers in zip(bodies, headers_list):
            try:
                results.append(BatchResult(
                    reply=send(body, content_type, headers)))
            except Exception as exc:  # noqa: BLE001 - classified per slot
                results.append(BatchResult(error=exc))
        return results

    return send_many


class _Batch:
    """The calls one engine run drives together, and where each stands."""

    __slots__ = ("send_many", "bodies", "content_type", "headers",
                 "replies", "start", "metas", "results")

    def __init__(self, send_many: SendManyFn, bodies: Sequence[Any],
                 content_type: str,
                 headers: Sequence[Optional[Dict[str, str]]],
                 replies: bool, start: float, metas: List[CallMeta]) -> None:
        self.send_many = send_many
        self.bodies = bodies
        self.content_type = content_type
        self.headers = headers
        #: outcomes are ChannelReplies: stamp deadlines, type 503s
        self.replies = replies
        self.start = start
        self.metas = metas
        self.results: List[Any] = [None] * len(bodies)


class RetryEngine:
    """A :class:`RetryPolicy` bound once to its clock, breaker, coupling
    and idempotency; drives channel calls, batches and plain callables.

    ``breaker`` (duck-typed :class:`~repro.reliability.breaker.CircuitBreaker`)
    is consulted before each attempt of each call and told about every
    outcome; ``coupling`` (duck-typed
    :class:`~repro.core.monitor.BreakerRttCoupling`) hears about failures
    and local rejections so the quality manager can degrade payloads.

    The typed error a call ultimately raises (or, in a batch, carries in
    its :class:`~repro.channel.BatchResult`) has ``attempts`` and
    the call's full :class:`CallMeta` on its ``meta`` attribute.
    """

    __slots__ = ("policy", "clock", "idempotent", "breaker", "coupling")

    def __init__(self, policy: RetryPolicy, clock: Optional[Clock] = None,
                 idempotent: bool = True, breaker: Optional[Any] = None,
                 coupling: Optional[Any] = None) -> None:
        self.policy = policy
        self.clock = clock if clock is not None else WallClock()
        self.idempotent = idempotent
        self.breaker = breaker
        self.coupling = coupling

    # ------------------------------------------------------------------
    # rounds of one: the first attempt runs inline
    # ------------------------------------------------------------------
    def call(self, send: SendFn, body: Any, content_type: str,
             headers: Optional[Dict[str, str]]
             ) -> Tuple[ChannelReply, CallMeta]:
        """One channel call: ``send`` under the policy; ``(reply, meta)``."""
        deadline_s = self.policy.deadline_s
        start = self.clock.now()
        meta = CallMeta(1, deadline_s)
        error = self._admit()
        if error is None:
            sent = headers
            if deadline_s is not None:
                sent = with_deadline_header(
                    headers, start + deadline_s - self.clock.now())
            try:
                reply = send(body, content_type, sent)
            except Exception as exc:  # noqa: BLE001 - classified here
                error = self._failed(classify_failure(exc))
            else:
                if reply.status != 503:
                    return reply, self._succeeded(meta, start)
                error = self._failed(reply_unavailable(reply))
        return self._retry_one(_Batch(one_by_one(send), [body], content_type,
                                      [headers], True, start, [meta]), error)

    def run(self, attempt_fn: Callable[[], Any]) -> Tuple[Any, CallMeta]:
        """One opaque attempt function under the policy: no headers to
        stamp, and its result is returned as is; ``(result, meta)``."""
        start = self.clock.now()
        meta = CallMeta(1, self.policy.deadline_s)
        error = self._admit()
        if error is None:
            try:
                result = attempt_fn()
            except Exception as exc:  # noqa: BLE001 - classified here
                error = self._failed(classify_failure(exc))
            else:
                return result, self._succeeded(meta, start)
        send_many = one_by_one(lambda *_: attempt_fn())
        return self._retry_one(_Batch(send_many, [None], "", [None], False,
                                      start, [meta]), error)

    def _retry_one(self, batch: _Batch,
                   error: ReliabilityError) -> Tuple[Any, CallMeta]:
        self._retry(batch, [(0, error)])
        outcome = batch.results[0]
        if outcome.error is not None:
            raise outcome.error
        return outcome.reply, outcome.meta

    # ------------------------------------------------------------------
    # rounds of N
    # ------------------------------------------------------------------
    def call_many(self, send_many: SendManyFn, bodies: Sequence[Any],
                  content_type: str,
                  headers_list: Sequence[Optional[Dict[str, str]]]
                  ) -> List[BatchResult]:
        """A batch: every round goes out through one ``send_many`` call,
        so the transport keeps its wire concurrency; one
        :class:`~repro.channel.BatchResult` per body, in order."""
        metas = [CallMeta(0, self.policy.deadline_s) for _ in bodies]
        batch = _Batch(send_many, bodies, content_type, headers_list, True,
                       self.clock.now(), metas)
        self._retry(batch, self._attempt(batch, range(len(bodies))))
        return batch.results

    def _attempt(self, batch: _Batch, pending: Sequence[int]
                 ) -> List[Tuple[int, ReliabilityError]]:
        """One round over ``pending``: answered calls land in the batch's
        results; returns the failed ones with their typed errors."""
        failed: List[Tuple[int, ReliabilityError]] = []
        sent: List[int] = []
        for index in pending:
            batch.metas[index].attempts += 1
            rejected = self._admit()
            if rejected is None:
                sent.append(index)
            else:
                failed.append((index, rejected))
        if not sent:
            return failed
        headers = [batch.headers[index] for index in sent]
        deadline_s = self.policy.deadline_s
        if batch.replies and deadline_s is not None:
            remaining = batch.start + deadline_s - self.clock.now()
            headers = [with_deadline_header(h, remaining) for h in headers]
        try:
            outcomes = batch.send_many([batch.bodies[i] for i in sent],
                                       batch.content_type, headers)
        except Exception as exc:  # noqa: BLE001 - the whole round failed
            outcomes = [BatchResult(error=exc)] * len(sent)
        for index, outcome in zip(sent, outcomes):
            if outcome.error is not None:
                error = classify_failure(outcome.error)
            elif batch.replies and outcome.reply.status == 503:
                error = reply_unavailable(outcome.reply)
            else:
                batch.results[index] = BatchResult(
                    reply=outcome.reply,
                    meta=self._succeeded(batch.metas[index], batch.start))
                continue
            failed.append((index, self._failed(error)))
        return failed

    def _retry(self, batch: _Batch,
               failed: List[Tuple[int, ReliabilityError]]) -> None:
        """Settle each round's failures — give up, or back off and go
        again — until every call has a result or an error."""
        policy = self.policy
        clock = self.clock
        deadline = (batch.start + policy.deadline_s
                    if policy.deadline_s is not None else None)
        while failed:
            pending: List[Tuple[int, ReliabilityError]] = []
            pause = 0.0
            for index, error in failed:
                meta = batch.metas[index]
                meta.faults.append(type(error).__name__)
                if (meta.attempts >= policy.max_attempts
                        or not policy.may_retry(error, self.idempotent)):
                    batch.results[index] = self._give_up(batch, index, error)
                    continue
                wait = policy.backoff_for(meta.attempts)
                if error.retry_after_s is not None:
                    wait = max(wait, error.retry_after_s)
                pause = max(pause, wait)
                pending.append((index, error))
            if not pending:
                return
            if deadline is not None and clock.now() + pause >= deadline:
                self._expire(batch, pending,
                             f"backoff of {pause:g}s would overrun the "
                             f"{policy.deadline_s:g}s deadline budget")
                return
            for index, _ in pending:
                batch.metas[index].retried = True
                batch.metas[index].backoff_s += pause
            clock.sleep(pause)
            if deadline is not None and clock.now() >= deadline:
                # only a real clock can oversleep the check above
                self._expire(batch, pending,
                             f"deadline budget of {policy.deadline_s:g}s "
                             f"exhausted while backing off")
                return
            failed = self._attempt(batch, [index for index, _ in pending])

    def _expire(self, batch: _Batch,
                pending: List[Tuple[int, ReliabilityError]],
                message: str) -> None:
        for index, cause in pending:
            error = DeadlineExceeded(message)
            error.__cause__ = cause
            batch.metas[index].faults.append(type(error).__name__)
            batch.results[index] = self._give_up(batch, index, error)

    # ------------------------------------------------------------------
    # per-attempt bookkeeping
    # ------------------------------------------------------------------
    def _admit(self) -> Optional[CircuitOpen]:
        """``None`` when the breaker lets an attempt out, else the typed
        local rejection (reported to the coupling)."""
        breaker = self.breaker
        if breaker is None or breaker.allow():
            return None
        if self.coupling is not None:
            self.coupling.call_rejected()
        return CircuitOpen("circuit breaker is open",
                           retry_after_s=breaker.cooldown_remaining())

    def _failed(self, error: ReliabilityError) -> ReliabilityError:
        if self.breaker is not None:
            self.breaker.record_failure()
        if self.coupling is not None:
            self.coupling.call_failed()
        return error

    def _succeeded(self, meta: CallMeta, start: float) -> CallMeta:
        if self.breaker is not None:
            self.breaker.record_success()
        now = self.clock.now()
        meta.elapsed_s = now - start
        if meta.deadline_s is not None:
            meta.deadline_remaining_s = start + meta.deadline_s - now
        return meta

    def _give_up(self, batch: _Batch, index: int,
                 error: ReliabilityError) -> BatchResult:
        meta = batch.metas[index]
        now = self.clock.now()
        meta.elapsed_s = now - batch.start
        if meta.deadline_s is not None:
            meta.deadline_remaining_s = max(
                0.0, batch.start + meta.deadline_s - now)
        error.attempts = meta.attempts
        error.meta = meta
        return BatchResult(error=error, meta=meta)


def call_with_policy(attempt_fn: Callable[[], Any],
                     policy: RetryPolicy,
                     clock: Optional[Clock] = None,
                     idempotent: bool = True,
                     breaker: Optional[Any] = None,
                     coupling: Optional[Any] = None) -> Tuple[Any, CallMeta]:
    """Run ``attempt_fn`` under ``policy``; returns ``(result, CallMeta)``.

    The round of one for a plain callable (see :meth:`RetryEngine.run`):
    ``attempt_fn`` performs one attempt and either returns a result or
    raises; low-level exceptions are classified into the typed taxonomy.
    """
    return RetryEngine(policy, clock, idempotent, breaker,
                       coupling).run(attempt_fn)
