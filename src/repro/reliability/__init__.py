"""Client-side reliability: typed faults, deadline-budgeted retries,
fault injection and circuit breaking.

The paper's quality loop adapts to links that get *slow*; this package
extends the same adaptation loop to links (and servers) that *break*.

* :mod:`~repro.reliability.errors` — the typed failure taxonomy and the
  classifier that maps annotated low-level exceptions onto it;
* :mod:`~repro.reliability.policy` — :class:`RetryPolicy` (per-call
  timeout, end-to-end deadline budget, deterministic jitter, idempotency
  aware retries) and :class:`RetryEngine`, the one round-based engine
  every policed call runs through;
* :mod:`~repro.reliability.breaker` — the closed→open→half-open
  :class:`CircuitBreaker`;
* :mod:`~repro.reliability.faults` — scripted, clock-charged fault
  injection for real-socket and simulated channels;
* :mod:`~repro.reliability.channel` — :class:`ReliableChannel`, the
  wrapper gluing it all onto any transport.

The breaker side of the loop lives in :class:`repro.core.monitor.BreakerRttCoupling`:
an open breaker is fed into the quality manager as worst-interval RTT, so
the existing quality handlers shed payload during outages and recover after.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "breaker": ["CircuitBreaker", "StateListener", "CLOSED", "OPEN",
                "HALF_OPEN"],
    "channel": ["ReliableChannel"],
    "errors": ["ReliabilityError", "ConnectFailed", "CallTimeout",
               "StalledRead", "ResetMidStream", "TruncatedReply",
               "TransportFailure", "ServiceUnavailable", "CircuitOpen",
               "DeadlineExceeded", "classify_failure", "mark_bytes_written"],
    "faults": ["FaultKind", "FaultWindow", "FaultSchedule", "FaultInjector",
               "FaultInjectingChannel"],
    "policy": ["RetryPolicy", "RetryEngine", "CallMeta", "JitterFn",
               "call_with_policy", "reply_unavailable"],
})
