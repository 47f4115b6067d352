"""Spans recorded from outside the library, and their self times.

A span is ``{name, start_ns, end_ns, parent, call_id}``.  ``start_ns`` and
``end_ns`` are ``time.perf_counter_ns`` readings: on Linux that clock is
system-wide monotonic, so spans taken in the benchmark process and in the
server child are comparable.  ``parent`` is the *name* of the enclosing span
of the same ``call_id``; one call has at most one span of each name except
on ``small_pipelined``, where a batch has one ``core.endpoint`` and one
``apps.handler`` span per sub-call.

The four span names, outermost first::

    core.call > transport.roundtrip > core.endpoint > apps.handler
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

REQUEST_ID_HEADER = "X-Request-Id"

ROOT, ROUNDTRIP, ENDPOINT, HANDLER = (
    "core.call", "transport.roundtrip", "core.endpoint", "apps.handler")
_CHAIN = (ROOT, ROUNDTRIP, ENDPOINT, HANDLER)
PARENT = dict(zip(_CHAIN[1:], _CHAIN))

Span = Tuple[str, int, int, Optional[str], str]


class SpanLog:
    """In-memory span list; written out when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, name: str, start_ns: int, end_ns: int, call_id: str) -> None:
        self.spans.append((name, start_ns, end_ns, PARENT.get(name), call_id))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(path: str) -> List[Span]:
    with open(path) as fh:
        return [tuple(row) for row in json.load(fh)]


def spans_as_dicts(spans: List[Span]) -> List[Dict[str, object]]:
    keys = ("name", "start_ns", "end_ns", "parent", "call_id")
    return [dict(zip(keys, span)) for span in spans]


# ----------------------------------------------------------------------
# server-side wrappers (installed by perf/server.py when tracing is on)
# ----------------------------------------------------------------------
_current = threading.local()


def _header(headers: Dict[str, str], name: str) -> str:
    lower = name.lower()
    for key, value in headers.items():
        if key.lower() == lower:
            return value
    return ""


def traced_endpoint(endpoint: Callable, log: SpanLog) -> Callable:
    """Wrap a transport endpoint: one ``core.endpoint`` span per request,
    identified by the ``X-Request-Id`` the benchmark's channel minted."""

    def wrapper(body, content_type, headers):
        _current.call_id = call_id = _header(headers, REQUEST_ID_HEADER)
        if not call_id:                 # an untraced call: record nothing
            return endpoint(body, content_type, headers)
        start = time.perf_counter_ns()
        try:
            return endpoint(body, content_type, headers)
        finally:
            log.add(ENDPOINT, start, time.perf_counter_ns(), call_id)

    return wrapper


def traced_handler(handler: Callable, log: SpanLog) -> Callable:
    """Wrap an operation handler.  It runs on the thread of its endpoint
    span, so the request id is read from a thread-local."""

    def wrapper(*args):
        call_id = getattr(_current, "call_id", "")
        if not call_id:
            return handler(*args)
        start = time.perf_counter_ns()
        try:
            return handler(*args)
        finally:
            log.add(HANDLER, start, time.perf_counter_ns(), call_id)

    return wrapper


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _covered(start: int, end: int, children: List[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``children``."""
    total, edge = 0, start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, edge), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            edge = c_end
    return total


def layer_times_us(spans: List[Span]) -> Dict[str, float]:
    """Per-call medians, in µs: each span's duration and its self time
    (duration minus the part of it that child spans cover).

    A sub-call id ``"7.3"`` belongs to call ``"7"``, so a pipelined batch
    is one call whose endpoint and handler times are summed over its
    sub-calls.
    """
    by_call: Dict[str, Dict[str, List[Tuple[int, int]]]] = defaultdict(
        lambda: defaultdict(list))
    for name, start, end, _parent, call_id in spans:
        by_call[call_id.split(".")[0]][name].append((start, end))
    total: Dict[str, List[float]] = defaultdict(list)
    self_: Dict[str, List[float]] = defaultdict(list)
    for call in by_call.values():
        if ROOT not in call:
            continue  # server-side spans of warm-up calls
        for name, child in zip(_CHAIN, _CHAIN[1:] + (None,)):
            intervals = call.get(name, [])
            kids = call.get(child, []) if child else []
            total[name].append(sum(e - s for s, e in intervals) / 1e3)
            self_[name].append(sum(
                e - s - _covered(s, e, kids) for s, e in intervals) / 1e3)
    return {
        "calls": len(total[ROOT]),
        "root_us": statistics.median(total[ROOT]),
        "core.client_self_us": statistics.median(self_[ROOT]),
        "transport.roundtrip_us": statistics.median(total[ROUNDTRIP]),
        "http11.wire_self_us": statistics.median(self_[ROUNDTRIP]),
        "core.endpoint_us": statistics.median(total[ENDPOINT]),
        "core.endpoint_self_us": statistics.median(self_[ENDPOINT]),
        "apps.handler_us": statistics.median(total[HANDLER]),
    }
