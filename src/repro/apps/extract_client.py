"""The extraction job runner: pipelined page fetches, crash-safe
checkpoints, exactly-once page accounting.

A :class:`JobRunner` drives a whole extraction against
:class:`~repro.apps.extract.ExtractService` through any channel — in
production a :class:`~repro.transport.sockets.PipelinedHttpChannel`
(optionally wrapped in a
:class:`~repro.reliability.faults.FaultInjectingChannel` for soak tests).
Its obligations, in order of importance:

* **Exactly-once accounting.**  Pages are committed strictly in cursor
  order; a page enters the ledger exactly once, and the ledger's
  ``(start, count)`` intervals must tile ``[0, total)`` with the digest
  sum matching the server's dataset digest.  Retried fetches are safe
  because the server dedup window replays the same page and the runner
  only ever commits the page its cursor chain expects next.
* **Crash safety.**  The checkpoint file is written atomically
  (tmp + fsync + rename + directory fsync) after every commit, carries a
  monotonic watermark and the page-digest ledger, and is integrity
  checked on load: a zero-byte, truncated or corrupt checkpoint raises
  :class:`CheckpointCorrupt` — never a silent restart from zero.  A
  SIGKILL between page receipt and checkpoint write simply loses the
  uncommitted page; the resume refetches it and the server replays it.
* **Fault absorption.**  Each *advance* (one pipelined window of fetches)
  runs under :func:`~repro.reliability.policy.call_with_policy` with the
  runner's :class:`~repro.reliability.policy.RetryPolicy` and
  :class:`~repro.reliability.breaker.CircuitBreaker`: 503 bursts,
  resets, stalls and truncations back off and retry; only the unanswered
  suffix of a partially failed window is refetched (answered prefix
  pages are committed before the retry).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..channel import Channel
from ..clock import Clock, WallClock
from ..core import SoapBinClient
from ..core.errors import BinProtocolError
from ..pbio import FormatRegistry
from ..reliability import (CircuitBreaker, RetryPolicy, ServiceUnavailable,
                           call_with_policy)
from .extract import (DESCRIBE_OPERATION, FETCH_OPERATION, Dataset,
                      extract_formats)

CHECKPOINT_MAGIC = "repro-extract-checkpoint"
CHECKPOINT_VERSION = 1


class JobError(Exception):
    """Base class for extraction job failures."""


class JobProtocolError(JobError):
    """The server answered with a non-retryable application error (bad
    cursor, unknown operation, ...): retrying cannot help."""


class JobVerificationError(JobError):
    """The completed job failed ledger verification (missing/duplicate
    records or digest mismatch)."""


class CheckpointError(JobError):
    """Base class for checkpoint-file failures."""


class CheckpointCorrupt(CheckpointError):
    """The checkpoint file exists but cannot be trusted (zero-byte,
    truncated, bad JSON, bad checksum, wrong magic/version).  The runner
    refuses to guess: the operator deletes the file to restart from
    zero."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint belongs to a different dataset or job shape than
    the server is currently offering."""


# ----------------------------------------------------------------------
# checkpoint file
# ----------------------------------------------------------------------

@dataclass
class PageEntry:
    """One committed page in the ledger."""

    cursor: str
    start: int
    count: int
    digest: int
    degraded: int = 0

    def to_row(self) -> List[Any]:
        return [self.cursor, self.start, self.count,
                f"{self.digest:016x}", self.degraded]

    @classmethod
    def from_row(cls, row: Any) -> "PageEntry":
        if (not isinstance(row, list) or len(row) != 5
                or not isinstance(row[0], str)):
            raise CheckpointCorrupt("checkpoint ledger row malformed")
        try:
            return cls(cursor=row[0], start=int(row[1]), count=int(row[2]),
                       digest=int(row[3], 16), degraded=int(row[4]))
        except (TypeError, ValueError):
            raise CheckpointCorrupt(
                "checkpoint ledger row malformed") from None


@dataclass
class Checkpoint:
    """The resumable state of one extraction job."""

    job_id: str
    fingerprint: str
    total: int
    expected_digest: str
    cursor: str               # next unfetched cursor ("" once at EOF)
    records_done: int = 0
    digest_sum: int = 0
    pages: List[PageEntry] = field(default_factory=list)

    @property
    def watermark(self) -> int:
        """Monotonic high-water mark: records durably committed."""
        return self.records_done

    def to_doc(self) -> Dict[str, Any]:
        doc = {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "total": self.total,
            "expected_digest": self.expected_digest,
            "cursor": self.cursor,
            "watermark": self.watermark,
            "records_done": self.records_done,
            "digest_sum": f"{self.digest_sum:016x}",
            "pages": [page.to_row() for page in self.pages],
        }
        doc["crc"] = _doc_crc(doc)
        return doc

    @classmethod
    def from_doc(cls, doc: Any) -> "Checkpoint":
        if not isinstance(doc, dict):
            raise CheckpointCorrupt("checkpoint is not a JSON object")
        if doc.get("magic") != CHECKPOINT_MAGIC:
            raise CheckpointCorrupt("checkpoint magic mismatch")
        if doc.get("version") != CHECKPOINT_VERSION:
            raise CheckpointCorrupt(
                f"unsupported checkpoint version {doc.get('version')!r}")
        crc = doc.get("crc")
        if not isinstance(crc, int) \
                or crc != _doc_crc({k: v for k, v in doc.items()
                                    if k != "crc"}):
            raise CheckpointCorrupt("checkpoint checksum mismatch")
        try:
            cp = cls(
                job_id=doc["job_id"],
                fingerprint=doc["fingerprint"],
                total=int(doc["total"]),
                expected_digest=doc["expected_digest"],
                cursor=doc["cursor"],
                records_done=int(doc["records_done"]),
                digest_sum=int(doc["digest_sum"], 16),
                pages=[PageEntry.from_row(row) for row in doc["pages"]],
            )
        except (KeyError, TypeError, ValueError):
            raise CheckpointCorrupt("checkpoint fields malformed") from None
        if int(doc.get("watermark", -1)) != cp.records_done:
            raise CheckpointCorrupt("checkpoint watermark mismatch")
        return cp


def _doc_crc(doc: Dict[str, Any]) -> int:
    canonical = json.dumps(doc, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    return zlib.crc32(canonical) & 0xFFFFFFFF


class CheckpointStore:
    """Atomic load/save of one checkpoint file.

    ``save`` writes a sibling temp file, flushes and fsyncs it, atomically
    renames it over the target, then fsyncs the directory — after a crash
    at any instant the file on disk is either the old checkpoint or the
    new one, never a torn mix.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.saves = 0

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> Optional[Checkpoint]:
        """The stored checkpoint, ``None`` when the file does not exist,
        or :class:`CheckpointCorrupt` — never a silent restart."""
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        if not raw:
            raise CheckpointCorrupt(
                f"checkpoint {self.path} is zero bytes (torn write?)")
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise CheckpointCorrupt(
                f"checkpoint {self.path} is not valid JSON "
                f"(truncated or corrupt)") from None
        return Checkpoint.from_doc(doc)

    def save(self, checkpoint: Checkpoint) -> None:
        blob = json.dumps(checkpoint.to_doc(),
                          separators=(",", ":")).encode("utf-8")
        directory = os.path.dirname(os.path.abspath(self.path))
        tmp_path = self.path + ".tmp"
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, blob)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_path, self.path)
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            dir_fd = None
        if dir_fd is not None:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        self.saves += 1


# ----------------------------------------------------------------------
# job runner
# ----------------------------------------------------------------------

@dataclass
class JobReport:
    """What one :meth:`JobRunner.run` accomplished."""

    job_id: str
    total: int
    records: int
    pages: int
    pages_degraded: int
    pages_discarded: int
    retries: int
    resumed: bool
    verified: bool
    digest: str
    duration_s: float
    faults: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id, "total": self.total,
            "records": self.records, "pages": self.pages,
            "pages_degraded": self.pages_degraded,
            "pages_discarded": self.pages_discarded,
            "retries": self.retries, "resumed": self.resumed,
            "verified": self.verified, "digest": self.digest,
            "duration_s": self.duration_s, "faults": list(self.faults),
        }


class _JobState:
    """Mutable per-run state threaded through the retry engine."""

    __slots__ = ("checkpoint", "hints", "eof", "fatal",
                 "pages_since_save", "accepted_this_round")

    def __init__(self, checkpoint: Checkpoint) -> None:
        self.checkpoint = checkpoint
        self.hints: List[str] = []
        self.eof = checkpoint.cursor == ""
        self.fatal: Optional[Exception] = None
        self.pages_since_save = 0
        self.accepted_this_round = 0


def client_registry() -> FormatRegistry:
    """A client-side registry with every extraction format pre-registered
    (same order as the server, so registry-wide format ids line up)."""
    registry = FormatRegistry()
    for fmt in extract_formats().values():
        registry.register(fmt)
    return registry


class JobRunner:
    """Run (or resume) one extraction job to completion.

    Parameters
    ----------
    channel:
        Any channel reaching the extraction endpoint.  When it exposes
        ``call_many`` (pipelined), windows of pages are fetched
        concurrently using the server's opaque ``prefetch`` cursor hints.
    checkpoint_path:
        Where the crash-safe checkpoint lives.  An existing valid file
        resumes the job; a corrupt one raises :class:`CheckpointCorrupt`.
    policy / breaker:
        Reliability envelope for every advance (window round-trip).
    page_records:
        Records per page to request (the server may shrink under load).
    window:
        Maximum concurrent page fetches per round; ``None`` uses the
        server's advertised ``prefetch_depth``.
    checkpoint_every:
        Commit-to-checkpoint cadence in pages; 1 (the default) writes the
        checkpoint after every committed page.
    on_commit:
        Test hook invoked after a page commit, *before* the checkpoint
        write — crash-simulation tests raise from here.
    """

    def __init__(self, channel: Channel, checkpoint_path: str,
                 job_id: str = "extract-job",
                 page_records: int = 256,
                 policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 window: Optional[int] = None,
                 checkpoint_every: int = 1,
                 strict: bool = True,
                 clock: Optional[Clock] = None,
                 client_id: Optional[str] = None,
                 on_commit: Optional[Callable[[PageEntry], None]] = None
                 ) -> None:
        self.channel = channel
        self.store = CheckpointStore(checkpoint_path)
        self.job_id = job_id
        self.page_records = page_records
        self.policy = policy or RetryPolicy(
            max_attempts=6, deadline_s=30.0, backoff_initial_s=0.02,
            backoff_multiplier=2.0, backoff_max_s=0.5)
        self.breaker = breaker
        self.window = window
        self.checkpoint_every = max(1, checkpoint_every)
        self.strict = strict
        self.clock = clock or WallClock()
        self.on_commit = on_commit
        self.formats = extract_formats()
        self.client = SoapBinClient(channel, client_registry(),
                                    clock=self.clock, client_id=client_id)
        # run() outcome counters
        self.pages_discarded = 0
        self.pages_degraded = 0
        self.retries = 0
        self.faults: List[str] = []

    # ------------------------------------------------------------------
    def run(self) -> JobReport:
        started = self.clock.now()
        loaded = self.store.load()
        resumed = loaded is not None

        describe, _meta = call_with_policy(
            self._describe_once, self.policy, clock=self.clock,
            idempotent=True, breaker=self.breaker)
        total = int(describe["total"])
        expected_digest = str(describe["digest"])
        fingerprint = str(describe["fingerprint"])
        depth = self.window or max(1, int(describe["prefetch_depth"]) + 1)

        if loaded is not None:
            if (loaded.fingerprint != fingerprint
                    or loaded.total != total
                    or loaded.expected_digest != expected_digest):
                raise CheckpointMismatch(
                    f"checkpoint {self.store.path} was written against a "
                    f"different dataset (fingerprint "
                    f"{loaded.fingerprint!r} != {fingerprint!r})")
            checkpoint = loaded
        else:
            checkpoint = Checkpoint(
                job_id=self.job_id, fingerprint=fingerprint, total=total,
                expected_digest=expected_digest,
                cursor=str(describe["cursor"]))

        state = _JobState(checkpoint)
        while not state.eof:
            _accepted, meta = call_with_policy(
                lambda: self._round(state, depth), self.policy,
                clock=self.clock, idempotent=True, breaker=self.breaker)
            self.retries += meta.attempts - 1
            self.faults.extend(meta.faults)
            if state.fatal is not None:
                raise JobProtocolError(str(state.fatal)) from state.fatal
        if state.pages_since_save:
            self.store.save(checkpoint)

        verified = self._verify(checkpoint)
        report = JobReport(
            job_id=self.job_id, total=total,
            records=checkpoint.records_done,
            pages=len(checkpoint.pages),
            pages_degraded=self.pages_degraded,
            pages_discarded=self.pages_discarded,
            retries=self.retries, resumed=resumed, verified=verified,
            digest=f"{checkpoint.digest_sum:016x}",
            duration_s=self.clock.now() - started,
            faults=list(self.faults))
        if self.strict and not verified:
            raise JobVerificationError(
                f"job {self.job_id!r} failed verification: "
                f"{checkpoint.records_done}/{total} records, digest "
                f"{report.digest} != {expected_digest}")
        return report

    # ------------------------------------------------------------------
    def _describe_once(self) -> Dict[str, Any]:
        try:
            return self.client.call(
                DESCRIBE_OPERATION,
                {"job_id": self.job_id, "page_records": self.page_records},
                self.formats["ExtractDescribeRequest"],
                self.formats["ExtractDescribeReply"])
        except BinProtocolError as exc:
            raise self._promote(exc) from exc

    @staticmethod
    def _promote(exc: BinProtocolError) -> Exception:
        """503s become typed retryable errors; anything else is fatal."""
        text = str(exc)
        if "status 503" in text:
            return ServiceUnavailable(text)
        return JobProtocolError(text)

    # ------------------------------------------------------------------
    def _round(self, state: _JobState, depth: int) -> int:
        """One pipelined window: fetch, walk the cursor chain in order,
        commit the answered prefix.  Returns pages committed; raises the
        head slot's (typed) error when no progress was possible."""
        checkpoint = state.checkpoint
        window = [checkpoint.cursor]
        for hint in state.hints:
            if len(window) >= depth:
                break
            window.append(hint)
        params_list = [{"job_id": self.job_id, "cursor": cursor,
                        "max_records": self.page_records}
                       for cursor in window]
        results = self.client.call_many(
            FETCH_OPERATION, params_list,
            self.formats["ExtractFetchRequest"],
            self.formats["ExtractPage"], return_exceptions=True)

        accepted = 0
        expected = checkpoint.cursor
        for slot, (cursor, outcome) in enumerate(zip(window, results)):
            if isinstance(outcome, Exception):
                if accepted == 0 and slot == 0:
                    error = outcome
                    if isinstance(error, BinProtocolError):
                        promoted = self._promote(error)
                        if isinstance(promoted, JobProtocolError):
                            state.fatal = error
                            return 0
                        error = promoted
                    raise error
                break  # unanswered suffix: refetched next round
            if cursor != expected:
                # Stale read-ahead hint (page sizes changed under load):
                # the page is valid data but not the chain's next page.
                self.pages_discarded += sum(
                    1 for later in results[slot:]
                    if not isinstance(later, Exception))
                break
            self._commit(state, outcome)
            accepted += 1
            expected = checkpoint.cursor
            if state.eof:
                break
        return accepted

    def _commit(self, state: _JobState, page: Dict[str, Any]) -> None:
        checkpoint = state.checkpoint
        count = int(page["count"])
        start = checkpoint.records_done
        ids = page["ids"]
        values = page["values"]
        if len(ids) != count or len(values) != count or (
                count and (int(ids[0]) != start
                           or int(ids[count - 1]) != start + count - 1)):
            raise JobProtocolError(
                f"page at cursor {page['cursor']!r} claims records "
                f"[{ids[0] if count else '-'}..] but the chain expects "
                f"[{start}..{start + count - 1}]")
        page_digest = 0
        for rec_id, value in zip(ids, values):
            page_digest = (page_digest + Dataset.record_digest(
                int(rec_id), float(value))) & 0xFFFFFFFFFFFFFFFF
        degraded = int(page.get("degraded", 0)) or (
            1 if (count and not page.get("payload")) else 0)
        entry = PageEntry(cursor=str(page["cursor"]), start=start,
                          count=count, digest=page_digest,
                          degraded=degraded)
        checkpoint.pages.append(entry)
        checkpoint.records_done = start + count
        checkpoint.digest_sum = (checkpoint.digest_sum + page_digest) \
            & 0xFFFFFFFFFFFFFFFF
        checkpoint.cursor = str(page["next_cursor"])
        state.hints = str(page.get("prefetch", "")).split()
        state.eof = bool(int(page["eof"])) and checkpoint.cursor == ""
        if degraded:
            self.pages_degraded += 1
        state.pages_since_save += 1
        if self.on_commit is not None:
            self.on_commit(entry)
        if state.pages_since_save >= self.checkpoint_every or state.eof:
            self.store.save(checkpoint)
            state.pages_since_save = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _verify(checkpoint: Checkpoint) -> bool:
        """Exactly-once check: the ledger tiles ``[0, total)`` with no
        gaps or overlaps and the digest sum matches the server's."""
        position = 0
        for entry in checkpoint.pages:
            if entry.start != position:
                return False
            position += entry.count
        if position != checkpoint.total:
            return False
        return f"{checkpoint.digest_sum:016x}" == checkpoint.expected_digest
