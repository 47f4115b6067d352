"""Resumable bulk-extraction (ETL) service — the long-running-job workload.

Every other app in :mod:`repro.apps` is request/response; this one opens
the batch shape the reliability layer (PR 3) and overload protection
(PR 4) were built for: a client extracts a large deterministic dataset
page by page, survives faults mid-job, and resumes from a checkpoint.
The quality axis is new — under load the server degrades page *size* and
*field projection* instead of shedding the job, extending the SOAP-binQ
idea of trading fidelity for availability from single replies to
whole-job progress.

Design contract (see ``docs/extraction.md``):

* **Cursors are opaque and stateless.**  A cursor encodes the read
  position plus a dataset fingerprint and a checksum; any fresh worker —
  including one forked after a full server restart — can decode it, so
  job progress survives server death.  Clients must treat cursors as
  opaque tokens: the only valid cursors are those the server handed out
  (``ExtractDescribe`` for the first, ``next_cursor``/``prefetch`` after
  that).
* **Pages never shed, they slim.**  ``LoadQualityCoupling`` publishes the
  composite ``server_load`` attribute; the fetch handler shrinks the page
  record count under load and the quality policy additionally projects
  the reply down to :data:`PAGE_LITE_FORMAT` (dropping the bulk
  ``payload`` field).  Record *digests* cover only the projection-stable
  fields, so a degraded page still verifies.
* **Retried pages replay byte-identically.**  A server-side dedup window
  keyed on ``(job_id, cursor)`` re-serves a recently computed page
  rather than recomputing it, so a client retry after a lost reply
  observes the same representation (same format, value and validator —
  and therefore the same wire bytes on a steady session).
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import struct
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import SoapBinService
from ..core.lru import LruTtlCache
from ..http11.messages import etag_matches
from ..pbio import Format, FormatRegistry

#: Operation names (also the request format → operation mapping keys).
DESCRIBE_OPERATION = "ExtractDescribe"
FETCH_OPERATION = "ExtractFetch"

#: Full-fidelity and projection-degraded page formats.
PAGE_FORMAT = "ExtractPage"
PAGE_LITE_FORMAT = "ExtractPageLite"

#: Load-coupled policy: above the threshold the page drops its bulk
#: ``payload`` field (trivial projection — no custom handler needed).
#: Record digests cover only ``ids``/``values``, so degraded pages still
#: verify against the ledger.
DEFAULT_QUALITY_FILE = """
attribute server_load
history 2
0.0 0.7 - ExtractPage
0.7 inf - ExtractPageLite
"""

_MIX64 = 0x9E3779B97F4A7C15  # splitmix64 increment: cheap index mixing


class CursorError(ValueError):
    """An extraction cursor failed validation (tampered, truncated, or
    minted against a different dataset)."""


# ----------------------------------------------------------------------
# formats
# ----------------------------------------------------------------------

def extract_formats() -> Dict[str, Format]:
    """The five wire formats of the extraction service, by name."""
    describe_req = Format.from_dict(
        "ExtractDescribeRequest",
        {"job_id": "string", "page_records": "int32"})
    describe_reply = Format.from_dict(
        "ExtractDescribeReply",
        {"total": "int64", "digest": "string", "fingerprint": "string",
         "cursor": "string", "page_records": "int32",
         "prefetch_depth": "int32"})
    fetch_req = Format.from_dict(
        "ExtractFetchRequest",
        {"job_id": "string", "cursor": "string", "max_records": "int32"})
    page_fields = {
        "cursor": "string",        # echo of the request cursor
        "next_cursor": "string",   # "" at EOF
        "prefetch": "string",      # space-joined read-ahead cursor hints
        "watermark": "int64",      # job high-water mark, in records
        "count": "int32",
        "eof": "int32",
        "degraded": "int32",       # page size shrunk below the request
        "ids": "int64[]",
        "values": "float64[]",
        "payload": "string",       # concatenated per-record blobs
    }
    page = Format.from_dict(PAGE_FORMAT, page_fields)
    lite_fields = dict(page_fields)
    del lite_fields["payload"]
    page_lite = Format.from_dict(PAGE_LITE_FORMAT, lite_fields)
    return {fmt.name: fmt for fmt in
            (describe_req, describe_reply, fetch_req, page, page_lite)}


# ----------------------------------------------------------------------
# dataset
# ----------------------------------------------------------------------

class Dataset:
    """A deterministic synthetic dataset addressed by record index.

    Record ``i`` is ``(id=i, value=f(i, seed), blob=g(i, seed))`` — pure
    functions of the index and seed, so every worker process (and every
    restart) serves identical bytes for the same page.  The per-record
    digest covers only ``(id, value)``: the fields every degraded
    projection preserves.
    """

    def __init__(self, total: int = 100_000, seed: int = 1234,
                 blob_bytes: int = 48) -> None:
        if total < 0:
            raise ValueError("total must be >= 0")
        if blob_bytes < 0:
            raise ValueError("blob_bytes must be >= 0")
        self.total = total
        self.seed = seed
        self.blob_bytes = blob_bytes
        self.fingerprint = hashlib.blake2b(
            f"extract:{total}:{seed}:{blob_bytes}".encode("ascii"),
            digest_size=8).hexdigest()
        self._digest: Optional[int] = None

    # -- records -------------------------------------------------------
    def _mixed(self, index: int) -> int:
        return (index * _MIX64 + self.seed) & 0xFFFFFFFFFFFFFFFF

    def value(self, index: int) -> float:
        return (self._mixed(index) >> 32) / 2.0 ** 32

    def blob(self, index: int) -> str:
        if self.blob_bytes == 0:
            return ""
        base = f"{self._mixed(index):016x}"
        reps = self.blob_bytes // len(base) + 1
        return (base * reps)[:self.blob_bytes]

    @staticmethod
    def record_digest(rec_id: int, value: float) -> int:
        """64-bit digest of the projection-stable record fields."""
        packed = struct.pack("<qd", rec_id, value)
        return int.from_bytes(
            hashlib.blake2b(packed, digest_size=8).digest(), "big")

    def page(self, offset: int, count: int
             ) -> Tuple[List[int], List[float], str]:
        """Materialize ``count`` records starting at ``offset``."""
        end = min(offset + count, self.total)
        ids = list(range(offset, end))
        values = [self.value(i) for i in ids]
        payload = "".join(self.blob(i) for i in ids)
        return ids, values, payload

    def digest(self) -> int:
        """Whole-dataset digest: sum of record digests mod 2**64.

        Addition is commutative, so the client can fold page digests in
        any arrival order and compare at the end.  Computed once and
        cached (1M records ≈ a second of blake2b).
        """
        if self._digest is None:
            acc = 0
            for i in range(self.total):
                acc = (acc + self.record_digest(i, self.value(i))) \
                    & 0xFFFFFFFFFFFFFFFF
            self._digest = acc
        return self._digest


# ----------------------------------------------------------------------
# cursors
# ----------------------------------------------------------------------

def encode_cursor(offset: int, fingerprint: str) -> str:
    """Mint an opaque cursor for ``offset`` into the fingerprinted
    dataset: url-safe base64 over canonical JSON + CRC32."""
    raw = json.dumps({"f": fingerprint, "o": offset, "v": 1},
                     sort_keys=True, separators=(",", ":")).encode("ascii")
    blob = raw + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF)
    return base64.urlsafe_b64encode(blob).decode("ascii").rstrip("=")


def decode_cursor(cursor: str, fingerprint: str, total: int) -> int:
    """Validate and decode a cursor; raises :class:`CursorError` on any
    tampering, truncation, or dataset mismatch."""
    if not cursor:
        raise CursorError("empty cursor")
    try:
        blob = base64.urlsafe_b64decode(cursor + "=" * (-len(cursor) % 4))
    except (ValueError, binascii.Error):
        raise CursorError("cursor is not valid base64") from None
    if len(blob) < 5:
        raise CursorError("cursor too short")
    raw, crc_bytes = blob[:-4], blob[-4:]
    if (zlib.crc32(raw) & 0xFFFFFFFF) != struct.unpack("<I", crc_bytes)[0]:
        raise CursorError("cursor checksum mismatch")
    try:
        doc = json.loads(raw.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise CursorError("cursor payload is not valid JSON") from None
    if not isinstance(doc, dict) or doc.get("v") != 1:
        raise CursorError("unsupported cursor version")
    if doc.get("f") != fingerprint:
        raise CursorError("cursor was minted for a different dataset")
    offset = doc.get("o")
    if not isinstance(offset, int) or isinstance(offset, bool) \
            or offset < 0 or offset > total:
        raise CursorError("cursor offset out of range")
    return offset


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------

class _ExtractBinService(SoapBinService):
    """``SoapBinService`` with a ``(job_id, cursor)`` dedup window on the
    fetch operation: a retried page is re-served from the window —
    byte-identically, since format, value and validator are replayed —
    instead of being recomputed under whatever the load is *now*."""

    def __init__(self, owner: "ExtractService", *args: Any,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._owner = owner

    def _apply_quality(self, result, output_format, if_none_match=None):
        # The degradation policy maps load to *page* message types; other
        # replies (describe) must pass through at full fidelity instead
        # of being projected into a page format.
        if output_format.name != PAGE_FORMAT:
            return output_format, result, None, False
        return super()._apply_quality(result, output_format, if_none_match)

    def _run_binary(self, body: bytes, headers: Dict[str, str], session):
        owner = self._owner
        wire_format, wire_value = session.unpack_stream(body)
        op = self._operation_for(wire_format, headers)
        params = self._restore_request(wire_value, wire_format, op)
        self._ingest_reported_rtt(headers)
        if_none_match = self._if_none_match(headers)
        dedup_key = None
        if op.name == FETCH_OPERATION:
            dedup_key = (params["job_id"], params["cursor"])
            hit = owner._dedup.get(dedup_key)
            if hit is not None:
                reply_format, reply_value, etag = hit
                counters = owner.counters
                counters["pages_served"] += 1
                counters["pages_replayed"] += 1
                if etag is not None and etag_matches(if_none_match, etag):
                    return None, reply_format, etag, True, False
                return reply_value, reply_format, etag, False, False
        result = self.xml_service.invoke(op, params, headers)
        reply_format, reply_value, etag, not_modified = self._apply_quality(
            result, op.output_format, if_none_match)
        if dedup_key is not None:
            owner._note_page(result, reply_format)
            if not not_modified:
                owner._dedup.put(dedup_key,
                                 (reply_format, reply_value, etag))
        # the page is computed per request, never a memoised result
        return reply_value, reply_format, etag, not_modified, False


class ExtractService:
    """The dataset-extraction service: paginated reads with resumable
    cursors, load-coupled page degradation, and a replay dedup window.

    Wraps a :class:`~repro.core.binservice.SoapBinService` (exposed as
    ``.service`` / ``.endpoint``) the same way the other app servers do;
    ``quality_stats()`` folds the extract counters into the quality
    snapshot so the serving stack (``/metrics``, fleet shm, ``/healthz``)
    picks them up through the one existing hook.
    """

    def __init__(self, total: int = 100_000, seed: int = 1234,
                 blob_bytes: int = 48,
                 page_records: int = 256,
                 min_page_records: int = 16,
                 max_page_records: int = 4096,
                 degrade_lo: float = 0.5,
                 degrade_hi: float = 0.8,
                 prefetch_depth: int = 4,
                 deadline_floor_ms: float = 50.0,
                 dedup_pages: int = 1024,
                 dedup_ttl_s: Optional[float] = 30.0,
                 job_idle_s: float = 300.0,
                 max_jobs: int = 4096,
                 quality_text: Optional[str] = DEFAULT_QUALITY_FILE,
                 time_fn: Optional[Callable[[], float]] = None,
                 **service_kwargs: Any) -> None:
        self.dataset = Dataset(total=total, seed=seed, blob_bytes=blob_bytes)
        self.page_records = page_records
        self.min_page_records = min_page_records
        self.max_page_records = max_page_records
        self.degrade_lo = degrade_lo
        self.degrade_hi = degrade_hi
        self.prefetch_depth = prefetch_depth
        self.deadline_floor_ms = deadline_floor_ms
        self.job_idle_s = job_idle_s
        self.max_jobs = max_jobs
        self._time_fn = time_fn or time.monotonic
        self.counters: Dict[str, int] = {
            "pages_served": 0, "pages_degraded": 0,
            "pages_replayed": 0, "records_served": 0,
        }
        #: job_id → [watermark_records, last_active]
        self._jobs: Dict[str, List[float]] = {}
        self._dedup: LruTtlCache = LruTtlCache(
            capacity=dedup_pages, ttl_s=dedup_ttl_s, time_fn=self._time_fn)

        registry = FormatRegistry()
        formats = extract_formats()
        for fmt in formats.values():
            registry.register(fmt)
        self.service = _ExtractBinService(
            self, registry, quality_text=quality_text, **service_kwargs)
        self.service.add_operation(
            DESCRIBE_OPERATION, formats["ExtractDescribeRequest"],
            formats["ExtractDescribeReply"], self._describe)
        self.service.add_operation(
            FETCH_OPERATION, formats["ExtractFetchRequest"],
            formats[PAGE_FORMAT], self._fetch, wants_headers=True)

    # -- transport ------------------------------------------------------
    @property
    def endpoint(self):
        return self.service.endpoint

    # -- operations -----------------------------------------------------
    def _describe(self, params: Dict[str, Any]) -> Dict[str, Any]:
        dataset = self.dataset
        page = int(params.get("page_records") or 0) or self.page_records
        page = max(1, min(page, self.max_page_records))
        self._touch_job(str(params.get("job_id") or "anon"), 0)
        return {
            "total": dataset.total,
            "digest": f"{dataset.digest():016x}",
            "fingerprint": dataset.fingerprint,
            "cursor": encode_cursor(0, dataset.fingerprint),
            "page_records": page,
            "prefetch_depth": self.prefetch_depth,
        }

    def _fetch(self, params: Dict[str, Any],
               headers: Dict[str, str]) -> Dict[str, Any]:
        dataset = self.dataset
        job_id = str(params.get("job_id") or "anon")
        cursor = params["cursor"]
        requested = int(params.get("max_records") or 0) or self.page_records
        requested = max(1, min(requested, self.max_page_records))
        offset = decode_cursor(cursor, dataset.fingerprint, dataset.total)
        effective, degraded = self._effective_page(requested, headers)
        count = min(effective, dataset.total - offset)
        ids, values, payload = dataset.page(offset, count)
        next_offset = offset + count
        eof = 1 if next_offset >= dataset.total else 0
        next_cursor = "" if eof else encode_cursor(next_offset,
                                                   dataset.fingerprint)
        prefetch = "" if eof else " ".join(
            encode_cursor(o, dataset.fingerprint)
            for o in range(next_offset + effective,
                           dataset.total,
                           effective)[:self.prefetch_depth - 1]
        ) if self.prefetch_depth > 1 else ""
        watermark = self._touch_job(job_id, next_offset)
        return {
            "cursor": cursor,
            "next_cursor": next_cursor,
            "prefetch": prefetch,
            "watermark": watermark,
            "count": count,
            "eof": eof,
            "degraded": degraded,
            "ids": ids,
            "values": values,
            "payload": payload,
        }

    # -- degradation ----------------------------------------------------
    def _load(self) -> float:
        quality = self.service.quality
        if quality is None:
            return 0.0
        return quality.attributes.get("server_load", 0.0)

    def _effective_page(self, requested: int,
                        headers: Dict[str, str]) -> Tuple[int, int]:
        load = self._load()
        effective = requested
        if load >= self.degrade_hi:
            effective = max(self.min_page_records, requested // 4)
        elif load >= self.degrade_lo:
            effective = max(self.min_page_records, requested // 2)
        deadline_ms = self._deadline_ms(headers)
        if deadline_ms is not None and deadline_ms < self.deadline_floor_ms:
            effective = min(effective,
                            max(self.min_page_records, requested // 4))
        effective = max(1, min(effective, requested))
        return effective, (1 if effective < requested else 0)

    @staticmethod
    def _deadline_ms(headers: Dict[str, str]) -> Optional[float]:
        for name, value in headers.items():
            if name.lower() == "x-deadline-ms":
                try:
                    return float(value)
                except ValueError:
                    return None
        return None

    # -- job registry ---------------------------------------------------
    def _touch_job(self, job_id: str, watermark: int) -> int:
        now = self._time_fn()
        entry = self._jobs.get(job_id)
        if entry is None:
            self._prune_jobs(now)
            if len(self._jobs) >= self.max_jobs:
                stalest = min(self._jobs, key=lambda k: self._jobs[k][1])
                del self._jobs[stalest]
            entry = self._jobs[job_id] = [0, now]
        entry[0] = max(entry[0], watermark)
        entry[1] = now
        return int(entry[0])

    def _prune_jobs(self, now: float) -> None:
        cutoff = now - self.job_idle_s
        stale = [k for k, (_w, last) in self._jobs.items() if last < cutoff]
        for key in stale:
            del self._jobs[key]

    def _note_page(self, result: Dict[str, Any],
                   reply_format: Format) -> None:
        counters = self.counters
        counters["pages_served"] += 1
        counters["records_served"] += int(result.get("count", 0))
        if result.get("degraded") or reply_format.name != PAGE_FORMAT:
            counters["pages_degraded"] += 1

    # -- observability --------------------------------------------------
    def extract_stats(self) -> Dict[str, int]:
        now = self._time_fn()
        self._prune_jobs(now)
        total = self.dataset.total
        lag = sum(total - min(int(w), total)
                  for w, _last in self._jobs.values())
        stats = dict(self.counters)
        stats["jobs_active"] = len(self._jobs)
        stats["watermark_lag_records"] = lag
        return stats

    def quality_stats(self) -> Dict[str, Any]:
        """Quality snapshot + the ``extract`` block, shaped for the
        ``quality_stats`` server hook (metrics/shm/healthz plumbing)."""
        stats = self.service.quality_stats() or {}
        stats["extract"] = self.extract_stats()
        return stats
