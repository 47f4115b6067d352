"""Unit tests for the content-addressed quality cache.

Covers the canonical value digest, the key/ETag derivation, memoization in
``QualityManager.outgoing_keyed``, and the invalidation contract:
``FormatRegistry.redefine`` flushes (the compiler-cache contract),
attribute updates flush unless they are the policy's monitored attribute
or RTT telemetry, and sandbox fallback output is never cached.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core import (QualityCache, QualityManager, canonical_digest)
from repro.core.qcache import estimated_weight
from repro.core.attributes import RTT
from repro.core.quality_handlers import HandlerRegistry
from repro.pbio import Format, FormatRegistry
from repro.serving.sandbox import HandlerSandbox

QUALITY_TEXT = """
attribute rtt
history 1
handler CacheTestHalf halve
0.0  0.05 - CacheTestFull
0.05 inf  - CacheTestHalf
"""


def make_registry():
    registry = FormatRegistry()
    full = Format.from_dict("CacheTestFull",
                            {"seq": "int32", "data": "float64[]"})
    half = Format.from_dict("CacheTestHalf",
                            {"seq": "int32", "data": "float64[]"})
    registry.register(full)
    registry.register(half)
    return registry, full, half


def make_handlers(calls=None):
    handlers = HandlerRegistry()

    @handlers.handler("halve")
    def halve(value, src, dst, registry, attributes):
        if calls is not None:
            calls.append(value["seq"])
        return {"seq": value["seq"], "data": value["data"][::2]}

    return handlers


def make_manager(registry, handlers, sandbox=None, cache=None):
    return QualityManager.from_text(QUALITY_TEXT, registry,
                                    handlers=handlers, sandbox=sandbox,
                                    cache=cache)


# ----------------------------------------------------------------------
# canonical_digest
# ----------------------------------------------------------------------
class TestCanonicalDigest:
    def test_dict_order_independent(self):
        assert canonical_digest({"a": 1, "b": 2}) \
            == canonical_digest({"b": 2, "a": 1})

    def test_different_values_differ(self):
        assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})
        assert canonical_digest({"a": 1}) != canonical_digest({"b": 1})

    def test_type_tags_prevent_cross_type_collisions(self):
        assert canonical_digest(1) != canonical_digest(True)
        assert canonical_digest(0) != canonical_digest(False)
        assert canonical_digest(1) != canonical_digest(1.0)
        assert canonical_digest("1") != canonical_digest(1)
        assert canonical_digest(b"x") != canonical_digest("x")
        assert canonical_digest(None) != canonical_digest(0)

    def test_nesting_structure_matters(self):
        assert canonical_digest([1, [2, 3]]) != canonical_digest([1, 2, 3])
        assert canonical_digest([[1], [2]]) != canonical_digest([[1, 2]])

    def test_numpy_array_equals_equivalent_long_list(self):
        # lists past the fast-path threshold digest via np.asarray, so a
        # float list and the ndarray it converts to must agree
        values = [float(i) for i in range(100)]
        arr = np.asarray(values)
        assert canonical_digest(values) == canonical_digest(arr)

    def test_numpy_dtype_is_significant(self):
        a32 = np.arange(100, dtype=np.float32)
        a64 = np.arange(100, dtype=np.float64)
        assert canonical_digest(a32) != canonical_digest(a64)

    def test_numpy_scalar_matches_python_scalar(self):
        assert canonical_digest(np.float64(2.5)) == canonical_digest(2.5)
        assert canonical_digest(np.int64(7)) == canonical_digest(7)

    def test_short_and_ragged_lists_walk_elementwise(self):
        assert canonical_digest([1, 2, 3]) == canonical_digest((1, 2, 3))
        ragged = [[1, 2], [3]]
        assert canonical_digest(ragged) != canonical_digest([[1, 2], [3, 0]])


# ----------------------------------------------------------------------
# keys / ETags
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_key_is_a_quoted_strong_etag(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry)
        key = cache.key(full, half, {"seq": 1, "data": [1.0]})
        assert key.startswith('"') and key.endswith('"')
        assert len(key) == 42  # sha1 hex + quotes

    def test_key_depends_on_every_component(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry)
        value = {"seq": 1, "data": [1.0, 2.0]}
        base = cache.key(full, half, value)
        assert cache.key(full, full, value) != base          # wire format
        assert cache.key(half, half, value) != base          # app format
        assert cache.key(full, half, {"seq": 2, "data": [1.0, 2.0]}) != base
        assert cache.key(full, half, value, variant="xml:r") != base

    def test_redefine_rolls_the_codec_epoch_into_keys(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry)
        value = {"seq": 1, "data": [1.0]}
        before = cache.key(full, half, value)
        registry.redefine(Format.from_dict(
            "CacheTestHalf", {"seq": "int32", "data": "float32[]"}))
        half2 = registry.by_name("CacheTestHalf")
        # even if the redefined format happened to share a fingerprint,
        # the epoch bump alone would change the key
        assert cache.key(full, half2, value) != before


# ----------------------------------------------------------------------
# memoization through the manager
# ----------------------------------------------------------------------
class TestMemoization:
    def setup_method(self):
        self.registry, self.full, self.half = make_registry()
        self.calls = []
        handlers = make_handlers(self.calls)
        self.cache = QualityCache(self.registry)
        self.manager = make_manager(self.registry, handlers,
                                    cache=self.cache)
        self.manager.update_attribute(RTT, 0.2)   # select CacheTestHalf

    def test_second_identical_call_skips_the_handler(self):
        value = {"seq": 1, "data": [1.0, 2.0, 3.0, 4.0]}
        fmt1, out1, etag1, nm1 = self.manager.outgoing_keyed(value, self.full)
        fmt2, out2, etag2, nm2 = self.manager.outgoing_keyed(value, self.full)
        assert self.calls == [1]                  # handler ran once
        assert etag1 == etag2 and not nm1 and not nm2
        assert out1 == out2 == {"seq": 1, "data": [1.0, 3.0]}
        assert fmt1.name == fmt2.name == "CacheTestHalf"
        assert self.cache.stats()["hits"] == 1
        assert self.cache.stats()["misses"] == 1

    def test_distinct_values_get_distinct_entries(self):
        a = {"seq": 1, "data": [1.0, 2.0]}
        b = {"seq": 2, "data": [1.0, 2.0]}
        _, _, etag_a, _ = self.manager.outgoing_keyed(a, self.full)
        _, _, etag_b, _ = self.manager.outgoing_keyed(b, self.full)
        assert etag_a != etag_b
        assert self.calls == [1, 2]

    def test_if_none_match_short_circuits_before_the_handler(self):
        value = {"seq": 1, "data": [1.0, 2.0]}
        _, _, etag, _ = self.manager.outgoing_keyed(value, self.full)
        fmt, out, etag2, not_modified = self.manager.outgoing_keyed(
            value, self.full, if_none_match=etag)
        assert not_modified and out is None and etag2 == etag
        assert self.calls == [1]                  # handler did not run again

    def test_if_none_match_star_matches(self):
        value = {"seq": 1, "data": [1.0, 2.0]}
        _, out, etag, not_modified = self.manager.outgoing_keyed(
            value, self.full, if_none_match="*")
        assert not_modified and out is None and etag is not None

    def test_stale_validator_is_ignored(self):
        value = {"seq": 1, "data": [1.0, 2.0]}
        fmt, out, etag, not_modified = self.manager.outgoing_keyed(
            value, self.full, if_none_match='"deadbeef"')
        assert not not_modified and out is not None

    def test_identity_selection_is_keyed_but_not_transformed(self):
        self.manager.update_attribute(RTT, 0.01)  # select CacheTestFull
        value = {"seq": 1, "data": [1.0, 2.0]}
        fmt, out, etag, not_modified = self.manager.outgoing_keyed(
            value, self.full)
        assert fmt is self.full and out is value and etag is not None
        assert self.calls == []
        # and the validator round-trips to a 304
        _, out2, _, nm2 = self.manager.outgoing_keyed(
            value, self.full, if_none_match=etag)
        assert nm2 and out2 is None

    def test_outgoing_still_returns_two_tuple(self):
        value = {"seq": 1, "data": [1.0, 2.0]}
        fmt, out = self.manager.outgoing(value, self.full)
        assert fmt.name == "CacheTestHalf"
        assert out == {"seq": 1, "data": [1.0]}

    def test_cacheless_manager_is_unchanged(self):
        registry, full, _ = make_registry()
        calls = []
        manager = make_manager(registry, make_handlers(calls))
        manager.update_attribute(RTT, 0.2)
        value = {"seq": 1, "data": [1.0, 2.0]}
        fmt, out, etag, not_modified = manager.outgoing_keyed(value, full)
        assert etag is None and not not_modified
        manager.outgoing_keyed(value, full)
        assert calls == [1, 1]                    # no memoization
        assert "cache" not in manager.stats()


# ----------------------------------------------------------------------
# invalidation contract
# ----------------------------------------------------------------------
class TestInvalidation:
    def setup_method(self):
        self.registry, self.full, self.half = make_registry()
        self.calls = []
        self.cache = QualityCache(self.registry)
        self.manager = make_manager(self.registry, make_handlers(self.calls),
                                    cache=self.cache)
        self.manager.update_attribute(RTT, 0.2)
        self.value = {"seq": 1, "data": [1.0, 2.0]}
        self.manager.outgoing_keyed(self.value, self.full)
        assert self.calls == [1]

    def test_redefine_flushes_the_cache(self):
        self.registry.redefine(Format.from_dict(
            "CacheTestHalf", {"seq": "int32", "data": "float32[]"}))
        assert self.cache.stats()["entries"] == 0
        assert self.cache.stats()["flushes"] == 1
        self.manager.outgoing_keyed(self.value, self.full)
        assert self.calls == [1, 1]               # handler re-ran

    def test_foreign_attribute_update_flushes(self):
        self.manager.update_attribute("memory", 512.0)
        assert self.cache.stats()["entries"] == 0
        assert self.cache.stats()["flushes"] == 1

    def test_monitored_attribute_update_does_not_flush(self):
        self.manager.update_attribute(RTT, 0.3)
        assert self.cache.stats()["entries"] == 1
        assert self.cache.stats()["flushes"] == 0

    def test_manager_stats_expose_cache_counters(self):
        stats = self.manager.stats()
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["flushes"] == 0
        assert "handler_fallbacks" in stats


class TestSandboxNoPoison:
    def test_fallback_output_is_never_cached_and_has_no_etag(self):
        registry, full, half = make_registry()
        handlers = HandlerRegistry()

        @handlers.handler("halve")
        def broken(value, src, dst, reg, attrs):
            raise RuntimeError("boom")

        sandbox = HandlerSandbox(max_strikes=2)
        cache = QualityCache(registry)
        manager = make_manager(registry, handlers, sandbox=sandbox,
                               cache=cache)
        manager.update_attribute(RTT, 0.2)
        value = {"seq": 1, "data": [1.0, 2.0]}
        for _ in range(3):                        # raise, raise, quarantined
            fmt, out, etag, not_modified = manager.outgoing_keyed(value, full)
            assert etag is None and not not_modified
            assert out is not None                # trivial projection served
        assert sandbox.is_quarantined("halve")
        assert cache.stats()["entries"] == 0      # nothing poisoned
        assert manager.handler_fallbacks == 3

    def test_recovered_handler_output_is_cached_fresh(self):
        registry, full, half = make_registry()
        fail = {"on": True}
        handlers = HandlerRegistry()

        @handlers.handler("halve")
        def flaky(value, src, dst, reg, attrs):
            if fail["on"]:
                raise RuntimeError("boom")
            return {"seq": value["seq"], "data": value["data"][::2]}

        sandbox = HandlerSandbox(max_strikes=5)
        cache = QualityCache(registry)
        manager = make_manager(registry, handlers, sandbox=sandbox,
                               cache=cache)
        manager.update_attribute(RTT, 0.2)
        value = {"seq": 1, "data": [1.0, 2.0]}
        _, _, etag, _ = manager.outgoing_keyed(value, full)
        assert etag is None
        fail["on"] = False
        _, out, etag2, _ = manager.outgoing_keyed(value, full)
        assert etag2 is not None
        assert out == {"seq": 1, "data": [1.0]}
        assert cache.stats()["entries"] == 1


# ----------------------------------------------------------------------
# payload attachment
# ----------------------------------------------------------------------
class TestPayloadAttachment:
    def test_attach_and_fetch(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry)
        key = cache.key(full, half, {"seq": 1, "data": [1.0]})
        cache.store(key, half, {"seq": 1, "data": [1.0]})
        assert cache.payload(key) is None
        cache.attach_payload(key, b"\x01\x02\x03")
        assert cache.payload(key) == b"\x01\x02\x03"
        # the value entry survives alongside the payload
        assert cache.lookup(key).wire_value == {"seq": 1, "data": [1.0]}

    def test_attach_to_missing_entry_is_a_no_op(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry)
        cache.attach_payload('"0000"', b"data")
        assert cache.payload('"0000"') is None

    def test_oversize_payload_is_rejected(self):
        registry, full, half = make_registry()
        value = {"seq": 1, "data": [1.0]}
        # headroom for the value itself, but not for the payload on top
        cache = QualityCache(registry,
                             max_payload_bytes=estimated_weight(value) + 4)
        key = cache.key(full, half, value)
        cache.store(key, half, value)
        cache.attach_payload(key, b"too big to cache")
        assert cache.payload(key) is None
        assert cache.lookup(key) is not None      # value entry kept

    def test_payload_budget_evicts_coldest(self):
        registry, full, half = make_registry()
        entry_weight = estimated_weight({"seq": 0, "data": []}) + 60
        cache = QualityCache(registry,
                             max_payload_bytes=2 * entry_weight + 10)
        keys = []
        for seq in range(3):
            key = cache.key(full, half, {"seq": seq, "data": []})
            cache.store(key, half, {"seq": seq, "data": []})
            cache.attach_payload(key, bytes(60))
            keys.append(key)
        # three full entries exceed the budget: the coldest one went
        assert cache.payload(keys[2]) is not None
        assert cache.lookup(keys[0]) is None

    def test_value_weight_counts_against_budget(self):
        # REVIEW: the budget must bound resident wire_values, not just
        # attached payloads — a flood of distinct large values may not
        # grow RSS past max_payload_bytes.
        registry, full, half = make_registry()
        array_bytes = 8 * 1024
        budget = 3 * (array_bytes + 512)
        cache = QualityCache(registry, max_payload_bytes=budget)
        for seq in range(12):
            value = {"seq": seq, "data": np.arange(1024, dtype=np.float64)
                     + seq}
            key = cache.key(full, half, value)
            cache.store(key, half, value)
        stats = cache.stats()
        assert stats["bytes"] <= budget
        assert stats["entries"] <= 3
        assert stats["evictions"] >= 9

    def test_value_alone_over_budget_is_never_admitted(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry, max_payload_bytes=1024)
        value = {"seq": 1, "data": np.zeros(4096, dtype=np.float64)}
        key = cache.key(full, half, value)
        cache.store(key, half, value)
        assert cache.lookup(key) is None
        assert cache.stats()["bytes"] == 0


# ----------------------------------------------------------------------
# result memo (pure operation handlers) — same LRU, own counters
# ----------------------------------------------------------------------
class TestResultMemo:
    def test_key_is_the_same_with_or_without_a_supplied_digest(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry)
        value = {"seq": 1, "data": np.arange(200, dtype=np.float64)}
        digest = canonical_digest(value)
        for variant in ("pbio:native", "pbio:compact", "xml:r"):
            assert cache.key(full, half, value, variant) \
                == cache.key(full, half, value, variant, digest) \
                == cache.key(full, half, None, variant, digest)

    def test_outgoing_keyed_etag_unchanged_by_a_supplied_digest(self):
        registry, full, half = make_registry()
        manager = make_manager(registry, make_handlers(),
                               cache=QualityCache(registry))
        manager.update_attribute(RTT, 0.2)
        value = {"seq": 1, "data": [1.0, 2.0]}
        plain = manager.outgoing_keyed(value, full)
        keyed = manager.outgoing_keyed(
            value, full, value_digest=canonical_digest(value))
        assert keyed[2] == plain[2] and keyed[1] == plain[1]

    def test_store_then_lookup_counts_apart_from_quality_entries(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry)
        assert cache.result("Get", "p1") is None
        result = {"seq": 1, "data": [1.0]}
        stored = cache.store_result("Get", "p1", result, cache.flushes)
        assert stored == (result, canonical_digest(result))
        assert cache.result("Get", "p1") == stored
        assert cache.result("Other", "p1") is None
        stats = cache.stats()
        assert (stats["result_hits"], stats["result_misses"]) == (1, 2)
        assert stats["result_entries"] == 1 and stats["entries"] == 1
        assert (stats["hits"], stats["misses"]) == (0, 0)

    def test_memoised_arrays_are_read_only(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry)
        result = {"seq": 1, "data": np.zeros(8),
                  "nested": [{"a": np.ones(3)}]}
        cache.store_result("Get", "p", result, cache.flushes)
        memo, _ = cache.result("Get", "p")
        with pytest.raises(ValueError):
            memo["data"][0] = 1.0
        with pytest.raises(ValueError):
            memo["nested"][0]["a"][0] = 2.0

    def test_every_flush_path_drops_memos(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry)
        manager = make_manager(registry, make_handlers(), cache=cache)
        for flush in (
                cache.invalidate,
                lambda: manager.update_attribute("gain", 2.0),
                lambda: registry.redefine(Format.from_dict(
                    "CacheTestHalf",
                    {"seq": "int32", "data": "float32[]"}))):
            cache.store_result("Get", "p", {"seq": 1, "data": []},
                               cache.flushes)
            assert cache.result("Get", "p") is not None
            flush()
            assert cache.result("Get", "p") is None
        # the monitored attribute and RTT telemetry flush nothing
        cache.store_result("Get", "p", {"seq": 1, "data": []},
                           cache.flushes)
        manager.update_attribute(RTT, 0.3)
        assert cache.result("Get", "p") is not None

    def test_result_computed_across_a_flush_is_not_kept(self):
        registry, full, half = make_registry()
        cache = QualityCache(registry)
        before = cache.flushes
        cache.invalidate()            # e.g. put_image while the handler ran
        result = {"seq": 1, "data": []}
        assert cache.store_result("Get", "p", result, before) \
            == (result, canonical_digest(result))
        assert cache.result("Get", "p") is None

    def test_memos_share_the_byte_budget_and_lru(self):
        registry, full, half = make_registry()
        array_bytes = 8 * 1024
        cache = QualityCache(registry,
                             max_payload_bytes=3 * (array_bytes + 512))
        for seq in range(3):
            cache.store_result("Get", f"p{seq}", {
                "seq": seq, "data": np.zeros(1024)}, cache.flushes)
        assert cache.result("Get", "p0") is not None   # refreshes p0
        value = {"seq": 9, "data": np.ones(1024)}
        cache.store(cache.key(full, half, value), half, value)
        # the quality entry pushed out the coldest memo — p1, not p0
        assert cache.result("Get", "p1") is None
        assert cache.result("Get", "p0") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["result_entries"] == 2
        assert stats["bytes"] <= cache.max_payload_bytes

    def test_memo_hit_refreshes_the_idle_ttl(self):
        now = [0.0]
        registry, full, half = make_registry()
        cache = QualityCache(registry, ttl_s=10.0, time_fn=lambda: now[0])
        cache.store_result("Get", "p", {"seq": 1, "data": []},
                           cache.flushes)
        now[0] = 8.0
        assert cache.result("Get", "p") is not None
        now[0] = 16.0                       # 8 s idle since the hit
        cache.store(cache.key(full, half, {"seq": 2, "data": []}), half,
                    {"seq": 2, "data": []})            # sweeps on insert
        assert cache.result("Get", "p") is not None
        now[0] = 30.0
        cache.store(cache.key(full, half, {"seq": 3, "data": []}), half,
                    {"seq": 3, "data": []})
        assert cache.result("Get", "p") is None
