"""Tests for the decompressed-leaf LRU cache and its invalidation."""

from __future__ import annotations

import pytest

from repro.core import LeafCache, Spate, SpateConfig, Table
from repro.core.config import DecayPolicyConfig
from repro.core.leaf_cache import LeafDescriptor
from repro.telco import TelcoTraceGenerator, TraceConfig


def _leaf(names=("a",), rows: int = 1):
    """(descriptor, {column: cells}) of one row-text leaf table."""
    return LeafDescriptor(names, rows), {name: ["x"] * rows for name in names}


class TestLeafCacheUnit:
    def test_get_miss_then_hit(self):
        cache = LeafCache(1000)
        assert cache.get(0, "CDR") == (None, None)
        descriptor, columns = _leaf()
        cache.put(0, "CDR", descriptor, columns, 100)
        assert cache.get(0, "CDR") == (descriptor, columns)
        assert cache.hits == 1 and cache.misses == 1

    def test_byte_accounting(self):
        # A fully decoded row-text leaf is charged its decompressed
        # payload size in total: an even share per column, the
        # remainder on the descriptor.
        cache = LeafCache(1000)
        cache.put(0, "A", *_leaf(("a", "b", "c")), 301)
        cache.put(0, "B", *_leaf(), 200)
        assert cache.current_bytes == 501
        assert len(cache) == 4 + 2
        cache.invalidate_epoch(0)
        assert cache.current_bytes == 0 and len(cache) == 0

    def test_reinsert_replaces_charge(self):
        cache = LeafCache(1000)
        cache.put(0, "A", *_leaf(), 300)
        cache.put(0, "A", *_leaf(), 500)
        assert cache.current_bytes == 500 and len(cache) == 2

    def test_lru_eviction_order(self):
        cache = LeafCache(600)
        cache.put(0, "A", *_leaf(), 300)
        cache.put(1, "B", *_leaf(), 300)
        cache.get(0, "A")  # refresh A: B becomes the LRU leaf
        evicted = cache.put(2, "C", *_leaf(), 300)
        assert evicted == 2  # B's column and its descriptor
        assert cache.has_header(0, "A") and cache.has_header(2, "C")
        assert not cache.has_header(1, "B")
        assert cache.evictions == 2

    def test_evicted_column_turns_the_probe_into_a_miss(self):
        # One column of a resident row-text leaf falls out of the LRU:
        # a probe that wants it misses (the scan re-decodes the leaf),
        # one that does not still hits.
        cache = LeafCache(400)
        descriptor, columns = _leaf(("a", "b"))
        cache.put(0, "A", descriptor, columns, 300)
        cache.get(0, "A", ("b",))  # refresh b: a is the LRU entry
        cache.put(1, "B", *_leaf(), 200)
        assert cache.resident_channels(0, "A") == {"b"}
        assert cache.get(0, "A", ("a",)) == (descriptor, None)
        assert cache.get(0, "A", None) == (descriptor, None)
        assert cache.get(0, "A", ("b",)) == (descriptor, {"b": columns["b"]})
        cache.put(0, "A", descriptor, columns, 300)  # the re-decode
        assert cache.get(0, "A", ("a",))[1] == {"a": columns["a"]}

    def test_oversized_refresh_drops_stale_entry(self):
        # A fungus-rewritten leaf that grew past the cap must not keep
        # serving its pre-rewrite rows from the cache.
        cache = LeafCache(400)
        cache.put(0, "A", *_leaf(rows=1), 300)
        cache.put(0, "A", *_leaf(rows=2), 500)  # oversized refresh
        assert cache.get(0, "A")[1] is None
        assert cache.resident_channels(0, "A") == set()
        assert len(cache) == 1  # the fresh descriptor alone

    def test_oversized_payload_not_cached(self):
        cache = LeafCache(100)
        assert cache.put(0, "A", *_leaf(), 1000) == 0
        assert cache.resident_channels(0, "A") == set()
        assert cache.get(0, "A")[1] is None

    def test_zero_capacity_disables_storage(self):
        cache = LeafCache(0)
        cache.put(0, "A", *_leaf(), 1)
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LeafCache(-1)

    def test_stats_snapshot(self):
        cache = LeafCache(600)
        cache.put(0, "A", *_leaf(), 300)
        cache.get(0, "A")
        cache.get(9, "Z")
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.entries == 2 and stats.current_bytes == 300
        assert stats.hit_rate == pytest.approx(0.5)


def _build_spate(**config_kwargs) -> tuple[Spate, TelcoTraceGenerator]:
    generator = TelcoTraceGenerator(TraceConfig(scale=0.002, days=1, seed=11))
    spate = Spate(SpateConfig(codec="gzip-ref", executor="serial", **config_kwargs))
    spate.register_cells(generator.cells_table())
    return spate, generator


class TestLeafCacheIntegration:
    def test_second_read_is_a_hit(self):
        spate, generator = _build_spate(
            decay=DecayPolicyConfig(enabled=False)
        )
        spate.ingest(generator.snapshot(0))
        spate.read_table(0, "CDR")
        spate.read_table(0, "CDR")
        assert spate.metrics.leaf_cache_hits == 1
        assert spate.metrics.leaf_cache_misses == 1
        assert spate.metrics.leaf_cache_bytes > 0

    def test_cached_read_returns_same_rows(self):
        spate, generator = _build_spate(decay=DecayPolicyConfig(enabled=False))
        spate.ingest(generator.snapshot(0))
        first = spate.read_table(0, "CDR")
        second = spate.read_table(0, "CDR")
        assert spate.metrics.leaf_cache_hits == 1  # served from cache
        assert first.rows == second.rows
        # Cached cells are shared and read-only; rows handed out are
        # fresh lists a caller may keep or change.
        assert first.rows is not second.rows
        assert first.rows[0] is not second.rows[0]

    def test_cache_disabled_by_config(self):
        spate, generator = _build_spate(
            leaf_cache_bytes=0, decay=DecayPolicyConfig(enabled=False)
        )
        spate.ingest(generator.snapshot(0))
        assert spate.leaf_cache is None
        spate.read_table(0, "CDR")
        spate.read_table(0, "CDR")
        assert spate.metrics.leaf_cache_hits == 0

    def test_run_decay_invalidates_cached_epochs(self):
        spate, generator = _build_spate(
            decay=DecayPolicyConfig(enabled=True, keep_epochs=2)
        )
        spate.ingest(generator.snapshot(0))
        spate.read_table(0, "CDR")
        assert spate.leaf_cache.has_header(0, "CDR")
        for epoch in range(1, 4):
            spate.ingest(generator.snapshot(epoch))
        # keep_epochs=2 with frontier 3 evicts epochs 0 and 1.
        assert not spate.leaf_cache.has_header(0, "CDR")
        assert spate.leaf_cache.resident_channels(0, "CDR") == set()
        assert spate.metrics.leaf_cache_invalidations >= 1

    def test_decay_groups_invalidate_rewritten_leaves(self):
        spate, generator = _build_spate(decay=DecayPolicyConfig(enabled=False))
        for epoch in range(3):
            spate.ingest(generator.snapshot(epoch))
        spate.finalize()
        before = spate.read_table(0, "CDR")
        report = spate.decay_groups(older_than_epoch=2, keep_fraction=0.1)
        assert report.leaves_rewritten >= 1
        assert 0 in report.rewritten_epochs
        after = spate.read_table(0, "CDR")
        # The rewrite dropped records; a stale cache would return `before`.
        assert after is not before
        assert len(after.rows) < len(before.rows)

    def test_evicted_column_is_re_decoded_with_the_same_cells(self):
        spate, generator = _build_spate(decay=DecayPolicyConfig(enabled=False))
        spate.ingest(generator.snapshot(0))
        names, cold = spate.read_columns("CDR", 0, 0)
        cache = spate.leaf_cache
        assert cache.resident_channels(0, "CDR") == set(names)
        # Make one column the LRU entry of a cache one byte too small.
        leaf, __ = cache.get(0, "CDR", [c for c in names if c != "duration_s"])
        payload = cache.current_bytes  # the one fully resident leaf's charge
        cache.capacity_bytes = payload - 1
        assert cache.put(0, "CDR", leaf, {}, payload) == 1
        assert cache.resident_channels(0, "CDR") == set(names) - {"duration_s"}
        # A scan of a column still there hits and reads nothing ...
        reads = _count_reads(spate)
        __, warm = spate.read_columns("CDR", 0, 0, columns=["cell_id"])
        assert spate.last_scan_stats.cache_hits == 1 and reads == []
        assert warm[names.index("cell_id")] == cold[names.index("cell_id")]
        # ... one that wants the evicted column misses, re-decodes the
        # leaf and returns the same cells.
        misses = spate.metrics.leaf_cache_misses
        __, again = spate.read_columns("CDR", 0, 0, columns=["duration_s"])
        assert spate.metrics.leaf_cache_misses == misses + 1
        assert spate.last_scan_stats.bytes_decompressed > 0 and len(reads) == 1
        assert again[names.index("duration_s")] == cold[names.index("duration_s")]

    def test_explore_uses_cache_across_queries(self):
        spate, generator = _build_spate(decay=DecayPolicyConfig(enabled=False))
        for epoch in range(4):
            spate.ingest(generator.snapshot(epoch))
        spate.finalize()
        spate.explore("CDR", ("downflux",), None, 0, 3)
        misses_after_first = spate.metrics.leaf_cache_misses
        spate.explore("CDR", ("downflux",), None, 0, 3)
        assert spate.metrics.leaf_cache_misses == misses_after_first
        assert spate.metrics.leaf_cache_hits >= 4
        assert "leaf cache" in spate.metrics.summary()


# ----------------------------------------------------------------------
# Typed-channel residency: headers and decoded channels share the budget
# ----------------------------------------------------------------------


def _typed_leaf(rows: int = 4, columns=("cell_id", "duration_s", "note")):
    """(descriptor, {column: cells}) of one typed-channel leaf table."""
    from repro.compression import get_codec
    from repro.compression.typedchannel import decode_columns, read_header
    from repro.core.layout import serialize_table

    table = Table(
        name="CDR",
        columns=list(columns),
        rows=[[f"c{i % 2}", str(i), "pad"][: len(columns)] for i in range(rows)],
    )
    blob = get_codec("typedchannel").compress(serialize_table(table, "columnar"))
    header = read_header(blob)
    names, cells, __ = decode_columns(blob, None, header)
    return LeafDescriptor(names, header.n_rows, header), dict(zip(names, cells))


def _channel_charge(header, column: str) -> int:
    return 8 * header.n_rows + header.zone(column).raw_len


class TestTypedResidencyUnit:
    def test_header_and_channels_are_charged(self):
        leaf, channels = _typed_leaf()
        header = leaf.header
        cache = LeafCache(100_000)
        cache.put(0, "CDR", leaf, {"cell_id": channels["cell_id"]})
        assert cache.current_bytes == header.body_start + _channel_charge(
            header, "cell_id"
        )
        assert len(cache) == 2
        assert cache.has_header(0, "CDR")
        assert cache.resident_channels(0, "CDR") == {"cell_id"}
        # A channel is charged at least 8 bytes a cell plus its encoding.
        assert _channel_charge(header, "cell_id") >= 8 * header.n_rows

    def test_lookup_serves_only_complete_channel_sets(self):
        leaf, channels = _typed_leaf()
        cache = LeafCache(100_000)
        cache.put(
            3, "CDR", leaf,
            {"cell_id": channels["cell_id"], "note": channels["note"]},
        )
        got_leaf, got = cache.get(3, "CDR", ("cell_id", "note"))
        assert got_leaf is leaf
        assert got == {"cell_id": channels["cell_id"], "note": channels["note"]}
        assert got["cell_id"] is channels["cell_id"]  # shared, not copied
        # One wanted channel missing: the header still comes back (no
        # parse, zone gate before the read) but the leaf must be decoded.
        got_leaf, got = cache.get(3, "CDR", ("cell_id", "duration_s"))
        assert got_leaf.header is leaf.header and got is None
        # columns=None wants every channel of the leaf.
        assert cache.get(3, "CDR", None)[1] is None
        # Names the leaf does not store constrain nothing.
        assert cache.get(3, "CDR", ("note", "ghost"))[1] == {
            "note": channels["note"]
        }
        assert (cache.hits, cache.misses) == (2, 2)
        # A cold leaf is one miss, whatever was asked for.
        assert cache.get(4, "CDR", ("cell_id",)) == (None, None)
        assert cache.misses == 3

    def test_lookup_prefers_the_full_table(self):
        # A leaf left fully resident by one full decode serves every
        # projection of it, and the probe hands back only what it asked.
        leaf, channels = _typed_leaf()
        cache = LeafCache(100_000)
        cache.put(0, "CDR", leaf, channels)
        assert cache.get(0, "CDR", ("cell_id",)) == (
            leaf, {"cell_id": channels["cell_id"]}
        )
        assert cache.get(0, "CDR", None) == (leaf, channels)
        assert cache.hits == 2

    def test_channels_evict_lru_under_a_small_capacity(self):
        leaf, channels = _typed_leaf(rows=50)
        header = leaf.header
        one = max(_channel_charge(header, name) for name in channels)
        cache = LeafCache(header.body_start + 2 * one)
        cache.put(0, "CDR", leaf, {"cell_id": channels["cell_id"]})
        cache.put(0, "CDR", leaf, {"duration_s": channels["duration_s"]})
        assert cache.resident_channels(0, "CDR") == {"cell_id", "duration_s"}
        cache.get(0, "CDR", ("cell_id",))  # refresh: duration_s is LRU
        evicted = cache.put(0, "CDR", leaf, {"note": channels["note"]})
        assert evicted >= 1
        assert "duration_s" not in cache.resident_channels(0, "CDR")
        assert "cell_id" in cache.resident_channels(0, "CDR")
        assert cache.has_header(0, "CDR")  # re-put last, so most recent
        assert cache.current_bytes <= cache.capacity_bytes
        assert cache.evictions == evicted

    def test_oversized_channel_and_header_are_refused(self):
        leaf, channels = _typed_leaf(rows=50)
        header = leaf.header
        charge = _channel_charge(header, "duration_s")
        assert header.body_start < charge
        cache = LeafCache(charge - 1)  # fits the header, not the channel
        cache.put(0, "CDR", leaf, {"duration_s": channels["duration_s"]})
        assert cache.resident_channels(0, "CDR") == set()
        assert cache.has_header(0, "CDR")
        tiny = LeafCache(header.body_start - 1)
        tiny.put(0, "CDR", leaf, {})
        assert len(tiny) == 0 and tiny.current_bytes == 0

    def test_zero_capacity_stores_no_header_or_channel(self):
        leaf, channels = _typed_leaf()
        cache = LeafCache(0)
        cache.put(0, "CDR", leaf, channels)
        assert len(cache) == 0
        assert cache.get(0, "CDR", None) == (None, None)

    def test_invalidate_epoch_drops_every_kind(self):
        # Descriptor and columns go together, typed leaf or row-text.
        leaf, channels = _typed_leaf()
        header = leaf.header
        cache = LeafCache(100_000)
        cache.put(0, "NMS", *_leaf(("a", "b")), 10)
        cache.put(0, "CDR", leaf, channels)
        cache.put(1, "CDR", leaf, channels)
        dropped = cache.invalidate_epoch(0)
        assert dropped == (1 + 2) + (1 + len(channels))
        for table in ("NMS", "CDR"):
            assert not cache.has_header(0, table)
            assert cache.resident_channels(0, table) == set()
        assert cache.has_header(1, "CDR")
        assert cache.current_bytes == header.body_start + sum(
            _channel_charge(header, name) for name in channels
        )

    def test_repeated_channel_names_are_never_cached(self):
        # Only a hand-built COL1 payload can repeat a column name; its
        # channels cannot be keyed by column.
        from repro.compression.typedchannel import (
            ChannelZoneMap,
            TypedChannelHeader,
        )

        zone = ChannelZoneMap("a", 1, 1, 0, 0, 0, 0, None)
        header = TypedChannelHeader(
            mode=2, columns=("a", "a"), n_rows=1, zones=(zone, zone), body_start=9
        )
        assert not header.unique_names
        cache = LeafCache(1000)
        leaf = LeafDescriptor(header.columns, 1, header)
        assert cache.put(0, "T", leaf, {"a": ["x"]}) == 0
        assert len(cache) == 0


def _typed_spate(**config_kwargs):
    generator = TelcoTraceGenerator(TraceConfig(scale=0.002, days=1, seed=11))
    spate = Spate(SpateConfig(
        codec="typedchannel", layout="columnar", executor="serial",
        decay=DecayPolicyConfig(enabled=False), **config_kwargs,
    ))
    spate.register_cells(generator.cells_table())
    # The busy part of the day: leaves differ enough for zone maps to bite.
    for epoch in range(20, 32):
        spate.ingest(generator.snapshot(epoch))
    spate.finalize()
    return spate


def _count_reads(spate) -> list[str]:
    """Wrap the DFS read the scan context is built over; returns the
    list the wrapper appends every read path to."""
    reads: list[str] = []
    original = spate.dfs.read_file

    def counting(path, *args, **kwargs):
        reads.append(path)
        return original(path, *args, **kwargs)

    spate.dfs.read_file = counting
    return reads


SELECTIVE = "SELECT COUNT(*) AS n, SUM(duration_s) AS t FROM CDR WHERE duration_s >= 400"


class TestTypedResidencyIntegration:
    def test_warm_column_scan_reads_nothing(self):
        spate = _typed_spate()
        sql = "SELECT call_type, COUNT(*) AS n FROM CDR GROUP BY call_type"
        cold = spate.sql(sql)
        first = spate.last_scan_stats
        # (The planner's schema probe left one leaf's header resident —
        # it asks for no column, so it decoded no channel.)
        assert first.cache_hits == 0 and first.header_cache_hits == 1
        assert first.channels_decoded == 12
        reads = _count_reads(spate)
        warm = spate.sql(sql)
        stats = spate.last_scan_stats
        assert (warm.columns, warm.rows) == (cold.columns, cold.rows)
        assert reads == []
        assert stats.bytes_decompressed == 0 and stats.channels_decoded == 0
        assert stats.cache_hits == stats.leaves_scanned == 12
        assert stats.header_cache_hits == 12
        assert stats.channels_from_cache == 12  # one column each
        # A query over another column decodes only what is not resident.
        spate.sql("SELECT SUM(duration_s) AS t FROM CDR")
        again = spate.last_scan_stats
        assert again.header_cache_hits == 12
        assert again.cache_hits == 0
        assert again.channels_decoded == 12

    def test_zone_pruned_resident_leaf_costs_no_dfs_read(self):
        spate = _typed_spate()
        spate.sql(SELECTIVE)
        first = spate.last_scan_stats
        # (Only the planner's schema-probe leaf starts out resident.)
        assert first.leaves_zone_pruned > 0 and first.header_cache_hits == 1
        # The pruned leaves were read once (to parse the header that
        # disproved them) and never decoded: only their header is resident.
        pruned = [
            epoch for epoch in spate.last_scan_coverage["epochs_pruned"]
            if spate.leaf_cache.has_header(epoch, "CDR")
        ]
        assert len(pruned) == first.leaves_zone_pruned
        assert all(
            spate.leaf_cache.resident_channels(epoch, "CDR") == set()
            for epoch in pruned
        )
        reads = _count_reads(spate)
        spate.sql(SELECTIVE)
        stats = spate.last_scan_stats
        assert stats.leaves_zone_pruned == first.leaves_zone_pruned
        assert reads == []
        assert stats.leaves_zone_pruned <= stats.header_cache_hits
        assert stats.header_cache_hits == 12
        assert stats.channel_bytes_skipped > 0

    def test_warm_explore_is_served_from_channels(self):
        spate = _typed_spate()
        cold = spate.explore("CDR", ("downflux", "duration_s"), None, 20, 31)
        reads = _count_reads(spate)
        warm = spate.explore("CDR", ("downflux", "duration_s"), None, 20, 31)
        assert warm.records == cold.records and warm.columns == cold.columns
        assert reads == []
        assert warm.scan_stats.channels_from_cache == 2 * warm.scan_stats.leaves_scanned
        assert warm.scan_stats.bytes_decompressed == 0

    def test_cache_off_disables_all_three_residencies(self):
        spate = _typed_spate(leaf_cache_bytes=0)
        assert spate.leaf_cache is None
        context = spate._scan_context()
        assert context.cache_get is None and context.cache_put is None
        reads = _count_reads(spate)
        for __ in range(2):
            spate.sql(SELECTIVE)
            stats = spate.last_scan_stats
            assert stats.cache_hits == 0
            assert stats.header_cache_hits == 0
            assert stats.channels_from_cache == 0
        spate.explore("CDR", ("downflux",), None, 20, 31)
        spate.read_table(20, "CDR")
        spate.read_table(20, "CDR")
        assert spate.metrics.leaf_cache_hits == 0
        assert spate.metrics.leaf_cache_misses == 0
        assert spate.metrics.query_header_cache_hits == 0
        assert len(reads) >= 2 * 12  # every pass went back to the DFS

    def test_cache_off_parses_each_header_once_per_scan(self, monkeypatch):
        import repro.compression.typedchannel as typedchannel

        spate = _typed_spate(leaf_cache_bytes=0)
        calls = []
        original = typedchannel.read_header

        def counting(blob):
            calls.append(1)
            return original(blob)

        from repro.query.sql.planner import ScanPredicate

        monkeypatch.setattr(typedchannel, "read_header", counting)
        spate.read_columns(
            "CDR", 20, 31, columns=["duration_s"],
            predicates=[ScanPredicate("duration_s", ">=", 400)],
        )
        stats = spate.last_scan_stats
        assert stats.leaves_zone_pruned > 0 and stats.leaves_scanned > 0
        # One parse per leaf: the gate's, reused by the decode.
        assert len(calls) == stats.leaves_scanned + stats.leaves_zone_pruned == 12

    def test_metrics_and_cache_counters_agree(self):
        # Typed leaves (projected decodes that now enter the cache) ...
        spate = _typed_spate()
        for __ in range(2):
            spate.sql(SELECTIVE)
            spate.sql("SELECT * FROM NMS")
            spate.explore("CDR", ("downflux",), None, 20, 31)
            spate.read_table(21, "CDR")
        cache = spate.leaf_cache.stats()
        assert spate.metrics.leaf_cache_hits == cache.hits > 0
        assert spate.metrics.leaf_cache_misses == cache.misses > 0
        assert spate.metrics.leaf_cache_hit_rate == pytest.approx(cache.hit_rate)

        # ... and projected columnar decodes, which leave the columns
        # they decoded resident like any other leaf: the first pass
        # misses, the second hits, each counted at the probe.
        generator = TelcoTraceGenerator(TraceConfig(scale=0.002, days=1, seed=11))
        columnar = Spate(SpateConfig(
            codec="gzip-ref", layout="columnar", executor="serial",
            decay=DecayPolicyConfig(enabled=False),
        ))
        columnar.register_cells(generator.cells_table())
        for epoch in range(3):
            columnar.ingest(generator.snapshot(epoch))
        for __ in range(2):
            columnar.read_columns("CDR", 0, 2, columns=["duration_s"])
        cache = columnar.leaf_cache.stats()
        assert cache.hits == 3 and cache.misses == 3
        assert columnar.leaf_cache.resident_channels(0, "CDR") == {"duration_s"}
        assert columnar.metrics.leaf_cache_misses == cache.misses
        assert columnar.metrics.leaf_cache_hits == cache.hits

    def test_fungus_rewrite_drops_resident_header_and_channels(self):
        spate = _typed_spate()
        sql = "SELECT COUNT(*) AS n, SUM(duration_s) AS t FROM CDR"
        before = spate.sql(sql, 20, 25).rows
        assert spate.leaf_cache.has_header(21, "CDR")
        report = spate.decay_groups(older_than_epoch=26, keep_fraction=0.1)
        assert 21 in report.rewritten_epochs
        assert not spate.leaf_cache.has_header(21, "CDR")
        assert spate.leaf_cache.resident_channels(21, "CDR") == set()
        after = spate.sql(sql, 20, 25).rows
        # The rewrite dropped records; stale channels would still count them.
        assert int(after[0][0]) < int(before[0][0])

    def test_residency_shows_in_explain_and_metrics_summary(self):
        spate = _typed_spate()
        spate.sql(SELECTIVE)
        report = spate.explain(SELECTIVE)
        assert "headers and" in report and "channels from cache" in report
        summary = spate.metrics.summary()
        assert "headers and" in summary and "channels from cache" in summary
