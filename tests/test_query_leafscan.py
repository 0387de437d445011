"""Leaf-scan machinery: ScanStats accounting and zone-map pruning.

Two halves:

- :class:`~repro.query.leafscan.ScanStats` merge arithmetic must be
  exact and honest — folded backends are never silently overwritten,
  and a zero-wall scan reports no speedup rather than a fabricated
  1.0x;
- :func:`~repro.query.leafscan.zone_map_prunes` may only skip a leaf
  when its zone maps *disprove* a predicate under the executor's exact
  value semantics — verified both on hand-built cases and by property:
  whenever the gate prunes, no decoded row passes the predicate.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import get_codec
from repro.core.layout import serialize_table
from repro.core.snapshot import Table
from repro.query.leafscan import (
    TASK_COLUMNS,
    TASK_HEADER,
    ScanContext,
    ScanStats,
    decode_leaf_task,
    parse_header,
)
from repro.query.leafscan import zone_map_prunes as header_prunes
from repro.query.sql.planner import ScanPredicate
from repro.query.sql.values import predicate_passes


class TestScanStatsMerge:
    def _stats(self, **kwargs) -> ScanStats:
        stats = ScanStats()
        for key, value in kwargs.items():
            setattr(stats, key, value)
        return stats

    def test_counter_arithmetic(self):
        a = self._stats(
            leaves_scanned=3, leaves_pruned=2, leaves_zone_pruned=1,
            cache_hits=1, bytes_decompressed=100, channels_decoded=4,
            channel_bytes_skipped=50, wall_seconds=0.5, task_seconds=1.0,
        )
        b = self._stats(
            leaves_scanned=5, leaves_pruned=0, leaves_zone_pruned=7,
            cache_hits=2, bytes_decompressed=900, channels_decoded=6,
            channel_bytes_skipped=450, wall_seconds=0.25, task_seconds=0.5,
        )
        a.merge(b)
        assert a.leaves_scanned == 8
        assert a.leaves_pruned == 2
        assert a.leaves_zone_pruned == 8
        assert a.cache_hits == 3
        assert a.bytes_decompressed == 1000
        assert a.channels_decoded == 10
        assert a.channel_bytes_skipped == 500
        assert a.wall_seconds == pytest.approx(0.75)
        assert a.task_seconds == pytest.approx(1.5)

    def test_residency_counters_merge_and_describe(self):
        a = self._stats(header_cache_hits=3, channels_from_cache=5)
        a.merge(self._stats(header_cache_hits=1, channels_from_cache=2))
        assert (a.header_cache_hits, a.channels_from_cache) == (4, 7)
        assert "4 headers and 7 channels from cache" in a.describe()
        assert "from cache)" in ScanStats().describe()  # the leaf count
        assert "headers and" not in ScanStats().describe()

    def test_merge_keeps_single_backend(self):
        a = self._stats(backend="thread")
        a.merge(self._stats(backend="thread"))
        assert a.backend == "thread"

    def test_merge_empty_backend_is_neutral(self):
        a = self._stats(backend="")
        a.merge(self._stats(backend="process"))
        assert a.backend == "process"
        a.merge(self._stats(backend=""))
        assert a.backend == "process"

    def test_merge_differing_backends_become_mixed(self):
        a = self._stats(backend="thread")
        a.merge(self._stats(backend="process"))
        assert a.backend == "mixed"
        # mixed is sticky: further folds never un-mix it.
        a.merge(self._stats(backend="thread"))
        assert a.backend == "mixed"

    def test_on_run_folds_backend_the_same_way(self):
        class Run:
            wall_seconds = 0.1
            task_seconds = 0.2
            backend = "process"

        a = self._stats(backend="thread", wall_seconds=0.4, task_seconds=0.4)
        a.on_run(Run())
        assert a.backend == "mixed"
        assert a.wall_seconds == pytest.approx(0.5)
        assert a.task_seconds == pytest.approx(0.6)

    def test_prune_rate_counts_zone_pruned_leaves(self):
        stats = self._stats(
            leaves_scanned=2, leaves_pruned=1, leaves_zone_pruned=5
        )
        assert stats.prune_rate == pytest.approx(6 / 8)

    def test_zero_wall_speedup_is_zero_not_one(self):
        stats = self._stats(task_seconds=1.0)
        assert stats.wall_seconds == 0.0
        assert stats.speedup == 0.0
        assert "speedup n/a" in stats.describe()

    def test_describe_shows_zone_counters_only_when_present(self):
        quiet = ScanStats()
        assert "zone-pruned" not in quiet.describe()
        assert "channels decoded" not in quiet.describe()
        loud = self._stats(
            leaves_zone_pruned=3, channels_decoded=2, channel_bytes_skipped=10
        )
        described = loud.describe()
        assert "3 zone-pruned" in described
        assert "2 channels decoded" in described
        assert "10 channel bytes skipped" in described


def typed_task(table: Table, layout: str = "columnar", columns=None):
    codec = get_codec("typedchannel")
    blob = codec.compress(serialize_table(table, layout))
    return blob_task("typedchannel", layout, table.name, blob, columns)


def blob_task(codec_name, layout, table_name, blob, columns=None):
    """A decode task as ``ScanContext.decode_task`` builds it: the
    header is parsed once, there, and rides in the task."""
    header = parse_header(blob) if codec_name == "typedchannel" else None
    return (codec_name, None, layout, table_name, blob, columns, header)


def zone_map_prunes(task, predicates=(), cell_filter=None):
    """The gate as the scan runs it: over the task's carried header."""
    return header_prunes(task[TASK_HEADER], predicates, cell_filter)


def duration_table(values, extra_col=None) -> Table:
    columns = ["cell_id", "duration_s"]
    rows = [[f"c{i % 3}", v] for i, v in enumerate(values)]
    if extra_col is not None:
        columns.append("note")
        for row in rows:
            row.append(extra_col)
    return Table(name="CDR", columns=columns, rows=rows)


class TestZoneMapPrunes:
    def test_non_typedchannel_tasks_never_prune(self):
        task = blob_task("gzip-ref", "row", "CDR", b"whatever")
        assert zone_map_prunes(
            task, [ScanPredicate("duration_s", "=", 1)]
        ) == (False, 0)

    def test_raw_mode_blob_never_prunes(self):
        codec = get_codec("typedchannel")
        task = blob_task(
            "typedchannel", "row", "CDR", codec.compress(b"not a table")
        )
        assert zone_map_prunes(
            task, [ScanPredicate("duration_s", "=", 1)]
        ) == (False, 0)

    def test_corrupt_blob_never_prunes_here(self):
        task = blob_task("typedchannel", "row", "CDR", b"garbage")
        assert zone_map_prunes(
            task, [ScanPredicate("duration_s", "=", 1)]
        ) == (False, 0)

    def test_bounds_disprove_range_predicates(self):
        task = typed_task(duration_table(["10", "20", "30"]))
        for op, value, pruned in [
            (">", 30, True), (">", 29, False),
            (">=", 31, True), (">=", 30, False),
            ("<", 10, True), ("<", 11, False),
            ("<=", 9, True), ("<=", 10, False),
            ("=", 35, True),
            # Inside the bounds but absent from the (complete) distinct
            # set: the exact path disproves where bounds alone couldn't.
            ("=", 25, True), ("=", 20, False),
        ]:
            got, skipped = zone_map_prunes(
                task, [ScanPredicate("duration_s", op, value)]
            )
            assert got is pruned, (op, value)
            assert (skipped > 0) is pruned

    def test_distinct_set_disproves_string_equality(self):
        task = typed_task(duration_table(["10", "20"]))
        got, skipped = zone_map_prunes(
            task, [ScanPredicate("cell_id", "=", "c9")]
        )
        assert got and skipped > 0
        assert zone_map_prunes(
            task, [ScanPredicate("cell_id", "=", "c1")]
        ) == (False, 0)

    def test_unsupported_operator_never_prunes(self):
        task = typed_task(duration_table(["10", "20"]))
        assert zone_map_prunes(
            task, [ScanPredicate("duration_s", "!=", 99)]
        ) == (False, 0)

    def test_unknown_column_never_prunes(self):
        task = typed_task(duration_table(["10", "20"]))
        assert zone_map_prunes(
            task, [ScanPredicate("ghost", "=", 1)]
        ) == (False, 0)

    def test_mixed_type_channel_ignores_numeric_bounds(self):
        # One non-integer cell means the executor string-compares it;
        # the int bounds say nothing about string order, so no prune.
        # (The complete distinct set must be suppressed to exercise the
        # bounds path — use > DISTINCT_CAP distinct values.)
        from repro.compression.typedchannel import DISTINCT_CAP

        values = [str(i) for i in range(DISTINCT_CAP + 1)] + ["abc"]
        task = typed_task(duration_table(values))
        header_max = max(int(v) for v in values[:-1])
        assert zone_map_prunes(
            task, [ScanPredicate("duration_s", ">", header_max)]
        ) == (False, 0)

    def test_all_int_high_cardinality_uses_bounds(self):
        from repro.compression.typedchannel import DISTINCT_CAP

        values = [str(i) for i in range(DISTINCT_CAP + 1)]
        task = typed_task(duration_table(values))
        got, skipped = zone_map_prunes(
            task, [ScanPredicate("duration_s", ">", DISTINCT_CAP)]
        )
        assert got and skipped > 0

    def test_empty_leaf_is_not_bounds_pruned(self):
        # A zero-row leaf has degenerate (0, 0) bounds that describe
        # nothing; decoding it is cheap and provably harmless.
        task = typed_task(duration_table([]))
        header_side = zone_map_prunes(
            task, [ScanPredicate("duration_s", ">", 100)]
        )
        # The empty distinct set *does* disprove exactly: no cell can
        # pass any predicate. Either answer keeps identity; what matters
        # is no crash and no skipped-byte fabrication.
        pruned, skipped = header_side
        assert skipped >= 0

    def test_cell_filter_prunes_on_disjoint_distinct_set(self):
        task = typed_task(duration_table(["10", "20", "30"]))
        got, skipped = zone_map_prunes(
            task, cell_filter=("cell_id", {"c7", "c8"})
        )
        assert got and skipped > 0
        assert zone_map_prunes(
            task, cell_filter=("cell_id", {"c1", "c8"})
        ) == (False, 0)

    def test_cell_filter_without_distinct_set_never_prunes(self):
        from repro.compression.typedchannel import DISTINCT_CAP

        table = Table(
            name="CDR",
            columns=["cell_id"],
            rows=[[f"c{i}"] for i in range(DISTINCT_CAP + 1)],
        )
        task = typed_task(table)
        assert zone_map_prunes(
            task, cell_filter=("cell_id", {"nowhere"})
        ) == (False, 0)


class TestDecodeTaskProjection:
    def _context(self, pruning=True, codec_name="typedchannel", layout="row",
                 cached=False):
        return ScanContext(
            executor=None,
            codec_name=codec_name,
            layout=layout,
            pruning=pruning,
            read_payload=lambda path: b"",
            cache_put=(lambda *entry: None) if cached else None,
        )

    def test_typedchannel_projects_wanted_columns_under_row_layout(self):
        ctx = self._context()
        assert ctx.projection(("b", "a", "b")) == ("a", "b")
        task = ctx.decode_task("CDR", b"", ("a", "b"))
        assert task[TASK_COLUMNS] == ("a", "b")

    def test_non_typedchannel_ignores_wanted(self):
        """Only a row-text leaf with a cache to fill ignores the wanted
        set — its parse pays for every cell anyway, so the task decodes
        (and the scan offers the cache) all columns.  Everywhere else
        the one projection rule holds, whatever the codec or layout."""
        ctx = self._context(codec_name="gzip-ref", cached=True)
        assert ctx.decode_task("CDR", b"", ("a",))[TASK_COLUMNS] is None
        for layout, cached in [("row", False), ("columnar", False), ("columnar", True)]:
            ctx = self._context(codec_name="gzip-ref", layout=layout, cached=cached)
            assert ctx.projection(("a",)) == ("a",)
            assert ctx.decode_task("CDR", b"", ("a",))[TASK_COLUMNS] == ("a",)

    def test_pruning_off_ignores_wanted(self):
        assert self._context(pruning=False).projection(("a",)) is None
        # ... and no referenced-column set means no projection either.
        assert self._context().projection(None) is None

    def test_decode_leaf_task_reports_channel_stats(self):
        table = duration_table(["5", "15", "25"], extra_col="pad")
        task = typed_task(table, columns=("duration_s",))
        names, cells, n_rows, nbytes, channel_stats = decode_leaf_task(task)
        assert channel_stats is not None
        assert channel_stats.channels_decoded == 1
        assert nbytes == channel_stats.bytes_decoded
        assert names == table.columns and n_rows == 3
        # Exactly the selected column comes back, keyed by name.
        assert cells == {"duration_s": ["5", "15", "25"]}

    def test_decode_leaf_task_full_decode_has_no_skips(self):
        table = duration_table(["5", "15"])
        names, cells, __, __, channel_stats = decode_leaf_task(typed_task(table))
        assert channel_stats.bytes_skipped == 0
        assert rows_of(names, cells) == table.rows

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_decode_leaf_task_untyped_leaf_returns_columns(self, layout):
        table = duration_table(["5", "15", "25"], extra_col="pad")
        blob = get_codec("gzip-ref").compress(serialize_table(table, layout))
        full = decode_leaf_task(blob_task("gzip-ref", layout, "CDR", blob))
        names, cells, n_rows, nbytes, channel_stats = full
        assert (names, n_rows, channel_stats) == (table.columns, 3, None)
        assert nbytes == len(serialize_table(table, layout))
        assert rows_of(names, cells) == table.rows
        names, cells, *__ = decode_leaf_task(
            blob_task("gzip-ref", layout, "CDR", blob, ("note",))
        )
        assert names == table.columns and cells == {"note": ["pad"] * 3}

    def test_decode_leaf_task_empty_row_text_leaf(self):
        table = duration_table([])
        blob = get_codec("gzip-ref").compress(serialize_table(table, "row"))
        names, cells, n_rows, *__ = decode_leaf_task(
            blob_task("gzip-ref", "row", "CDR", blob)
        )
        assert (names, n_rows) == (table.columns, 0)
        assert cells == {"cell_id": [], "duration_s": []}


def rows_of(names, cells):
    return [list(row) for row in zip(*(cells[name] for name in names))]


CELL_STRATEGY = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["voice", "sms", "data", "", "007", "-0", "abc"]),
    st.text(
        alphabet=st.characters(codec="utf-8", max_codepoint=0x2FF),
        max_size=6,
    ),
)

LITERAL_STRATEGY = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1000, 1000, allow_nan=False),
    st.sampled_from(["voice", "c1", "", "50"]),
)


class TestZonePruneSoundness:
    """Property: a zone-map prune is a *disproof* — whenever the gate
    skips a leaf, decoding it and running the executor's own predicate
    over every row must yield zero matches."""

    @given(
        cells=st.lists(CELL_STRATEGY, max_size=30),
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        value=LITERAL_STRATEGY,
        layout_seed=st.integers(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_prune_implies_no_matching_row(
        self, cells, op, value, layout_seed
    ):
        layout = ("row", "columnar")[layout_seed]
        table = duration_table(cells)
        try:
            task = typed_task(table, layout=layout)
        except ValueError:
            return  # layout rejects the table (e.g. non-serializable)
        predicate = ScanPredicate("duration_s", op, value)
        pruned, skipped = zone_map_prunes(task, [predicate])
        if pruned:
            assert skipped > 0 or not cells
            duration = table.columns.index("duration_s")
            assert not any(
                predicate_passes(row[duration], op, value)
                for row in table.rows
            )

    @given(
        cells=st.lists(st.sampled_from(["c0", "c1", "c2", "far"]), max_size=20),
        wanted=st.sets(st.sampled_from(["c0", "c1", "c9", "far"]), max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_cell_filter_prune_implies_no_wanted_cell(
        self, cells, wanted
    ):
        table = Table(
            name="CDR", columns=["cell_id"], rows=[[c] for c in cells]
        )
        task = typed_task(table)
        pruned, __ = zone_map_prunes(task, cell_filter=("cell_id", wanted))
        if pruned:
            assert not any(row[0] in wanted for row in table.rows)

    @given(
        n=st.integers(0, 25),
        seed=st.integers(0, 2**16),
        op=st.sampled_from(["=", "<", "<=", ">", ">="]),
        threshold=st.integers(-50, 700),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_pruned_scan_equals_full_decode(
        self, n, seed, op, threshold
    ):
        """The end-to-end identity the gate must preserve: filtering
        rows of a decoded leaf equals filtering minus pruned leaves."""
        rng = random.Random(seed)
        table = duration_table([str(rng.randrange(0, 600)) for __ in range(n)])
        task = typed_task(table)
        predicate = ScanPredicate("duration_s", op, threshold)
        matching = [
            cell
            for cell in decode_leaf_task(task)[1]["duration_s"]
            if predicate_passes(cell, op, threshold)
        ]
        pruned, __ = zone_map_prunes(task, [predicate])
        if pruned:
            assert matching == []
