"""Tests for the highlights module: summaries, merging, detection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import HighlightsConfig
from repro.core.snapshot import Snapshot, Table
from repro.index.highlights import (
    AttributeSummary,
    CategoricalStats,
    HighlightSummary,
    NumericStats,
    summarize_snapshot,
)


def make_snapshot(epoch: int = 0, drop_flags=None) -> Snapshot:
    drop_flags = drop_flags or (["0"] * 19 + ["1"])
    snapshot = Snapshot(epoch=epoch)
    cdr = Table(
        name="CDR",
        columns=["ts", "cell_id", "drop_flag", "downflux", "result",
                 "call_type", "upflux", "duration_s"],
    )
    for i, flag in enumerate(drop_flags):
        cdr.append([
            "201601180000",
            f"C{i % 3:03d}",
            flag,
            str(100 * (i + 1)),
            "OK" if i else "FAIL",
            "voice",
            str(10 * i),
            str(60),
        ])
    snapshot.add_table(cdr)
    return snapshot


class TestNumericStats:
    def test_streaming_accumulation(self):
        stats = NumericStats()
        for value in (5, -3, 10, 0):
            stats.add(value)
        assert stats.count == 4
        assert stats.total == 12
        assert stats.minimum == -3
        assert stats.maximum == 10
        assert stats.mean == 3.0

    def test_empty_mean_is_zero(self):
        assert NumericStats().mean == 0.0

    def test_merge(self):
        a = NumericStats()
        b = NumericStats()
        for v in (1, 2):
            a.add(v)
        for v in (10, -5):
            b.add(v)
        a.merge(b)
        assert (a.count, a.total, a.minimum, a.maximum) == (4, 8, -5, 10)

    def test_merge_with_empty_is_identity(self):
        a = NumericStats()
        a.add(7)
        before = (a.count, a.total, a.minimum, a.maximum)
        a.merge(NumericStats())
        assert (a.count, a.total, a.minimum, a.maximum) == before

    def test_copy_is_independent(self):
        a = NumericStats()
        a.add(1)
        b = a.copy()
        b.add(100)
        assert a.count == 1 and b.count == 2

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1),
           st.lists(st.integers(-10**6, 10**6), min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_property_merge_equals_combined(self, xs, ys):
        merged = NumericStats()
        for v in xs:
            merged.add(v)
        other = NumericStats()
        for v in ys:
            other.add(v)
        merged.merge(other)
        combined = NumericStats()
        for v in xs + ys:
            combined.add(v)
        assert merged == combined


class TestAttributeSummary:
    def test_numeric_detection(self):
        summary = AttributeSummary()
        summary.add("42")
        summary.add("-7")
        assert summary.numeric is not None
        assert summary.numeric.count == 2

    def test_categorical_only_for_text(self):
        summary = AttributeSummary()
        summary.add("voice")
        assert summary.numeric is None
        assert summary.categorical.counts["voice"] == 1

    def test_empty_values_not_counted_as_numeric(self):
        summary = AttributeSummary()
        summary.add("")
        assert summary.numeric is None
        assert summary.categorical.counts[""] == 1

    def test_distinct_cap_enforced_on_merge(self):
        a = AttributeSummary(max_distinct=10)
        b = AttributeSummary(max_distinct=10)
        for i in range(8):
            a.add(f"v{i}")
        for i in range(8, 16):
            b.add(f"v{i}")
        a.merge(b)
        assert len(a.categorical.counts) <= 10

    def test_merge_combines_numeric(self):
        a = AttributeSummary()
        b = AttributeSummary()
        a.add("1")
        b.add("9")
        a.merge(b)
        assert a.numeric.count == 2 and a.numeric.maximum == 9


class TestSummarizeSnapshot:
    CONFIG = HighlightsConfig()

    def test_record_counts(self):
        summary = summarize_snapshot(make_snapshot(), self.CONFIG)
        assert summary.record_counts["CDR"] == 20

    def test_tracked_attributes_present(self):
        summary = summarize_snapshot(make_snapshot(), self.CONFIG)
        attrs = summary.attributes["CDR"]
        assert "drop_flag" in attrs and "downflux" in attrs

    def test_per_cell_numeric_stats(self):
        summary = summarize_snapshot(make_snapshot(), self.CONFIG)
        cells = summary.per_cell["CDR"]
        assert set(cells) == {"C000", "C001", "C002"}
        total = sum(s["downflux"].count for s in cells.values())
        assert total == 20

    def test_cell_stats_aggregation(self):
        summary = summarize_snapshot(make_snapshot(), self.CONFIG)
        stats = summary.cell_stats("CDR", {"C000", "C001"}, "downflux")
        all_stats = summary.cell_stats("CDR", {"C000", "C001", "C002"}, "downflux")
        assert stats.count < all_stats.count == 20

    def test_untracked_table_ignored(self):
        snapshot = make_snapshot()
        snapshot.add_table(Table(name="MISC", columns=["z"], rows=[["1"]]))
        summary = summarize_snapshot(snapshot, self.CONFIG)
        assert "MISC" not in summary.attributes


class TestHighlightDetection:
    def test_rare_value_detected(self):
        summary = summarize_snapshot(make_snapshot(), HighlightsConfig())
        highlights = summary.detect_highlights(theta=0.10)
        rare = [h for h in highlights if h.attribute == "drop_flag" and h.value == "1"]
        assert len(rare) == 1
        assert rare[0].frequency == 1
        assert rare[0].rate == pytest.approx(1 / 20)

    def test_frequent_value_not_a_highlight(self):
        summary = summarize_snapshot(make_snapshot(), HighlightsConfig())
        highlights = summary.detect_highlights(theta=0.10)
        assert not any(
            h.attribute == "drop_flag" and h.value == "0" for h in highlights
        )

    def test_theta_zero_detects_nothing(self):
        summary = summarize_snapshot(make_snapshot(), HighlightsConfig())
        assert summary.detect_highlights(theta=0.0) == []

    def test_highlight_kind_tagging(self):
        summary = summarize_snapshot(make_snapshot(), HighlightsConfig())
        highlights = summary.detect_highlights(theta=0.10)
        kinds = {h.value: h.kind for h in highlights}
        assert kinds.get("FAIL") == "categorical"
        assert all(
            kind == "numeric" for value, kind in kinds.items() if value.isdigit()
        )


class TestSummaryMerge:
    def test_merge_accumulates_counts(self):
        config = HighlightsConfig()
        day = HighlightSummary(level="day", period="2016-01-18")
        for epoch in range(3):
            day.merge(summarize_snapshot(make_snapshot(epoch), config))
        assert day.record_counts["CDR"] == 60

    def test_merge_preserves_per_cell_breakdown(self):
        config = HighlightsConfig()
        day = HighlightSummary(level="day", period="2016-01-18")
        day.merge(summarize_snapshot(make_snapshot(0), config))
        day.merge(summarize_snapshot(make_snapshot(1), config))
        assert day.cell_stats("CDR", {"C000"}, "downflux").count > 0

    def test_merge_into_empty_copies(self):
        config = HighlightsConfig()
        source = summarize_snapshot(make_snapshot(), config)
        target = HighlightSummary(level="day", period="x")
        target.merge(source)
        # Mutating the source afterwards must not affect the target.
        source.attributes["CDR"]["downflux"].add("999999")
        assert (
            target.attributes["CDR"]["downflux"].numeric.count
            != source.attributes["CDR"]["downflux"].numeric.count
        )


# ----------------------------------------------------------------------
# Column-wise summaries equal the row-wise fold (PR 15)
# ----------------------------------------------------------------------


def _reference_summarize(snapshot, config):
    """The row-by-row loop ``summarize_snapshot`` replaced, verbatim.
    Its dict insertion orders are part of the contract: ``to_dict`` is
    what the WAL and checkpoints serialise."""
    from repro.index.highlights import CELL_COLUMN, _is_int

    summary = HighlightSummary(level="epoch", period=str(snapshot.epoch))
    for table_name, table in snapshot.tables.items():
        tracked = config.tracked_attributes.get(table_name)
        if not tracked:
            continue
        present = [a for a in tracked if a in table.columns]
        indexes = {a: table.column_index(a) for a in present}
        cell_col = CELL_COLUMN.get(table_name)
        cell_idx = (
            table.column_index(cell_col)
            if cell_col and cell_col in table.columns
            else None
        )
        summary.record_counts[table_name] = len(table)
        attr_summaries = summary.attributes.setdefault(table_name, {})
        for name in present:
            attr_summaries.setdefault(name, AttributeSummary())
        cells = summary.per_cell.setdefault(table_name, {})
        if cell_idx is not None:
            summary.cell_covered_rows[table_name] = len(table)
        for row in table.rows:
            cell_id = row[cell_idx] if cell_idx is not None else None
            cell_attrs = cells.setdefault(cell_id, {}) if cell_id is not None else None
            for name in present:
                value = row[indexes[name]]
                attr_summaries[name].add(value)
                if cell_attrs is not None and value and _is_int(value):
                    stats = cell_attrs.get(name)
                    if stats is None:
                        stats = cell_attrs[name] = NumericStats()
                    stats.add(int(value))
    return summary


def _assert_same_summary(snapshot, config=HighlightsConfig(), exact_order=False):
    import json

    got = summarize_snapshot(snapshot, config).to_dict()
    want = _reference_summarize(snapshot, config).to_dict()
    if not exact_order:
        # The row fold keys a cell's attributes by first *integer*
        # arrival; the column pass keys them in tracked order.  The two
        # differ only when a column mixes integer and other values, so
        # the reference is re-keyed in tracked order — every other
        # order (tables, attributes, values, cells) is compared as is.
        for table, cells in want["cells"].items():
            tracked = config.tracked_attributes[table]
            for cell_id, attrs in cells.items():
                cells[cell_id] = {a: attrs[a] for a in tracked if a in attrs}
    # json.dumps keeps dict order, so this compares key order too.
    assert json.dumps(got) == json.dumps(want)


#: Integer-looking, not-quite-integer and plain values; "" is SQL NULL.
_VALUE = st.sampled_from(
    ["", "0", "1", "7", "-3", "-0", "007", "+5", "1.5", "x", "OK", "FAIL", "١٢"]
)


@st.composite
def _snapshots(draw):
    snapshot = Snapshot(epoch=draw(st.integers(0, 99)))
    n_rows = draw(st.integers(0, 40))
    with_cells = draw(st.booleans())
    tracked = ["drop_flag", "result", "upflux", "duration_s"]
    columns = (["cell_id"] if with_cells else []) + ["ts"] + tracked[: draw(st.integers(0, 4))]
    cdr = Table(name="CDR", columns=columns)
    for __ in range(n_rows):
        row = []
        for column in columns:
            if column == "cell_id":
                row.append(draw(st.sampled_from(["C0", "C1", "C2", ""])))
            elif column == "ts":
                row.append("t")
            else:
                row.append(draw(_VALUE))
        cdr.append(row)
    snapshot.add_table(cdr)
    if draw(st.booleans()):
        mr = Table(name="MR", columns=["cellid", "rssi_dbm"])
        for __ in range(draw(st.integers(0, 12))):
            mr.append([draw(st.sampled_from(["C0", "C9"])), draw(_VALUE)])
        snapshot.add_table(mr)
    return snapshot


class TestColumnwiseEqualsRowwise:
    @given(snapshot=_snapshots())
    @settings(max_examples=250, deadline=None)
    def test_property_equal_including_key_order(self, snapshot):
        _assert_same_summary(snapshot)

    def test_the_seed_snapshot_byte_for_byte(self):
        _assert_same_summary(make_snapshot(), exact_order=True)

    def test_generated_trace_byte_for_byte(self):
        # No tracked telco column mixes integer and other values, so on
        # the generator's data the WAL payload is the row fold's, to
        # the byte (tests/test_golden_bytes.py pins a durable week).
        from repro.telco import TelcoTraceGenerator, TraceConfig

        generator = TelcoTraceGenerator(TraceConfig(scale=0.002, days=1, seed=5))
        for epoch in (0, 17, 40):
            _assert_same_summary(generator.snapshot(epoch), exact_order=True)

    def test_per_cell_attributes_are_keyed_in_tracked_order(self):
        # C0's first row has an integer only for duration_s; upflux
        # (earlier in tracked order) turns integer one row later.
        snapshot = Snapshot(epoch=3)
        cdr = Table(name="CDR", columns=["cell_id", "upflux", "duration_s"])
        for row in (["C0", "n/a", "60"], ["C1", "5", "61"], ["C0", "9", "x"], ["C1", "", "7"]):
            cdr.append(row)
        snapshot.add_table(cdr)
        summary = summarize_snapshot(snapshot, HighlightsConfig())
        assert list(summary.per_cell["CDR"]["C0"]) == ["upflux", "duration_s"]
        assert list(summary.per_cell["CDR"]["C1"]) == ["upflux", "duration_s"]
        assert summary.per_cell["CDR"]["C0"]["upflux"].to_dict() == {
            "c": 1, "t": 9, "lo": 9, "hi": 9,
        }
        _assert_same_summary(snapshot)

    def test_column_past_max_distinct_counts_like_arrival_order(self):
        import random

        cap = AttributeSummary().max_distinct
        values = [str(i) for i in range(cap + 150)] * 2 + ["x", "", "7"] * 40
        random.Random(11).shuffle(values)
        snapshot = Snapshot(epoch=1)
        cdr = Table(name="CDR", columns=["cell_id", "duration_s", "result"])
        for i, value in enumerate(values):
            cdr.append([f"C{i % 7}", value, "OK" if i % 9 else "FAIL"])
        snapshot.add_table(cdr)
        summary = summarize_snapshot(snapshot, HighlightsConfig())
        assert len(summary.attributes["CDR"]["duration_s"].categorical.counts) == cap
        _assert_same_summary(snapshot)

    def test_repeated_value_statistics_equal_repeated_adds(self):
        from repro.index.highlights import _repeated

        folded, merged = NumericStats(), NumericStats()
        for value, times in ((5, 3), (-2, 1), (9, 4)):
            for __ in range(times):
                folded.add(value)
            merged.merge(_repeated(value, times))
        assert merged == folded
