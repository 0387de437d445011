"""Tests for Q(a, b, w) exploration over the SPATE instance."""

import pytest

from repro.core import Spate, SpateConfig
from repro.core.config import DecayPolicyConfig
from repro.core.snapshot import EPOCHS_PER_DAY
from repro.errors import QueryError
from repro.index.temporal import SnapshotLeaf, TemporalIndex
from repro.query.explore import ExplorationEngine, ExplorationQuery
from repro.spatial.geometry import BoundingBox
from repro.telco import TelcoTraceGenerator, TraceConfig


class TestQueryValidation:
    def test_inverted_window_rejected(self):
        with pytest.raises(QueryError):
            ExplorationQuery(
                table="CDR", attributes=("a",), box=None,
                first_epoch=10, last_epoch=5,
            )

    def test_empty_attributes_rejected(self):
        with pytest.raises(QueryError):
            ExplorationQuery(
                table="CDR", attributes=(), box=None,
                first_epoch=0, last_epoch=1,
            )


class TestLiveExploration:
    def test_full_area_full_day(self, spate_day):
        result = spate_day.explore("CDR", ("downflux",), None, 0, 47)
        assert result.snapshots_read == 48
        assert len(result.records) > 0
        assert set(result.resolution_by_day.values()) == {"snapshots"}
        assert not result.used_decayed_data

    def test_window_subsets_records(self, spate_day):
        whole = spate_day.explore("CDR", ("downflux",), None, 0, 47)
        half = spate_day.explore("CDR", ("downflux",), None, 0, 23)
        assert len(half.records) < len(whole.records)
        assert half.snapshots_read == 24

    def test_spatial_filter_subsets(self, spate_day):
        area = spate_day.area
        quadrant = BoundingBox(
            area.min_x, area.min_y, area.center.x, area.center.y
        )
        whole = spate_day.explore("CDR", ("downflux",), None, 0, 47)
        boxed = spate_day.explore("CDR", ("downflux",), quadrant, 0, 47)
        assert len(boxed.records) <= len(whole.records)

    def test_empty_box_returns_nothing(self, spate_day):
        nowhere = BoundingBox(-100, -100, -50, -50)
        result = spate_day.explore("CDR", ("downflux",), nowhere, 0, 47)
        assert result.records == []
        assert result.aggregate("downflux").count == 0

    def test_aggregates_match_records(self, spate_day):
        result = spate_day.explore("CDR", ("downflux",), None, 0, 10)
        stats = result.aggregate("downflux")
        values = [int(r[1]) for r in result.records if r[1]]
        assert stats.count == len(values)
        assert stats.total == sum(values)

    def test_records_tagged_with_epoch(self, spate_day):
        result = spate_day.explore("CDR", ("downflux",), None, 5, 6)
        epochs = {r[0] for r in result.records}
        assert epochs <= {"5", "6"}

    def test_nms_table_query(self, spate_day):
        result = spate_day.explore("NMS", ("val",), None, 0, 5)
        assert result.aggregate("val").count > 0

    def test_untracked_attribute_yields_empty_stats(self, spate_day):
        result = spate_day.explore("CDR", ("caller_id",), None, 0, 3)
        # caller_id is not numeric, so no aggregate; records still flow.
        assert result.aggregate("caller_id").count == 0
        assert len(result.records) > 0


class TestDecayedExploration:
    @pytest.fixture()
    def decayed_spate(self, tiny_generator, tiny_snapshots):
        config = SpateConfig(
            codec="gzip-ref",
            decay=DecayPolicyConfig(keep_epochs=12),
        )
        spate = Spate(config)
        spate.register_cells(tiny_generator.cells_table())
        for snapshot in tiny_snapshots:
            spate.ingest(snapshot)
        spate.finalize()
        return spate

    def test_old_epochs_decayed(self, decayed_spate):
        assert decayed_spate.index.leaf_count() == 12

    def test_read_decayed_snapshot_raises(self, decayed_spate):
        from repro.errors import DecayedDataError

        with pytest.raises(DecayedDataError):
            decayed_spate.read_snapshot(0)

    def test_unknown_epoch_raises(self, decayed_spate):
        with pytest.raises(QueryError):
            decayed_spate.read_snapshot(10_000)

    def test_decayed_window_uses_summaries(self, decayed_spate):
        result = decayed_spate.explore("CDR", ("downflux",), None, 0, 47)
        assert result.used_decayed_data
        # Aggregates survive even though records are gone for old epochs.
        assert result.aggregate("downflux").count > 0

    def test_mixed_window_mixes_resolutions(self, decayed_spate):
        # Ingest a second day so day 1 leaves decay but day 2 stays.
        result = decayed_spate.explore("CDR", ("downflux",), None, 0, 47)
        assert "day" in result.resolution_by_day.values()

    def test_decayed_spatial_filter_uses_per_cell_stats(self, decayed_spate):
        area = decayed_spate.area
        west = BoundingBox(area.min_x, area.min_y, area.center.x, area.max_y)
        whole = decayed_spate.explore("CDR", ("downflux",), None, 0, 23)
        boxed = decayed_spate.explore("CDR", ("downflux",), west, 0, 23)
        assert boxed.aggregate("downflux").count <= whole.aggregate("downflux").count


class TestScanDaySchemaDrift:
    """Leaves of one day can expose different table schemas (e.g. after
    a fungus rewrite drops columns).  Record width must stay uniform."""

    def _engine(self) -> ExplorationEngine:
        """An engine over a fake leaf source: two row-text leaves served
        straight from a dict through the one scan pipeline."""
        from repro.compression import get_codec
        from repro.core import Table
        from repro.engine.executor import get_executor
        from repro.query.leafscan import ScanContext

        tables = {
            0: Table(
                name="CDR",
                columns=["caller_id", "downflux"],
                rows=[["c1", "10"]],
            ),
            # Same day, narrower schema: downflux is gone.
            1: Table(name="CDR", columns=["caller_id"], rows=[["c2"]]),
        }
        codec = get_codec("gzip-ref")
        blobs = {
            f"/leaf/{epoch}": codec.compress(table.serialize())
            for epoch, table in tables.items()
        }
        index = TemporalIndex()
        for epoch in tables:
            index.insert_leaf(SnapshotLeaf(
                epoch=epoch, table_paths={"CDR": f"/leaf/{epoch}"},
                raw_bytes=0, compressed_bytes=0, record_count=1,
            ))
        return ExplorationEngine(
            index=index,
            cell_locations={},
            scan_context=ScanContext(
                executor=get_executor("serial"),
                codec_name="gzip-ref",
                layout="row",
                pruning=True,
                read_payload=blobs.__getitem__,
            ),
        )

    def test_records_keep_uniform_width(self):
        engine = self._engine()
        result = engine.evaluate(
            ExplorationQuery(
                table="CDR", attributes=("downflux",), box=None,
                first_epoch=0, last_epoch=1,
            )
        )
        assert result.columns == ["epoch", "downflux"]
        assert all(len(r) == len(result.columns) for r in result.records)
        # The leaf missing the attribute pads with "" instead of
        # shifting values or changing the row width.
        assert result.records == [["0", "10"], ["1", ""]]
        assert result.aggregate("downflux").count == 1

    def test_columns_come_from_query_not_first_leaf(self):
        engine = self._engine()
        result = engine.evaluate(
            ExplorationQuery(
                table="CDR", attributes=("caller_id", "upflux"), box=None,
                first_epoch=0, last_epoch=1,
            )
        )
        assert result.columns == ["epoch", "caller_id", "upflux"]
        assert all(len(r) == 3 for r in result.records)


class TestCoarseMode:
    def test_coarse_uses_single_covering_node(self, spate_day):
        result = spate_day.explore(
            "CDR", ("downflux",), None, 3, 10, coarse=True
        )
        assert list(result.resolution_by_day) == ["*"]
        assert result.aggregate("downflux").count > 0

    def test_coarse_window_spanning_days_uses_month(self, spate_day):
        result = spate_day.explore(
            "CDR", ("downflux",), None, 0, 2 * EPOCHS_PER_DAY - 1, coarse=True
        )
        assert result.resolution_by_day["*"] in ("month", "year", "root", "day")


class TestHighlightsApi:
    def test_highlights_surface_through_facade(self, spate_day):
        highlights = spate_day.highlights(0, 47)
        assert isinstance(highlights, list)
        for h in highlights:
            assert h.total > 0
            assert 0.0 <= h.rate < 1.0
