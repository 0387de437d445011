"""Tests for the warehouse metrics registry."""

import pytest

from repro.core import Spate, SpateConfig
from repro.core.config import DecayPolicyConfig
from repro.core.metrics import WarehouseMetrics


class TestRegistry:
    def test_initial_state(self):
        metrics = WarehouseMetrics()
        assert metrics.snapshots_ingested == 0
        assert metrics.mean_compression_ratio == 0.0
        assert metrics.mean_ingest_seconds == 0.0
        assert metrics.epoch_budget_headroom() == float("inf")

    def test_ingest_accounting(self):
        metrics = WarehouseMetrics()
        metrics.on_ingest(records=10, raw_bytes=1000, stored_bytes=100, seconds=0.5)
        metrics.on_ingest(records=20, raw_bytes=2000, stored_bytes=400, seconds=1.5)
        assert metrics.snapshots_ingested == 2
        assert metrics.records_ingested == 30
        assert metrics.mean_compression_ratio == pytest.approx((10 + 5) / 2)
        assert metrics.mean_ingest_seconds == pytest.approx(1.0)
        assert metrics.worst_ingest_seconds == 1.5
        assert metrics.epoch_budget_headroom() == pytest.approx(1800 / 1.5)

    def test_explore_accounting(self):
        metrics = WarehouseMetrics()
        metrics.on_explore(snapshots_read=5, used_decayed=False)
        metrics.on_explore(snapshots_read=0, used_decayed=True)
        assert metrics.exploration_queries == 2
        assert metrics.snapshots_decompressed == 5
        assert metrics.decayed_answers == 1

    def test_decay_accounting(self):
        metrics = WarehouseMetrics()
        metrics.on_decay(leaves_evicted=10, bytes_reclaimed=5000)
        assert metrics.decay_passes == 1
        assert metrics.bytes_reclaimed == 5000

    def test_sql_accounting(self):
        metrics = WarehouseMetrics()
        assert "sql queries" not in metrics.summary()
        metrics.on_sql_execution(rows=3)
        metrics.on_sql_execution(rows=1200)
        assert (metrics.sql_queries, metrics.sql_rows_returned) == (2, 1203)
        assert "sql queries:           2, 1,203 rows returned" in metrics.summary()
        # One engine: the ledger's fallback series reads this and finds 0.
        assert metrics.sql_queries_row == 0

    def test_summary_renders(self):
        metrics = WarehouseMetrics()
        metrics.on_ingest(records=1, raw_bytes=10, stored_bytes=5, seconds=0.01)
        text = metrics.summary()
        assert "snapshots ingested:    1" in text
        assert "2.00x" in text


class TestFacadeIntegration:
    def test_ingest_and_explore_update_metrics(self, tiny_generator):
        from repro.telco import TelcoTraceGenerator, TraceConfig

        generator = TelcoTraceGenerator(TraceConfig(scale=0.002, days=1, seed=99))
        spate = Spate(SpateConfig(codec="gzip-ref"))
        spate.register_cells(tiny_generator.cells_table())
        for epoch in range(5):
            spate.ingest(generator.snapshot(epoch))
        spate.finalize()
        spate.explore("CDR", ("downflux",), None, 0, 4)

        metrics = spate.metrics
        assert metrics.snapshots_ingested == 5
        assert metrics.records_ingested > 0
        assert metrics.mean_compression_ratio > 1.0
        assert metrics.exploration_queries == 1
        assert metrics.snapshots_decompressed == 5
        assert metrics.decayed_answers == 0

    def test_decay_updates_metrics(self, tiny_generator):
        from repro.telco import TelcoTraceGenerator, TraceConfig

        generator = TelcoTraceGenerator(TraceConfig(scale=0.002, days=1, seed=99))
        config = SpateConfig(
            codec="gzip-ref", decay=DecayPolicyConfig(keep_epochs=2)
        )
        spate = Spate(config)
        spate.register_cells(tiny_generator.cells_table())
        for epoch in range(6):
            spate.ingest(generator.snapshot(epoch))
        assert spate.metrics.leaves_evicted == 4
        assert spate.metrics.bytes_reclaimed > 0
