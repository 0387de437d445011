"""Tests for the pluggable ingest executor backends.

The load-bearing property is byte-identity: whatever backend runs the
serialize/compress fan-out, the DFS must end up with exactly the same
files holding exactly the same bytes, and the ingest reports must claim
the same sizes — parallelism may only change wall-clock time.
"""

from __future__ import annotations

import pytest

from repro.core import Spate, SpateConfig
from repro.core.config import DecayPolicyConfig
from repro.engine.executor import (
    EXECUTOR_BACKENDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_executor,
    resolve_backend,
)
from repro.errors import ConfigError
from repro.telco import TelcoTraceGenerator, TraceConfig

EPOCHS = 4


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"task {x} failed")


def _ingest(executor: str, layout: str, codec: str = "gzip-ref") -> tuple[Spate, list]:
    generator = TelcoTraceGenerator(TraceConfig(scale=0.002, days=1, seed=7))
    spate = Spate(SpateConfig(
        codec=codec,
        layout=layout,
        executor=executor,
        decay=DecayPolicyConfig(enabled=False),
    ))
    spate.register_cells(generator.cells_table())
    reports = []
    for epoch in range(EPOCHS):
        spate.ingest(generator.snapshot(epoch))
        reports.append(spate.last_ingest_report)
    spate.finalize()
    return spate, reports


def _dfs_contents(spate: Spate) -> dict[str, bytes]:
    return {path: spate.dfs.read_file(path) for path in spate.dfs.list_dir("/spate")}


class TestBackendPrimitives:
    def test_serial_map_preserves_order(self):
        backend = SerialBackend()
        assert backend.map(_square, range(10)) == [x * x for x in range(10)]

    def test_thread_map_matches_serial(self):
        backend = ThreadBackend(workers=4)
        assert backend.map(_square, range(50)) == [x * x for x in range(50)]

    def test_run_reports_timing(self):
        results, run = ThreadBackend(workers=2).run(_square, range(8))
        assert results == [x * x for x in range(8)]
        assert run.backend == "thread"
        assert run.tasks == 8
        assert run.wall_seconds > 0.0
        assert run.task_seconds >= 0.0
        assert run.queue_depth == 6
        assert run.speedup >= 0.0

    def test_run_merged_combines_batches(self):
        __, first = SerialBackend().run(_square, range(3))
        __, second = SerialBackend().run(_square, range(5))
        merged = first.merged(second)
        assert merged.tasks == 8
        assert merged.wall_seconds == pytest.approx(
            first.wall_seconds + second.wall_seconds
        )

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError):
            SerialBackend().map(_boom, [1])
        with pytest.raises(ValueError):
            ThreadBackend(workers=2).map(_boom, [1, 2])

    def test_resolve_auto_picks_concrete_backend(self):
        assert resolve_backend("auto") in ("serial", "thread")
        assert resolve_backend("process") == "process"

    def test_get_executor_rejects_unknown(self):
        with pytest.raises(ConfigError):
            get_executor("gpu")

    def test_config_rejects_unknown_executor(self):
        with pytest.raises(ConfigError):
            SpateConfig(executor="gpu")
        with pytest.raises(ConfigError):
            SpateConfig(executor_workers=0)

    def test_all_names_construct(self):
        for name in EXECUTOR_BACKENDS:
            assert get_executor(name).name in ("serial", "thread", "process")


class TestByteIdentity:
    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_thread_matches_serial(self, layout):
        serial_spate, serial_reports = _ingest("serial", layout)
        thread_spate, thread_reports = _ingest("thread", layout)
        assert _dfs_contents(serial_spate) == _dfs_contents(thread_spate)
        for left, right in zip(serial_reports, thread_reports):
            assert left.raw_bytes == right.raw_bytes
            assert left.compressed_bytes == right.compressed_bytes
        assert thread_reports[0].executor == "thread"
        assert thread_reports[0].parallel_tasks > 0

    def test_process_matches_serial(self):
        serial_spate, serial_reports = _ingest("serial", "row")
        try:
            process_spate, process_reports = _ingest("process", "row")
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"process pool unavailable here: {error}")
        assert _dfs_contents(serial_spate) == _dfs_contents(process_spate)
        for left, right in zip(serial_reports, process_reports):
            assert left.raw_bytes == right.raw_bytes
            assert left.compressed_bytes == right.compressed_bytes

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_typed_channels_match_serial(self, executor):
        """The fused typed-channel path fans out whole channels (profile,
        encode, zone map, DEFLATE per column); the per-column result
        crosses the process boundary, so it must pickle."""
        serial_spate, serial_reports = _ingest("serial", "columnar", "typedchannel")
        try:
            pooled_spate, pooled_reports = _ingest(executor, "columnar", "typedchannel")
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"{executor} pool unavailable here: {error}")
        assert _dfs_contents(serial_spate) == _dfs_contents(pooled_spate)
        for left, right in zip(serial_reports, pooled_reports):
            assert left.raw_bytes == right.raw_bytes
            assert left.compressed_bytes == right.compressed_bytes
            # One task per column, and no per-table compress task.
            assert left.parallel_tasks == right.parallel_tasks
        assert pooled_reports[0].executor == executor
        generator = TelcoTraceGenerator(TraceConfig(scale=0.002, days=1, seed=7))
        assert serial_reports[0].parallel_tasks == sum(
            len(table.columns) for table in generator.snapshot(0).tables.values()
        )

    def test_explore_results_match_across_backends(self):
        serial_spate, __ = _ingest("serial", "row")
        thread_spate, __ = _ingest("thread", "row")
        for spate in (serial_spate, thread_spate):
            spate.register_cells(
                TelcoTraceGenerator(
                    TraceConfig(scale=0.002, days=1, seed=7)
                ).cells_table()
            )
        left = serial_spate.explore("CDR", ("downflux",), None, 0, EPOCHS - 1)
        right = thread_spate.explore("CDR", ("downflux",), None, 0, EPOCHS - 1)
        assert left.records == right.records
        assert left.aggregate("downflux").mean == right.aggregate("downflux").mean


class TestMetricsInstrumentation:
    def test_executor_counters_flow_into_metrics(self):
        spate, __ = _ingest("thread", "row")
        metrics = spate.metrics
        assert metrics.executor_backend == "thread"
        assert metrics.executor_tasks > 0
        assert metrics.compress_wall_seconds > 0.0
        assert metrics.parallel_speedup > 0.0
        assert "ingest executor" in metrics.summary()

    def test_index_epoch_lookup_is_wired(self):
        spate, __ = _ingest("serial", "row")
        leaf = spate.index.find_leaf(2)
        assert leaf is not None and leaf.epoch == 2
        assert spate.index.find_leaf(999) is None
        assert spate.read_table(2, "CDR") is not None
