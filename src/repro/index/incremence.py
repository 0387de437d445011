"""Incremence module: ingest snapshots into storage + index (paper §V-A).

For each arriving snapshot the module (1) serializes and losslessly
compresses it via the configured codec, (2) writes the result to the
replicated DFS, (3) appends a leaf on the index's right-most path, and
(4) rolls summaries upward — each snapshot's summary increments the
pending day accumulator; when a day/month/year completes, its summary
is finalized, highlights are detected with the level's θ, and the
summary is forwarded to the parent (paper §V-B's incremental cube).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice, repeat

from repro.compression.autotune import CodecSelector, pack_payload_task
from repro.compression.base import Codec, get_codec
from repro.compression.columnar import encode_column
from repro.compression.typedchannel import (
    TYPEDCHANNEL_NAME,
    assemble_channels,
    build_channel,
)
from repro.core.config import SpateConfig
from repro.core.layout import (
    COLUMNAR_LAYOUT,
    assemble_columnar,
    columnar_column_cells,
    columnar_size,
    serialize_table,
)
from repro.core.snapshot import Snapshot, Table
from repro.dfs.filesystem import SimulatedDFS
from repro.engine.executor import ExecutorBackend, ExecutorRun, SerialBackend
from repro.errors import StorageError
from repro.index.highlights import HighlightSummary, summarize_snapshot
from repro.index.temporal import DayNode, MonthNode, SnapshotLeaf, TemporalIndex, YearNode


@dataclass(frozen=True)
class IngestReport:
    """Timing/size breakdown for one ingested snapshot (Figures 7/9)."""

    epoch: int
    raw_bytes: int
    compressed_bytes: int
    compress_seconds: float
    store_seconds: float
    index_seconds: float
    #: Executor backend that ran the serialize/compress fan-out.
    executor: str = "serial"
    #: Tasks fanned out (tables, plus columns for the columnar layout).
    #: For a table stored as typed channels a task is one column's whole
    #: channel — profile, encode, zone map, DEFLATE — and there is no
    #: per-table compress task.
    parallel_tasks: int = 0
    #: Serial-equivalent work: sum of per-task durations.
    task_seconds: float = 0.0
    #: Worst task backlog behind the worker pool during the fan-out.
    queue_depth: int = 0

    @property
    def total_seconds(self) -> float:
        """Compression + store + index time for the snapshot."""
        return self.compress_seconds + self.store_seconds + self.index_seconds

    @property
    def ratio(self) -> float:
        """Compression ratio (raw bytes / stored bytes)."""
        return self.raw_bytes / self.compressed_bytes if self.compressed_bytes else 0.0

    @property
    def parallel_speedup(self) -> float:
        """Compress-stage speedup vs running its tasks back to back."""
        if self.compress_seconds <= 0.0 or self.task_seconds <= 0.0:
            return 1.0
        return self.task_seconds / self.compress_seconds


def _pack_table_task(args: tuple[str, str, Table]) -> tuple[int, bytes]:
    """Serialize + compress one table (module-level so process backends
    can pickle it; the codec is rebuilt by name inside the worker)."""
    codec_name, layout, table = args
    payload = serialize_table(table, layout)
    return len(payload), get_codec(codec_name).compress(payload)


def _call_task(call: tuple):
    """Run one ``(function, *arguments)`` unit, so a single fan-out can
    mix per-table compress tasks with per-column channel tasks."""
    function, *arguments = call
    return function(*arguments)


def _serialize_table_task(args: tuple[str, Table]) -> bytes:
    """Serialize one table in a worker.  Auto mode splits serialization
    from compression so the codec selector can sample the payload on
    the main thread in between."""
    layout, table = args
    return serialize_table(table, layout)


class IncremenceModule:
    """Drives ingestion into one (DFS, index) pair."""

    def __init__(
        self,
        dfs: SimulatedDFS,
        index: TemporalIndex,
        codec: Codec,
        config: SpateConfig,
        path_prefix: str = "/spate/snapshots",
        executor: ExecutorBackend | None = None,
        selector: CodecSelector | None = None,
    ) -> None:
        self._dfs = dfs
        self._index = index
        self._codec = codec
        self._config = config
        self._prefix = path_prefix
        self._executor = executor or SerialBackend()
        #: Per-payload codec selector; set iff ``config.codec == "auto"``.
        self._selector = selector

    def ingest(self, snapshot: Snapshot, on_stored=None) -> IngestReport:
        """Ingest one snapshot; returns the per-stage timing report.

        Serialization and compression fan out through the configured
        executor backend; DFS writes and the index append below stay in
        the serial table order, so the stored leaf is byte-identical
        whichever backend ran.

        Args:
            on_stored: optional ``(leaf, summary)`` callback invoked
                after the data files are durable but *before* the
                in-memory index mutates — the WAL hook.  If it raises,
                the stored files are rolled back and nothing was
                indexed, so memory never runs ahead of the log.
        """
        t0 = time.perf_counter()
        names = list(snapshot.tables)
        compressed_tables, raw_bytes, run, codecs, dicts = self._pack_tables(
            snapshot, names
        )
        t1 = time.perf_counter()

        table_paths: dict[str, str] = {}
        compressed_bytes = 0
        try:
            for name, compressed in compressed_tables.items():
                path = self.leaf_path(snapshot.epoch, name, codecs.get(name))
                self._dfs.write_file(
                    path, compressed, replication=self._config.replication
                )
                table_paths[name] = path
                compressed_bytes += len(compressed)
        except StorageError:
            # Snapshot-level atomicity: a failed table write (already
            # rolled back by the DFS) must not leave sibling tables of
            # the same epoch behind — the leaf was never indexed, so
            # those files would be phantoms in the namespace.
            for path in table_paths.values():
                self._dfs.delete_file(path)
            raise
        t2 = time.perf_counter()

        leaf = SnapshotLeaf(
            epoch=snapshot.epoch,
            table_paths=table_paths,
            raw_bytes=raw_bytes,
            compressed_bytes=compressed_bytes,
            record_count=snapshot.record_count(),
            table_codecs=codecs,
            table_dicts=dicts,
        )
        snapshot_summary = summarize_snapshot(snapshot, self._config.highlights)
        if on_stored is not None:
            try:
                on_stored(leaf, snapshot_summary)
            except Exception:
                for path in table_paths.values():
                    if self._dfs.exists(path):
                        self._dfs.delete_file(path)
                raise
        self.index_leaf(leaf, snapshot_summary)
        t3 = time.perf_counter()

        return IngestReport(
            epoch=snapshot.epoch,
            raw_bytes=raw_bytes,
            compressed_bytes=compressed_bytes,
            compress_seconds=t1 - t0,
            store_seconds=t2 - t1,
            index_seconds=t3 - t2,
            executor=self._executor.name,
            parallel_tasks=run.tasks,
            task_seconds=run.task_seconds,
            queue_depth=run.queue_depth,
        )

    def _pack_tables(
        self, snapshot: Snapshot, names: list[str]
    ) -> tuple[dict[str, bytes], int, ExecutorRun, dict[str, str], dict[str, int]]:
        """Serialize + compress every table through the executor.

        Row layout fans out one task per table.  Columnar layout fans
        out per column (across all tables): a table stored as typed
        channels goes cells → channel in that one task and is only
        joined afterwards; any other codec gets one encode task per
        column, then one compress task per assembled table.  In auto
        mode both layouts serialize first, because the codec selector
        must sample each serialized payload before compression.

        Returns ``(compressed, raw_bytes, run, codecs, dicts)`` where
        ``codecs``/``dicts`` are the per-table codec names and shared-
        dictionary ids the leaf is tagged with.
        """
        codec_name = self._config.static_codec
        columnar = self._config.layout == COLUMNAR_LAYOUT
        if not names or (self._selector is None and not columnar):
            # Static codec, row layout: the fused serialize+compress task.
            packed, run = self._executor.run(
                _pack_table_task,
                [
                    (codec_name, self._config.layout, snapshot.tables[name])
                    for name in names
                ],
            )
            raw_bytes = sum(size for size, __ in packed)
            compressed_tables = {
                name: compressed for name, (__, compressed) in zip(names, packed)
            }
            codecs = {name: codec_name for name in names}
            return compressed_tables, raw_bytes, run, codecs, {}

        cells: dict[str, list[list[str]]] = {}
        encoded: dict[str, list[bytes]] = {}
        payloads: dict[str, bytes] = {}
        stage_run: ExecutorRun | None = None
        if not columnar:
            serialized, stage_run = self._executor.run(
                _serialize_table_task,
                [(self._config.layout, snapshot.tables[name]) for name in names],
            )
            payloads = dict(zip(names, serialized))
        else:
            cells = {
                name: columnar_column_cells(snapshot.tables[name]) for name in names
            }
            if self._selector is not None or codec_name != TYPEDCHANNEL_NAME:
                encoded_flat, stage_run = self._executor.run(
                    encode_column, [column for name in names for column in cells[name]]
                )
                remaining = iter(encoded_flat)
                for name in names:
                    encoded[name] = list(islice(remaining, len(cells[name])))
                    payloads[name] = assemble_columnar(
                        snapshot.tables[name], encoded[name]
                    )

        codecs: dict[str, str] = {}
        dicts: dict[str, int] = {}
        tasks: list[tuple] = []
        for name in names:
            codecs[name], dict_blob = codec_name, None
            if self._selector is not None:
                self._selector.observe(name, payloads[name])
                choice = self._selector.choose(name, payloads[name])
                codecs[name] = choice.codec
                if choice.dict_id is not None:
                    dicts[name] = choice.dict_id
                dict_blob = self._selector.dict_blob(choice.dict_id)
            if columnar and codecs[name] == TYPEDCHANNEL_NAME:
                # The cells are in hand: no COL1 parse, no decode.
                tasks += zip(
                    repeat(build_channel),
                    cells[name],
                    encoded.get(name) or repeat(None),
                )
            else:
                tasks.append(
                    (pack_payload_task, (codecs[name], dict_blob, payloads[name]))
                )
        results, run = self._executor.run(_call_task, tasks)
        remaining = iter(results)
        compressed: dict[str, bytes] = {}
        raw_bytes = 0
        for name in names:
            if columnar and codecs[name] == TYPEDCHANNEL_NAME:
                table = snapshot.tables[name]
                channels = list(islice(remaining, len(table.columns)))
                compressed[name] = assemble_channels(
                    table.columns, len(table.rows), channels
                )
                raw_bytes += columnar_size(table, [c.raw_len for c in channels])
            else:
                compressed[name] = next(remaining)
                raw_bytes += len(payloads[name])
        if stage_run is not None:
            run = stage_run.merged(run)
        return compressed, raw_bytes, run, codecs, dicts

    def index_leaf(self, leaf: SnapshotLeaf, summary: HighlightSummary) -> None:
        """Apply one stored snapshot to the index: append the leaf on
        the right-most path, finalize any period the new epoch closed,
        and fold the snapshot's summary into the pending day.

        This is ``ingest`` minus packing and storage — exactly the part
        WAL replay re-executes from a logged ``ingest`` record (the
        summary is logged too, because the data files of a
        since-decayed leaf can no longer be re-read to rebuild it).
        """
        new_day, new_month, new_year = self._index.insert_leaf(leaf)
        # A new period boundary means the previous period is complete:
        # finalize bottom-up (day before month before year).
        if new_day:
            self._finalize_completed_day()
        if new_month:
            self._finalize_completed_month()
        if new_year:
            self._finalize_completed_year()
        current_day = self._current_day()
        if current_day.summary is None:
            current_day.summary = HighlightSummary(level="day", period=current_day.key)
        current_day.summary.merge(summary)

    def finalize(self) -> None:
        """Close out the trailing (incomplete) day/month/year at end of
        stream so their summaries are queryable."""
        for day in self._index.day_nodes():
            if not day.finalized and day.summary is not None:
                self._finalize_day(day)
        for month in self._index.month_nodes():
            if not month.finalized:
                self._finalize_month(month)
        for year in self._index.years:
            if not year.finalized:
                self._finalize_year(year)

    @property
    def path_prefix(self) -> str:
        """DFS directory all snapshot files live under."""
        return self._prefix

    def leaf_path(self, epoch: int, table: str, codec: str | None = None) -> str:
        """DFS path for one snapshot table's compressed payload.

        The extension records the codec the file was written with (the
        leaf tag, not the path, is authoritative for decoding — but a
        truthful extension keeps ``spate ls`` and the DFS namespace
        legible in auto mode).
        """
        extension = codec or self._config.static_codec
        return f"{self._prefix}/epoch-{epoch:08d}/{table}.{extension}"

    # ------------------------------------------------------------------
    # Period finalization
    # ------------------------------------------------------------------

    def _current_day(self) -> DayNode:
        return self._index.years[-1].months[-1].days[-1]

    def _finalize_completed_day(self) -> None:
        """Finalize the day before the just-created one, if any."""
        days = self._index.day_nodes()
        if len(days) >= 2:
            previous = days[-2]
            if not previous.finalized:
                self._finalize_day(previous)

    def _finalize_completed_month(self) -> None:
        months = self._index.month_nodes()
        if len(months) >= 2 and not months[-2].finalized:
            self._finalize_month(months[-2])

    def _finalize_completed_year(self) -> None:
        if len(self._index.years) >= 2 and not self._index.years[-2].finalized:
            self._finalize_year(self._index.years[-2])

    def _finalize_day(self, day: DayNode) -> None:
        if day.summary is None:
            day.summary = HighlightSummary(level="day", period=day.key)
        day.summary.detect_highlights(self._config.highlights.theta_for_level("day"))
        day.finalized = True
        month = self._month_of(day)
        if month.summary is None:
            month.summary = HighlightSummary(level="month", period=month.key)
        month.summary.merge(day.summary)

    def _finalize_month(self, month: MonthNode) -> None:
        # Make sure every child day has been folded in first.
        for day in month.days:
            if not day.finalized:
                self._finalize_day(day)
        if month.summary is None:
            month.summary = HighlightSummary(level="month", period=month.key)
        month.summary.detect_highlights(self._config.highlights.theta_for_level("month"))
        month.finalized = True
        year = self._year_of(month)
        if year.summary is None:
            year.summary = HighlightSummary(level="year", period=year.key)
        year.summary.merge(month.summary)

    def _finalize_year(self, year: YearNode) -> None:
        for month in year.months:
            if not month.finalized:
                self._finalize_month(month)
        if year.summary is None:
            year.summary = HighlightSummary(level="year", period=year.key)
        year.summary.detect_highlights(self._config.highlights.theta_for_level("year"))
        year.finalized = True
        self._index.root_summary.merge(year.summary)

    def _month_of(self, day: DayNode) -> MonthNode:
        for month in self._index.month_nodes():
            if (month.year, month.month) == (day.day.year, day.day.month):
                return month
        raise AssertionError(f"day {day.key} has no parent month node")

    def _year_of(self, month: MonthNode) -> YearNode:
        for year in self._index.years:
            if year.year == month.year:
                return year
        raise AssertionError(f"month {month.key} has no parent year node")
