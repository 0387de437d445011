"""The SPATE framework facade (paper Figure 1).

Wires the three layers together: the storage layer (lossless codec over
a replicated DFS), the indexing layer (multi-resolution temporal index,
incremence, highlights, decay), and the application layer (exploration
queries; the SQL interface lives in :mod:`repro.query.sql`).

Typical use::

    from repro.core import Spate, SpateConfig
    from repro.telco import TelcoTraceGenerator, TraceConfig

    gen = TelcoTraceGenerator(TraceConfig(scale=0.01))
    spate = Spate(SpateConfig(codec="gzip"))
    spate.register_cells(gen.cells_table())
    for snapshot in gen.generate():
        spate.ingest(snapshot)
    spate.finalize()
    result = spate.explore("CDR", ("downflux",), box=None,
                           first_epoch=0, last_epoch=47)
"""

from __future__ import annotations

import functools
import json
import threading

from repro.baselines.base import Framework, IngestStats
from repro.compression.autotune import (
    CodecSelector,
    DictionaryStore,
    resolve_codec,
)
from repro.compression.base import Codec, get_codec
from repro.core.checkpoint import CheckpointInfo, CheckpointManager, encode_index
from repro.core.config import SpateConfig
from repro.core.leaf_cache import LeafCache
from repro.core.metrics import WarehouseMetrics
from repro.core.query_cache import QueryResultCache
from repro.core.rwlock import ReadWriteLock
from repro.core.snapshot import Snapshot, Table
from repro.dfs.faults import FaultInjector
from repro.dfs.filesystem import HealReport, SimulatedDFS
from repro.engine.executor import get_executor
from repro.errors import (
    ConfigError,
    DecayedDataError,
    QueryError,
    StorageError,
)
from repro.index.decay import DecayModule, DecayReport
from repro.index.recompact import RecompactionModule, RecompactionReport
from repro.index.highlights import Highlight, HighlightSummary
from repro.index.incremence import IncremenceModule, IngestReport
from repro.index.temporal import SnapshotLeaf, TemporalIndex
from repro.index.wal import IndexWal
from repro.query.explore import (
    CoverageReport,
    ExplorationEngine,
    ExplorationQuery,
    ExplorationResult,
)
from repro.query.leafscan import (
    ScanContext,
    ScanStats,
    align_columns,
    read_columns,
    read_rows,
    read_rows_by_epoch,
    scan_leaves,
)
from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.rtree import RTree


def _reads(method):
    """Bracket a query-path method with the shared read lock.

    Reentrant by design: ``sql`` read-locks and its table scans
    (``read_rows``) read-lock again on the same thread.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._state_lock.read_locked():
            return method(self, *args, **kwargs)

    return wrapper


def _writes(method):
    """Bracket a mutating method with the exclusive write lock."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._state_lock.write_locked():
            return method(self, *args, **kwargs)

    return wrapper


class Spate(Framework):
    """The SPATE telco big-data exploration framework."""

    name = "SPATE"

    def __init__(
        self,
        config: SpateConfig | None = None,
        dfs: SimulatedDFS | None = None,
    ) -> None:
        self.config = config or SpateConfig()
        #: Readers-writer lock bracketing the public API: queries share
        #: the read side, mutations (ingest/decay/recovery/...) take the
        #: write side.  This is what lets the serving layer run explore
        #: and SQL from many threads against one live ingest stream.
        self._state_lock = ReadWriteLock()
        self.fault_injector: FaultInjector | None = None
        if dfs is None:
            faults = self.config.faults
            if faults.enabled:
                self.fault_injector = FaultInjector(
                    seed=faults.seed,
                    crash_rate=faults.crash_rate,
                    restart_rate=faults.restart_rate,
                    corruption_rate=faults.corruption_rate,
                    write_failure_rate=faults.write_failure_rate,
                    max_dead_nodes=faults.max_dead_nodes,
                )
            dfs = SimulatedDFS(
                block_size=self.config.block_size,
                default_replication=self.config.replication,
                fault_injector=self.fault_injector,
                max_write_retries=faults.max_write_retries,
            )
        else:
            self.fault_injector = dfs.fault_injector
        #: Per-thread scan telemetry backing ``last_scan_stats`` /
        #: ``last_scan_coverage``.  Must exist before the base-class
        #: constructor runs: it assigns through the property setters.
        self._scan_tls = threading.local()
        super().__init__(dfs)
        # In auto mode this is the *fallback* codec; each leaf's tagged
        # codec (stamped at ingest) is authoritative on the read path.
        self.codec = get_codec(self.config.static_codec)
        self.dict_store = DictionaryStore(
            self.dfs, replication=self.config.replication
        )
        self.codec_selector: CodecSelector | None = (
            CodecSelector(self.config.autotune, self.dict_store)
            if self.config.autotune_enabled
            else None
        )
        self.index = TemporalIndex()
        self.executor = get_executor(
            self.config.executor, self.config.executor_workers
        )
        self.leaf_cache: LeafCache | None = (
            LeafCache(self.config.leaf_cache_bytes)
            if self.config.leaf_cache_bytes > 0
            else None
        )
        self.incremence = IncremenceModule(
            dfs=self.dfs,
            index=self.index,
            codec=self.codec,
            config=self.config,
            executor=self.executor,
            selector=self.codec_selector,
        )
        self.decay = DecayModule(
            dfs=self.dfs, index=self.index, config=self.config.decay
        )
        self.cell_locations: dict[str, Point] = {}
        self.area: BoundingBox | None = None
        self._leaf_spatial: dict[int, RTree] = {}
        self._last_ingest_report: IngestReport | None = None
        self.metrics = WarehouseMetrics()
        #: Monotonic version of the indexed state; any mutation that can
        #: change a query answer bumps it, implicitly invalidating the
        #: query-result cache (entries are keyed on it).
        self.index_version = 0
        self.query_cache = QueryResultCache(self.config.query_cache_entries)
        self._finalized = False
        self._epochs_since_checkpoint = 0
        self.last_recovery_report = None
        durability = self.config.durability
        self.wal: IndexWal | None = None
        self.checkpoints: CheckpointManager | None = None
        if durability.enabled:
            self.wal = IndexWal(
                self.dfs,
                replication=durability.metadata_replication,
                sync=durability.wal_sync,
            )
            self.checkpoints = CheckpointManager(
                self.dfs, replication=durability.metadata_replication
            )
        self._write_warehouse_meta_if_fresh()

    # ------------------------------------------------------------------
    # Per-thread scan telemetry
    # ------------------------------------------------------------------
    #
    # ``last_scan_stats`` / ``last_scan_coverage`` are written by every
    # ``read_rows`` call and read back by the SQL layer's lazy loaders
    # to decide, among other things, whether a result is complete
    # enough to cache.  The serving layer runs readers on a thread
    # pool against one shared Spate: were these plain instance
    # attributes, thread A's skipped-epoch coverage could be clobbered
    # by thread B's clean scan between A's scan and A's loader
    # snapshot — and A's *incomplete* result would be cached as
    # complete.  Thread-local storage keeps each reader's telemetry
    # its own.

    @property
    def last_scan_stats(self) -> ScanStats:
        """Read-path stats of this thread's most recent scan."""
        stats = getattr(self._scan_tls, "stats", None)
        if stats is None:
            stats = ScanStats()
            self._scan_tls.stats = stats
        return stats

    @last_scan_stats.setter
    def last_scan_stats(self, stats: ScanStats) -> None:
        self._scan_tls.stats = stats

    @property
    def last_scan_coverage(self) -> dict:
        """Coverage of this thread's most recent scan."""
        coverage = getattr(self._scan_tls, "coverage", None)
        if coverage is None:
            coverage = {"epochs_served": [], "epochs_skipped": {}}
            self._scan_tls.coverage = coverage
        return coverage

    @last_scan_coverage.setter
    def last_scan_coverage(self, coverage: dict) -> None:
        self._scan_tls.coverage = coverage

    #: Immutable creation-time warehouse facts (codec, layout) — what
    #: recovery's migration shim trusts when it meets leaves recorded
    #: before per-leaf codec tagging existed.
    WAREHOUSE_META_PATH = "/spate/warehouse.json"

    def _write_warehouse_meta_if_fresh(self) -> None:
        """Record the creation codec/layout, only on a fresh warehouse.

        A non-empty ``/spate`` namespace means this instance is opening
        existing state — possibly under a *different* configured codec,
        which is exactly the situation the recorded value must survive
        to detect; stamping the new config over it would destroy the
        evidence.
        """
        try:
            if self.dfs.list_dir("/spate"):
                return
            body = json.dumps(
                {
                    "codec": self.config.codec,
                    "static_codec": self.config.static_codec,
                    "layout": self.config.layout,
                    "region_layout": self.config.sharding.region_layout,
                },
                sort_keys=True,
            ).encode("utf-8")
            self.dfs.write_file(
                self.WAREHOUSE_META_PATH, body, replication=self.config.replication
            )
        except StorageError:
            # Best effort: every new leaf is codec-tagged anyway; only
            # the legacy-migration hint is lost.
            pass

    def stored_warehouse_meta(self) -> dict | None:
        """The creation-time warehouse record, or None when absent
        (pre-tagging warehouse) or unreadable."""
        try:
            return json.loads(self.dfs.read_file(self.WAREHOUSE_META_PATH))
        except (StorageError, ValueError):
            return None

    @classmethod
    def open(
        cls,
        config: SpateConfig | None = None,
        dfs: SimulatedDFS | None = None,
    ) -> "Spate":
        """Open a warehouse from durable state: construct an instance on
        ``dfs`` and reconstruct its metadata as newest checkpoint + WAL
        replay.  Ingest resumes at the exact recovered frontier epoch;
        the recovery report is left on ``last_recovery_report``.

        Raises:
            RecoveryError: when ``config.durability`` is disabled.
        """
        spate = cls(config=config, dfs=dfs)
        spate.recover()
        return spate

    @staticmethod
    def create(config: SpateConfig | None = None):
        """Build the warehouse the config asks for.

        With ``config.sharding.shards > 1`` this returns a
        :class:`~repro.shard.coordinator.ShardedSpate` — the scatter-
        gather coordinator over process-backed worker shards, which
        quacks like this class on the whole query surface.  Otherwise a
        plain single-shard :class:`Spate` (the default, byte-identical
        to constructing one directly).
        """
        config = config or SpateConfig()
        if config.sharding.shards > 1:
            from repro.shard import ShardedSpate  # local: avoids a cycle

            return ShardedSpate(config)
        return Spate(config)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    @_writes
    def register_cells(self, cells: Table) -> None:
        """Load the CELL relation so records gain spatial meaning.

        Every record is linked to a cell id; the cell centroid (x, y)
        is the finest location available (paper §II-B).
        """
        x_idx = cells.column_index("x")
        y_idx = cells.column_index("y")
        id_idx = cells.column_index("cell_id")
        for row in cells.rows:
            self.cell_locations[row[id_idx]] = Point(float(row[x_idx]), float(row[y_idx]))
        if self.cell_locations:
            points = list(self.cell_locations.values())
            self.area = BoundingBox.from_points(points)
        self._bump_index_version()
        if self.wal is not None:
            self.wal.append(
                "cells",
                {
                    "cells": {
                        cell_id: [point.x, point.y]
                        for cell_id, point in self.cell_locations.items()
                    }
                },
            )
            self._flush_wal()

    # ------------------------------------------------------------------
    # Framework interface
    # ------------------------------------------------------------------

    @_writes
    def ingest(self, snapshot: Snapshot) -> IngestStats:
        """Compress, store, index and (optionally) decay for one epoch.

        Raises:
            QueryError: if the stream was already finalized — late
                appends would silently miss the closed-out rollups.
        """
        if self._finalized:
            raise QueryError(
                f"cannot ingest epoch {snapshot.epoch}: the stream is "
                "finalized (rollups are closed; open a new warehouse)"
            )
        io_before = self.dfs.modeled_io_seconds
        report = self.incremence.ingest(
            snapshot, on_stored=self._log_ingest if self.wal is not None else None
        )
        self._last_ingest_report = report
        if self.config.leaf_spatial_index:
            self._build_leaf_rtree(snapshot)
        if self.config.decay.enabled:
            decay_report = self.decay.run()
            self._log_decay(decay_report)
            if decay_report.leaves_evicted:
                self.metrics.on_decay(
                    decay_report.leaves_evicted, decay_report.bytes_reclaimed
                )
                self._invalidate_cached_epochs(decay_report.evicted_epochs)
        stored_leaf = self.index.find_leaf(snapshot.epoch)
        if stored_leaf is not None:
            # The leaf's recorded paths are authoritative — in auto mode
            # each table's extension names its chosen codec, so the
            # paths cannot be recomputed from config alone.
            self._epoch_tables[snapshot.epoch] = dict(stored_leaf.table_paths)
        faults = self.config.faults
        ingested_so_far = self.metrics.snapshots_ingested + 1  # counting this one
        if (
            faults.enabled
            and faults.heal_interval_epochs
            and ingested_so_far % faults.heal_interval_epochs == 0
        ):
            self.metrics.on_heal(self.dfs.heal())
        self.metrics.sync_storage_faults(self.dfs.fault_stats, self.fault_injector)
        seconds = report.total_seconds + (self.dfs.modeled_io_seconds - io_before)
        self.metrics.on_executor_run(
            backend=report.executor,
            tasks=report.parallel_tasks,
            wall_seconds=report.compress_seconds,
            task_seconds=report.task_seconds,
            queue_depth=report.queue_depth,
        )
        self.metrics.on_ingest(
            records=snapshot.record_count(),
            raw_bytes=report.raw_bytes,
            stored_bytes=report.compressed_bytes,
            seconds=seconds,
        )
        if self.codec_selector is not None:
            self.metrics.sync_autotune(self.codec_selector.report)
        if self.wal is not None:
            self._flush_wal()
            interval = self.config.durability.checkpoint_interval_epochs
            self._epochs_since_checkpoint += 1
            if interval and self._epochs_since_checkpoint >= interval:
                try:
                    self.checkpoint()
                except StorageError:
                    # The previous checkpoint stays current; the WAL
                    # still covers everything, so retry next interval.
                    self._epochs_since_checkpoint = interval
            self.metrics.sync_durability(self.wal, self.checkpoints)
        self._bump_index_version()
        return IngestStats(
            epoch=snapshot.epoch,
            seconds=seconds,
            raw_bytes=report.raw_bytes,
            stored_bytes=report.compressed_bytes,
        )

    @_reads
    def read_table(self, epoch: int, table: str) -> Table | None:
        """Decompress one table of one stored snapshot (a one-leaf scan
        of every column, transposed into fresh rows).

        Raises:
            QueryError: if the epoch was never ingested.
            DecayedDataError: if the snapshot has been evicted by decay.
        """
        from repro.compression.typedchannel import table_from_columns

        scanned = self._scan_leaf(self._require_leaf(epoch), table)
        if scanned is None:
            return None
        names, cells, n_rows = scanned
        return table_from_columns(
            table, list(names), [cells[name] for name in names], n_rows
        )

    @_reads
    def table_columns(
        self, table: str, first_epoch: int, last_epoch: int
    ) -> list[str]:
        """Schema of ``table`` over the range: the column names of the
        first readable leaf holding it — a one-leaf scan that asks for no
        column, so a resident or typed-channel leaf decodes no cell."""
        for leaf in self.index.leaves():
            if leaf.decayed or not first_epoch <= leaf.epoch <= last_epoch:
                continue
            scanned = self._scan_leaf(leaf, table, columns=(), partial_ok=True)
            if scanned is not None:
                return list(scanned[0])
        return []

    def _scan_leaf(
        self, leaf: SnapshotLeaf, table: str, columns=None, partial_ok=False
    ):
        """One leaf through the scan pipeline, outside any query's
        telemetry: ``(names, {column: cells}, n_rows)``, or None when the
        leaf lacks the table (or, under ``partial_ok``, is unreadable)."""
        scanned = scan_leaves(
            self._scan_context(), [leaf], table, leaf.epoch, leaf.epoch,
            columns, ScanStats(), CoverageReport(), partial_ok,
        )
        return scanned[0][1:] if scanned else None

    @_reads
    def read_snapshot(self, epoch: int) -> Snapshot:
        """Decompress one stored snapshot (all tables).

        Raises:
            QueryError: if the epoch was never ingested.
            DecayedDataError: if the snapshot has been evicted by decay.
        """
        snapshot = Snapshot(epoch=epoch)
        for name in sorted(self._require_leaf(epoch).table_paths):
            snapshot.add_table(self.read_table(epoch, name))
        return snapshot

    def _require_leaf(self, epoch: int) -> SnapshotLeaf:
        leaf = self._find_leaf(epoch)
        if leaf is None:
            raise QueryError(f"epoch {epoch} was never ingested")
        if leaf.decayed:
            raise DecayedDataError(
                f"epoch {epoch} decayed; only aggregates remain"
            )
        return leaf

    @_reads
    def ingested_epochs(self) -> list[int]:
        """Live (non-decayed) epochs — decayed leaves can't be scanned."""
        return [leaf.epoch for leaf in self.index.leaves() if not leaf.decayed]

    @_reads
    def read_columns_by_epoch(
        self,
        table: str,
        first_epoch: int,
        last_epoch: int,
        partial_ok: bool = False,
        predicates=None,
        columns=None,
    ) -> tuple[list[str], list[tuple[int, list[list[str]]]]]:
        """Scan one table across an epoch range — the SQL table scan,
        and the shard worker's scan RPC payload.

        Returns ``(columns, [(epoch, per-column cell lists), ...])`` in
        ascending epoch order, one chunk per scanned leaf
        (:func:`~repro.query.leafscan.scan_leaves`).  The schema is the
        first scanned leaf's; every chunk is aligned to it by column
        name (:func:`~repro.query.leafscan.align_columns`).

        Two pushdown hints: ``predicates`` (a list of
        :class:`~repro.query.sql.planner.ScanPredicate`; a leaf whose
        day summary or zone maps disprove one is skipped unread — the
        SQL executor re-applies every predicate row-wise anyway) and
        ``columns`` (the referenced-column set; only these are decoded
        and served, the rest stay blank).  A pruned leaf is never
        touched, so its quarantine state is irrelevant to it.  Cells
        match the serial, unpruned base scan exactly on every column a
        hint allowed the caller to reference.  Cell lists may be the
        leaf cache's own, so chunks are read-only to every consumer.
        """
        report = CoverageReport()
        self.last_scan_coverage = {
            "epochs_served": report.epochs_served,
            "epochs_skipped": report.epochs_skipped,
            "epochs_pruned": report.epochs_pruned,
        }
        stats = self.last_scan_stats = ScanStats()
        scanned = scan_leaves(
            self._scan_context(), self.index.leaves(), table,
            first_epoch, last_epoch, columns, stats, report,
            partial_ok, predicates=predicates,
        )
        out_columns = list(scanned[0][1]) if scanned else []
        by_epoch = [
            (epoch, align_columns(out_columns, cells, n_rows))
            for epoch, __, cells, n_rows in scanned
        ]
        if not out_columns and report.epochs_pruned:
            # Everything in range was pruned: recover the schema with
            # one probe read so callers still see real column names.
            out_columns = self.table_columns(table, first_epoch, last_epoch)
        self.metrics.on_query_scan(stats)
        return out_columns, by_epoch

    # The other scan forms are edge transposes of the one above.
    read_columns = read_columns
    read_rows_by_epoch = read_rows_by_epoch
    read_rows = read_rows

    @_reads
    def table_statistics(self, table: str, first_epoch: int, last_epoch: int):
        """Planner statistics for one table over an epoch range, merged
        from the day summaries the warehouse already maintains (row
        counts, per-attribute bounds, capped distinct sets).  Purely
        index-resident: no leaf is read.  Day granularity means a range
        covering part of a day overestimates — acceptable for a cost
        model.  Returns None when no summary saw the table."""
        from repro.query.sql.cost import stats_from_summary

        merged = None
        seen_days: set = set()
        for leaf in self.index.leaves():
            if leaf.decayed or not (first_epoch <= leaf.epoch <= last_epoch):
                continue
            if leaf.day_key in seen_days:
                continue
            seen_days.add(leaf.day_key)
            day = self.index.find_day(leaf.day_key)
            summary = day.summary if day is not None else None
            if summary is None:
                continue
            stats = stats_from_summary(summary, table)
            if stats is None:
                continue
            if merged is None:
                merged = stats
            else:
                merged.merge(stats)
        return merged

    @_writes
    def finalize(self) -> None:
        """Close the stream: finalize trailing day/month/year summaries.

        Idempotence guard: finalization is a one-way door — a second
        call (or one on a warehouse recovered as already-finalized)
        raises instead of silently re-merging summaries upward, and
        later ``ingest`` calls are refused.

        Raises:
            QueryError: if the stream was already finalized.
        """
        if self._finalized:
            raise QueryError(
                "finalize() was already called on this warehouse "
                "(possibly before a crash); the stream is closed"
            )
        self.incremence.finalize()
        self._finalized = True
        self._bump_index_version()
        if self.wal is not None:
            self.wal.append("finalize", {})
            self._flush_wal()
            try:
                self.checkpoint()
            except StorageError:
                pass  # WAL already carries the finalize record

    @property
    def finalized(self) -> bool:
        """True once the stream has been closed by :meth:`finalize`."""
        return self._finalized

    # ------------------------------------------------------------------
    # Exploration API
    # ------------------------------------------------------------------

    @_reads
    def explore(
        self,
        table: str,
        attributes: tuple[str, ...],
        box: BoundingBox | None,
        first_epoch: int,
        last_epoch: int,
        coarse: bool = False,
        partial_ok: bool = False,
        deadline_ms: int | None = None,
    ) -> ExplorationResult:
        """Run Q(a, b, w).

        Args:
            coarse: use the paper's single-covering-node prefetch mode
                instead of the per-day finest-resolution walk.
            partial_ok: degrade instead of failing — skip quarantined or
                unreadable leaves and stop at the deadline, itemising
                skipped epochs in ``result.coverage``.
            deadline_ms: per-query wall-clock budget; None falls back to
                ``config.query_deadline_ms`` (0 = unlimited).
        """
        query = ExplorationQuery(
            table=table,
            attributes=tuple(attributes),
            box=box,
            first_epoch=first_epoch,
            last_epoch=last_epoch,
        )
        cache_key = None
        if self.query_cache.enabled:
            cache_key = ("explore", table, tuple(attributes), repr(box),
                         first_epoch, last_epoch, coarse)
            cached = self.query_cache.get(cache_key, self.index_version)
            if cached is not None:
                self.metrics.on_query_cache(hit=True)
                self.metrics.on_explore(0, cached.used_decayed_data)
                return cached
            self.metrics.on_query_cache(hit=False)
        if deadline_ms is None:
            deadline_ms = self.config.query_deadline_ms
        deadline_s = deadline_ms / 1000.0 if deadline_ms else None
        engine = self._engine()
        result = (
            engine.evaluate_coarse(query)
            if coarse
            else engine.evaluate(query, partial_ok=partial_ok, deadline_s=deadline_s)
        )
        self.metrics.on_explore(result.snapshots_read, result.used_decayed_data)
        self.metrics.on_query_scan(result.scan_stats)
        if partial_ok and not result.coverage.complete:
            self.metrics.on_degraded_query(
                epochs_skipped=len(result.coverage.epochs_skipped),
                deadline_hit=result.coverage.deadline_hit,
            )
        if cache_key is not None and result.coverage.complete:
            # Partial answers depend on the fault and deadline state at
            # evaluation time; only complete results are reusable.
            self.query_cache.put(cache_key, self.index_version, result)
        return result

    @_reads
    def highlights(self, first_epoch: int, last_epoch: int) -> list[Highlight]:
        """Detected highlights overlapping the window."""
        return self._engine().highlights_in_window(first_epoch, last_epoch)

    # ------------------------------------------------------------------
    # SQL API
    # ------------------------------------------------------------------

    @_reads
    def sql_database(
        self,
        first_epoch: int | None = None,
        last_epoch: int | None = None,
        partial_ok: bool = False,
        tables: list[str] | None = None,
    ):
        """A :class:`~repro.query.sql.executor.Database` whose tables
        scan this warehouse lazily, with predicate and projection
        pushdown per query.  Defaults to every stored table over the
        whole ingested history."""
        from repro.query.sql.executor import Database

        first = 0 if first_epoch is None else first_epoch
        last = (
            self.index.frontier_epoch if last_epoch is None else last_epoch
        )
        names = tables or sorted(
            {
                name
                for leaf in self.index.leaves()
                if not leaf.decayed
                for name in leaf.table_paths
            }
        )
        db = Database()
        db.metrics = self.metrics
        db.register_framework_scan(
            self, list(names), first, last, partial_ok=partial_ok
        )
        return db

    @_reads
    def sql(
        self,
        query: str,
        first_epoch: int | None = None,
        last_epoch: int | None = None,
        deadline_ms: int | None = None,
        partial_ok: bool = False,
    ):
        """Run one SQL SELECT over the warehouse's stored tables.

        Results are served from the query-result cache when an
        identical query ran against the identical index version (any
        ingest / decay / fungus / recovery invalidates); only complete
        scans (nothing skipped) are cached.
        """
        first = 0 if first_epoch is None else first_epoch
        last = self.index.frontier_epoch if last_epoch is None else last_epoch
        cache_key = None
        if self.query_cache.enabled and isinstance(query, str):
            cache_key = ("sql", query, first, last, partial_ok)
            cached = self.query_cache.get(cache_key, self.index_version)
            if cached is not None:
                self.metrics.on_query_cache(hit=True)
                return cached
            self.metrics.on_query_cache(hit=False)
        db = self.sql_database(first, last, partial_ok=partial_ok)
        if deadline_ms is None:
            deadline_ms = self.config.query_deadline_ms or None
        result = db.execute(query, deadline_ms=deadline_ms)
        if cache_key is not None and all(
            not coverage.get("epochs_skipped")
            for coverage in db.scan_coverage.values()
        ):
            self.query_cache.put(cache_key, self.index_version, result)
        return result

    @_reads
    def explain(
        self,
        query: str,
        first_epoch: int | None = None,
        last_epoch: int | None = None,
        deadline_ms: int | None = None,
        partial_ok: bool = False,
    ) -> str:
        """EXPLAIN ANALYZE: run the query and return its plan annotated
        with actual stage timings and read-path scan statistics."""
        db = self.sql_database(first_epoch, last_epoch, partial_ok=partial_ok)
        if deadline_ms is None:
            deadline_ms = self.config.query_deadline_ms or None
        __, report = db.explain_analyze(query, deadline_ms=deadline_ms)
        return report

    @_writes
    def heal(self) -> HealReport:
        """Force a storage repair pass: scrub corrupt replicas and
        re-replicate under-replicated blocks back to the requested
        factor (normally run every ``faults.heal_interval_epochs``
        ingests when fault tolerance is enabled)."""
        report = self.dfs.heal()
        self.metrics.on_heal(report)
        self.metrics.sync_storage_faults(self.dfs.fault_stats, self.fault_injector)
        self._bump_index_version()
        return report

    @_writes
    def run_decay(self) -> DecayReport:
        """Force a decay pass (normally run on every ingest)."""
        report = self.decay.run()
        self._log_decay(report)
        if self.wal is not None:
            self._flush_wal()
        if report.leaves_evicted:
            self.metrics.on_decay(report.leaves_evicted, report.bytes_reclaimed)
            self._invalidate_cached_epochs(report.evicted_epochs)
        if report.mutated:
            self._bump_index_version()
        return report

    @_writes
    def decay_groups(
        self, older_than_epoch: int, keep_fraction: float = 0.25
    ):
        """Apply the "Evict Grouped Individuals" fungus: rewrite leaves
        older than ``older_than_epoch`` keeping only the busiest
        ``keep_fraction`` of cells (selected from the index's per-cell
        summaries).  Returns the :class:`~repro.index.fungus.
        GroupDecayReport`.
        """
        from repro.index.fungus import EvictGroupedIndividuals, busiest_cells

        keep = busiest_cells(self.index, "CDR", keep_fraction)
        if not keep:
            # Summaries not finalized yet; fall back to all known cells.
            keep = set(self.cell_locations)
        fungus = EvictGroupedIndividuals(
            dfs=self.dfs,
            index=self.index,
            codec=self.codec,
            layout=self.config.layout,
            codec_for=self._codec_for_leaf,
        )
        report = fungus.run(older_than_epoch, keep)
        if self.wal is not None and report.rewritten_sizes:
            self.wal.append(
                "fungus",
                {
                    "sizes": {
                        str(epoch): [stored, records]
                        for epoch, (stored, records) in report.rewritten_sizes.items()
                    }
                },
            )
            self._flush_wal()
        if report.bytes_reclaimed:
            self.metrics.on_decay(0, report.bytes_reclaimed)
        self._invalidate_cached_epochs(report.rewritten_epochs)
        self._bump_index_version()
        return report

    @_writes
    def recompact(self, max_leaves: int | None = None) -> RecompactionReport:
        """Run one background recompaction pass: rewrite live leaves
        older than ``autotune.recompact_after_epochs`` to the densest
        candidate codec (full-payload comparison, lossless).

        Works in any codec mode — leaves are codec-tagged at ingest
        either way — and is WAL-logged like decay/fungus: superseded
        files are deleted only after the ``recompact`` record is
        durable, so a crash on either side leaves every leaf readable.
        """
        selector = self.codec_selector or CodecSelector(
            self.config.autotune, self.dict_store
        )
        module = RecompactionModule(
            dfs=self.dfs,
            index=self.index,
            config=self.config,
            selector=selector,
            codec_for=self._codec_for_leaf,
        )
        report = module.run(max_leaves=max_leaves)
        if self.wal is not None and report.rewritten_leaves:
            self.wal.append(
                "recompact",
                {
                    "leaves": {
                        str(epoch): info
                        for epoch, info in report.rewritten_leaves.items()
                    }
                },
            )
            self._flush_wal()
        for path in report.replaced_paths:
            try:
                self.dfs.delete_file(path)
            except StorageError:  # pragma: no cover - cleanup is best effort
                pass  # recovery's orphan sweep collects it
        if report.mutated:
            for epoch in report.rewritten_epochs:
                leaf = self._find_leaf(epoch)
                if leaf is not None:
                    self._epoch_tables[epoch] = dict(leaf.table_paths)
            self.metrics.on_recompaction(
                leaves=report.leaves_rewritten,
                tables=report.tables_rewritten,
                bytes_reclaimed=report.bytes_reclaimed,
            )
            self._invalidate_cached_epochs(report.rewritten_epochs)
            self._bump_index_version()
        return report

    # ------------------------------------------------------------------
    # Durability: checkpoints and crash recovery
    # ------------------------------------------------------------------

    @_writes
    def checkpoint(self) -> CheckpointInfo:
        """Commit a checkpoint of the whole indexing layer and truncate
        the WAL through its watermark.

        Raises:
            QueryError: when durability is disabled.
            StorageError: when the flush or checkpoint write fails (the
                previous checkpoint stays current).
        """
        if self.wal is None or self.checkpoints is None:
            raise QueryError(
                "checkpointing requires SpateConfig.durability.enabled"
            )
        self.wal.flush()  # the watermark may only cover durable records
        state = {
            "index": encode_index(self.index),
            "cells": {
                cell_id: [point.x, point.y]
                for cell_id, point in self.cell_locations.items()
            },
            "finalized": self._finalized,
        }
        info = self.checkpoints.write(state, wal_seq=self.wal.last_seq)
        self.wal.truncate_through(info.wal_seq)
        self._epochs_since_checkpoint = 0
        self.metrics.sync_durability(self.wal, self.checkpoints)
        return info

    @_writes
    def recover(self):
        """Reconstruct this (freshly constructed) instance's metadata
        from the DFS: newest checkpoint + WAL replay, then orphan
        cleanup, leaf verification, and a fresh checkpoint.  Returns the
        :class:`~repro.core.recovery.RecoveryReport`.

        Raises:
            ConfigError: when the configured ``region_layout``
                contradicts the one this warehouse was created under
                (reopening with a different tile→group fold would move
                every cell's region group and silently change answers).
        """
        from repro.core.recovery import run_recovery

        self._check_region_layout()
        report = run_recovery(self)
        self._bump_index_version()
        return report

    def _check_region_layout(self) -> None:
        """Refuse to open a warehouse under a contradicting region
        layout.  Warehouses created before layout versioning carry no
        record and are layout 1 (the legacy stripe fold) by definition.
        """
        meta = self.stored_warehouse_meta()
        if meta is None:
            return
        stored = int(meta.get("region_layout", 1))
        configured = self.config.sharding.region_layout
        if stored != configured:
            raise ConfigError(
                f"this warehouse was created with region_layout {stored} "
                f"but is being opened with region_layout {configured}; "
                "the tile→group fold decides which region group stores "
                "each cell's leaves, so changing it would reshuffle "
                "placement and corrupt routed answers.  Reopen with "
                f"sharding.region_layout={stored}"
            )

    @_writes
    def verify_leaves(self) -> tuple[int, dict[int, str]]:
        """Check every live leaf's blocks for at least one live valid
        replica, updating each leaf's ``quarantined`` flag both ways —
        so a pass after :meth:`heal` lifts quarantines that repair
        resolved.  Returns ``(quarantined_count, {epoch: reason})``.
        """
        reasons: dict[int, str] = {}
        for leaf in self.index.leaves():
            if leaf.decayed:
                leaf.quarantined = False
                continue
            damage = self._leaf_damage(leaf)
            leaf.quarantined = damage is not None
            if damage is not None:
                reasons[leaf.epoch] = damage
        self.metrics.leaves_quarantined = len(reasons)
        self._bump_index_version()
        return len(reasons), reasons

    def _leaf_damage(self, leaf: SnapshotLeaf) -> str | None:
        """Why this leaf cannot be read (None when it can)."""
        for __, path in sorted(leaf.table_paths.items()):
            if not self.dfs.exists(path):
                return f"missing file {path}"
            meta = self.dfs.namenode.lookup(path)
            for block_id in meta.blocks:
                if not self._block_has_valid_replica(block_id):
                    return (
                        f"block {block_id} of {path} has no live valid replica"
                    )
        return None

    def _block_has_valid_replica(self, block_id: int) -> bool:
        for node_id in self.dfs.namenode.locations(block_id):
            node = self.dfs.datanodes.get(node_id)
            if (
                node is not None
                and node.alive
                and node.has_block(block_id)
                and node.replica_is_valid(block_id)
            ):
                return True
        return False

    def _install_index(self, index: TemporalIndex) -> None:
        """Swap in a recovered index, rebinding every module that holds
        a reference to the old one."""
        self.index = index
        self.incremence = IncremenceModule(
            dfs=self.dfs,
            index=self.index,
            codec=self.codec,
            config=self.config,
            executor=self.executor,
            selector=self.codec_selector,
        )
        self.decay = DecayModule(
            dfs=self.dfs, index=self.index, config=self.config.decay
        )
        self._bump_index_version()

    def _log_ingest(self, leaf: SnapshotLeaf, summary: HighlightSummary) -> None:
        """WAL hook between "files durable" and "index mutated"."""
        record = {
            "epoch": leaf.epoch,
            "paths": dict(leaf.table_paths),
            "raw": leaf.raw_bytes,
            "stored": leaf.compressed_bytes,
            "records": leaf.record_count,
            "summary": summary.to_dict(),
        }
        if leaf.table_codecs:
            record["codecs"] = dict(leaf.table_codecs)
        if leaf.table_dicts:
            record["dicts"] = dict(leaf.table_dicts)
        self.wal.append("ingest", record)

    def _log_decay(self, report: DecayReport) -> None:
        if self.wal is None or not report.mutated:
            return
        self.wal.append(
            "decay",
            {
                "epochs": list(report.evicted_epochs),
                "day_keys": list(report.evicted_day_keys),
                "month_keys": list(report.evicted_month_keys),
            },
        )

    def _flush_wal(self) -> None:
        """Flush buffered WAL records; a failed flush keeps the buffer
        for retry (counted, so operators see the durability lag)."""
        try:
            self.wal.flush()
        except StorageError:
            self.metrics.wal_flush_failures += 1

    @_reads
    def render_index(self) -> str:
        """ASCII view of the temporal index (Figure 5)."""
        return self.index.render()

    @property
    def last_ingest_report(self) -> IngestReport | None:
        """Stage-level timing of the most recent ingest."""
        return self._last_ingest_report

    def leaf_rtree(self, epoch: int) -> RTree | None:
        """Per-snapshot spatial index, when ``leaf_spatial_index`` is on."""
        return self._leaf_spatial.get(epoch)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _engine(self) -> ExplorationEngine:
        # Built fresh per query: it is cheap, and the scan context must
        # track live config (tests reassign ``spate.config``).
        return ExplorationEngine(
            index=self.index,
            cell_locations=self.cell_locations,
            scan_context=self._scan_context(),
        )

    def _scan_context(self) -> ScanContext:
        """The parallel-scan view of this warehouse for the read path."""
        cached = self.leaf_cache is not None
        return ScanContext(
            executor=self.executor,
            codec_name=self.config.static_codec,
            layout=self.config.layout,
            pruning=self.config.query_pruning,
            read_payload=self.dfs.read_file,
            cache_get=self._scan_cache_get if cached else None,
            cache_put=self._scan_cache_put if cached else None,
            codec_of=self._leaf_codec_info,
            day_summary=self._day_summary,
        )

    def _day_summary(self, leaf: SnapshotLeaf) -> HighlightSummary | None:
        day = self.index.find_day(leaf.day_key)
        return day.summary if day is not None else None

    def _scan_cache_get(self, epoch: int, table: str, columns) -> tuple:
        """One scan's leaf-cache probe (:meth:`LeafCache.get`); the hit
        or miss is counted here, at the probe, so the metrics agree with
        the cache's own counters whatever the decode then does."""
        found = self.leaf_cache.get(epoch, table, columns)
        self.metrics.on_leaf_cache(hit=found[1] is not None)
        return found

    def _scan_cache_put(
        self, epoch: int, table: str, descriptor, columns: dict, nbytes: int
    ) -> None:
        evicted = self.leaf_cache.put(epoch, table, descriptor, columns, nbytes)
        self.metrics.on_leaf_cache_change(
            evicted, 0, self.leaf_cache.current_bytes
        )

    def _bump_index_version(self) -> None:
        """Invalidate cached query results: the indexed state changed."""
        self.index_version += 1

    def _leaf_codec_info(
        self, epoch: int, table: str
    ) -> tuple[str, bytes | None]:
        """(codec name, dictionary bytes) to decode one leaf table —
        the leaf's self-describing tag when present, the configured
        static codec for untagged legacy leaves."""
        leaf = self._find_leaf(epoch)
        name = leaf.codec_for(table) if leaf is not None else None
        if name is None:
            return self.config.static_codec, None
        dict_id = leaf.table_dicts.get(table)
        if dict_id is None:
            return name, None
        return name, self.dict_store.get(dict_id).data

    def _codec_for_leaf(self, leaf: SnapshotLeaf, table: str) -> Codec:
        """Decode-capable codec for one leaf table (fungus/recompaction
        hand the leaf itself rather than an epoch)."""
        return resolve_codec(*self._leaf_codec_info(leaf.epoch, table))

    def _find_leaf(self, epoch: int) -> SnapshotLeaf | None:
        return self.index.find_leaf(epoch)

    def _invalidate_cached_epochs(self, epochs: list[int]) -> None:
        """Drop cached descriptors and columns of leaves that decay,
        the fungus or recompaction purged or rewrote."""
        if self.leaf_cache is None or not epochs:
            return
        dropped = 0
        for epoch in epochs:
            dropped += self.leaf_cache.invalidate_epoch(epoch)
        if dropped:
            self.metrics.on_leaf_cache_change(
                0, dropped, self.leaf_cache.current_bytes
            )

    def _build_leaf_rtree(self, snapshot: Snapshot) -> None:
        """Optional per-leaf spatial index over the snapshot's records."""
        tree = RTree(max_entries=16)
        for table_name, table in snapshot.tables.items():
            from repro.index.highlights import CELL_COLUMN

            cell_col = CELL_COLUMN.get(table_name)
            if cell_col is None or cell_col not in table.columns:
                continue
            cell_idx = table.column_index(cell_col)
            for row_no, row in enumerate(table.rows):
                location = self.cell_locations.get(row[cell_idx])
                if location is not None:
                    tree.insert_point(location, (table_name, row_no))
        self._leaf_spatial[snapshot.epoch] = tree
