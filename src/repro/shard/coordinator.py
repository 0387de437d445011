"""Scatter-gather coordinator: a sharded warehouse that quacks like
:class:`~repro.core.spate.Spate`.

``ShardedSpate`` partitions every arriving snapshot by the hybrid
(cell-region, day) key into a FIXED number of region groups and fans
each group's sub-snapshot out to its replica set of worker shards
(:func:`~repro.shard.key.shards_for_group`: distinct shards per group).
Queries scatter to one live replica per group — primary first, failing
over down the chain — and gather with partial aggregation pushed down:
workers return per-epoch column chunks, ready-merged ``NumericStats``,
and their own coverage/scan telemetry; the coordinator only
concatenates in deterministic (epoch, group-rank) order and merges
counters.

Because the group count is fixed and the merge order is deterministic,
answers are byte-identical for every shard count — ``ShardedSpate``
with ``shards=1`` is the single-shard reference the differential gate
compares against.  (Relative to a *plain* ``Spate``, rows within an
epoch are permuted by region group; aggregates, grouped queries, and
ordered queries agree, row order of unordered scans does not — which
is exactly why the gate pins the shard API's own N=1 as the truth.)

Degradation contract: with ``partial_ok``, a group whose whole replica
chain is down (dead, breaker open, or timed out) is *skipped* and
itemised in ``CoverageReport.shards_skipped`` with its reason; strict
queries raise instead.  Mutations that miss a dead shard are buffered
per shard and replayed, in order, by :meth:`recover_shard` after the
worker's WAL-replay restart — rejoin without stopping reads.

Routing: a query with a spatial footprint — an explore box, or SQL
cell-equality predicates pushed down by the planner — contacts only
the region groups whose grid tiles the footprint covers, always
including group 0 (unknown cells and cell-less tables live there, so
the candidate set is provably a superset of the groups holding
matching rows).  Routed-away groups are itemised in
``CoverageReport.groups_routed``; like pruning, routing never makes a
query incomplete.  A query with no footprint scatters to all groups.
"""

from __future__ import annotations

import threading

from repro.baselines.base import IngestStats
from repro.core.config import SpateConfig
from repro.core.metrics import WarehouseMetrics
from repro.core.snapshot import Snapshot, Table
from repro.errors import QueryError, ShardError
from repro.query.explore import (
    CoverageReport,
    ExplorationQuery,
    ExplorationResult,
)
from repro.query.leafscan import (
    ScanStats,
    align_columns,
    read_columns,
    read_rows,
    read_rows_by_epoch,
)
from repro.query.sql.planner import cell_equality_values
from repro.shard.key import (
    RegionMap,
    effective_replication,
    shards_for_group,
    groups_for_shard,
)
from repro.shard.rpc import (
    CircuitBreaker,
    DeadlineBudget,
    ShardClient,
    failure_reason,
)
from repro.shard.split import split_snapshot
from repro.shard.worker import ShardWorker
from repro.spatial.geometry import Point


def _coverage_from_dict(data: dict) -> CoverageReport:
    report = CoverageReport()
    report.epochs_served = list(data.get("epochs_served", []))
    report.epochs_skipped = dict(data.get("epochs_skipped", {}))
    report.epochs_pruned = list(data.get("epochs_pruned", []))
    report.deadline_hit = bool(data.get("deadline_hit", False))
    report.shards_skipped = dict(data.get("shards_skipped", {}))
    report.groups_routed = list(data.get("groups_routed", []))
    return report


def _coverage_to_dict(report: CoverageReport) -> dict:
    return {
        "epochs_served": list(report.epochs_served),
        "epochs_skipped": dict(report.epochs_skipped),
        "epochs_pruned": list(report.epochs_pruned),
        "deadline_hit": report.deadline_hit,
        "shards_skipped": dict(report.shards_skipped),
        "groups_routed": list(report.groups_routed),
    }


class ShardedSpate:
    """Thin scatter-gather client over N process-backed worker shards."""

    name = "SPATE-sharded"

    def __init__(
        self,
        config: SpateConfig | None = None,
        worker_endpoints: dict[int, tuple[str, int]] | None = None,
    ) -> None:
        self.config = config or SpateConfig()
        sharding = self.config.sharding
        self.shards = sharding.shards
        self.region_groups = sharding.region_groups
        self.replication = sharding.group_replication
        #: shards_for_group cannot place more distinct replicas than
        #: shards exist; this is the factor queries actually get.
        self.effective_replication = effective_replication(
            self.shards, self.replication
        )
        #: Worker processes this coordinator spawned (socket transport
        #: only).  Empty when attached to pre-existing endpoints — the
        #: spawner owns termination, an attacher never does.
        self._worker_processes: dict[int, object] = {}
        if sharding.transport == "socket":
            from repro.shard.transport import (
                SocketShardProxy,
                start_worker_process,
            )

            if worker_endpoints is None:
                endpoints: dict[int, tuple[str, int]] = {}
                for shard_id in range(self.shards):
                    process, port = start_worker_process(
                        shard_id, self.config
                    )
                    self._worker_processes[shard_id] = process
                    endpoints[shard_id] = ("127.0.0.1", port)
            else:
                endpoints = {
                    int(shard_id): (host, int(port))
                    for shard_id, (host, port) in worker_endpoints.items()
                }
            self.worker_endpoints: dict[int, tuple[str, int]] | None = (
                endpoints
            )
            self.workers = {
                shard_id: SocketShardProxy(shard_id, host, port)
                for shard_id, (host, port) in sorted(endpoints.items())
            }
        else:
            if worker_endpoints is not None:
                raise ShardError(
                    "worker_endpoints requires sharding.transport='socket' "
                    f"(got {sharding.transport!r})"
                )
            self.worker_endpoints = None
            self.workers = {
                shard_id: ShardWorker(
                    shard_id,
                    self.config,
                    groups_for_shard(
                        shard_id,
                        self.shards,
                        self.region_groups,
                        self.replication,
                    ),
                )
                for shard_id in range(self.shards)
            }
        self.client = ShardClient(self.workers, sharding)
        self.metrics = WarehouseMetrics()
        self.metrics.shard_replication_configured = self.replication
        self.metrics.shard_replication_effective = self.effective_replication
        #: Region-group routing switch.  Flips off when the region map
        #: is rebuilt after rows were already placed (the rebuilt map
        #: cannot be proven to match placement); tests flip it to force
        #: full scatter for routed-vs-full differential comparison.
        self.route_queries = True
        self.cell_locations: dict[str, Point] = {}
        self._region_map: RegionMap | None = None
        #: shard -> mutations it missed while dead, replayed on rejoin.
        self._missed: dict[int, list[tuple[str, tuple]]] = {}
        self._suspected: set[int] = set()
        self._miss_streak: dict[int, int] = {s: 0 for s in self.workers}
        self._tables_seen: set[str] = set()
        self._ingested: list[int] = []
        self._frontier = 0
        self._finalized = False
        self._scan_tls = threading.local()

    # ------------------------------------------------------------------
    # Thread-local scan telemetry (same contract as Spate's)
    # ------------------------------------------------------------------

    @property
    def last_scan_coverage(self) -> dict:
        coverage = getattr(self._scan_tls, "coverage", None)
        if coverage is None:
            coverage = {"epochs_served": [], "epochs_skipped": {}}
            self._scan_tls.coverage = coverage
        return coverage

    @last_scan_coverage.setter
    def last_scan_coverage(self, coverage: dict) -> None:
        self._scan_tls.coverage = coverage

    @property
    def last_scan_stats(self) -> ScanStats:
        stats = getattr(self._scan_tls, "stats", None)
        if stats is None:
            stats = ScanStats()
            self._scan_tls.stats = stats
        return stats

    @last_scan_stats.setter
    def last_scan_stats(self, stats: ScanStats) -> None:
        self._scan_tls.stats = stats

    def _deadline(self) -> DeadlineBudget | None:
        """The current SQL statement's budget (set by sql/explain)."""
        return getattr(self._scan_tls, "deadline", None)

    # ------------------------------------------------------------------
    # Placement and RPC plumbing
    # ------------------------------------------------------------------

    def _group_of_cell(self, cell_id: str) -> int:
        if self._region_map is None:
            return 0
        return self._region_map.group_of(cell_id)

    def _route_groups(
        self, box=None, table=None, predicates=None
    ) -> list[int]:
        """Candidate region groups for a query footprint: sorted and
        always containing group 0 (unknown cells and cell-less tables
        live there), so the set is provably a superset of the groups
        holding matching rows.  Every group when there is no usable
        footprint or routing is off."""
        full = list(range(self.region_groups))
        if not self.route_queries or self._region_map is None:
            return full
        if box is not None:
            return self._region_map.groups_for_box(box)
        if table is not None and predicates:
            values = cell_equality_values(table, predicates)
            if values:
                # Each pinned cell restricts the scan to {0, its group};
                # ANDed pins intersect (two different cells leave only
                # group 0's unknown-cell rows as possible matches).
                sets = [
                    set(self._region_map.groups_for_cells([value]))
                    for value in values
                ]
                return sorted(set.intersection(*sets) | {0})
        return full

    def _note_routed(self, coverage: CoverageReport, groups: list[int]) -> None:
        """Record the groups a restricted scatter routed away."""
        if len(groups) >= self.region_groups:
            return
        routed = [g for g in range(self.region_groups) if g not in groups]
        coverage.groups_routed = routed
        self.client.counters.inc("groups_routed", len(routed))

    def _chain(self, group: int) -> list[int]:
        """Replica chain for a group, heartbeat-suspected shards last."""
        chain = shards_for_group(group, self.shards, self.replication)
        healthy = [s for s in chain if s not in self._suspected]
        suspected = [s for s in chain if s in self._suspected]
        return healthy + suspected

    def _call_group(
        self, group: int, method: str, *args, deadline=None, **kwargs
    ):
        """Call one live replica of a group, failing over down the chain.

        Raises the last :class:`ShardError` when every replica is out;
        application errors from a *reached* shard propagate immediately
        (a deterministic answer must not be retried elsewhere).
        """
        chain = self._chain(group)
        last_exc: ShardError | None = None
        for position, shard_id in enumerate(chain):
            try:
                result = self.client.call(
                    shard_id, method, group, *args, deadline=deadline, **kwargs
                )
            except ShardError as exc:
                last_exc = exc
                continue
            if position:
                self.client.counters.inc("failovers")
            return result
        raise last_exc

    def _mutate_group(self, group: int, method: str, *args):
        """Apply a mutation on every hosting replica of a group,
        buffering it for shards that are unreachable.  Returns the
        first (primary-most) successful result, or None."""
        first_result = None
        got_one = False
        for shard_id in shards_for_group(group, self.shards, self.replication):
            try:
                result = self.client.call(shard_id, method, group, *args)
            except ShardError:
                self._missed.setdefault(shard_id, []).append(
                    (method, (group, *args))
                )
                continue
            if not got_one:
                first_result = result
                got_one = True
        return first_result

    # ------------------------------------------------------------------
    # Setup / ingest (the Framework write surface)
    # ------------------------------------------------------------------

    def register_cells(self, cells: Table) -> None:
        """Build the region map and fan the full CELL relation to every
        shard (each group store needs the whole service area)."""
        x_idx = cells.column_index("x")
        y_idx = cells.column_index("y")
        id_idx = cells.column_index("cell_id")
        for row in cells.rows:
            self.cell_locations[row[id_idx]] = Point(
                float(row[x_idx]), float(row[y_idx])
            )
        if self._ingested:
            # Rows are already placed by the previous map (or by the
            # no-map group-0 default); a rebuilt map cannot be proven
            # to match that placement, so routing — which trusts the
            # map — is disabled rather than risk missing rows.  Full
            # scatter stays correct regardless of placement.
            self.route_queries = False
        self._region_map = RegionMap(
            self.cell_locations,
            self.region_groups,
            layout=self.config.sharding.region_layout,
        )
        for shard_id in sorted(self.workers):
            try:
                self.client.call(shard_id, "register_cells", cells)
            except ShardError:
                self._missed.setdefault(shard_id, []).append(
                    ("register_cells", (cells,))
                )

    def ingest(self, snapshot: Snapshot) -> IngestStats:
        """Split by region group and fan out to each group's replicas.

        Sizes are summed over one copy per group (replicas store the
        same bytes again; the logical warehouse did not grow twice).
        """
        if self._finalized:
            raise QueryError(
                f"cannot ingest epoch {snapshot.epoch}: the stream is "
                "finalized (rollups are closed; open a new warehouse)"
            )
        subs = split_snapshot(
            snapshot, self._group_of_cell, self.region_groups
        )
        raw = stored = 0
        seconds = 0.0
        for group in range(self.region_groups):
            stats = self._mutate_group(group, "ingest", subs[group])
            if stats is not None:
                raw += stats.raw_bytes
                stored += stats.stored_bytes
                seconds += stats.seconds
        self._tables_seen.update(snapshot.tables)
        self._ingested.append(snapshot.epoch)
        if snapshot.epoch > self._frontier:
            self._frontier = snapshot.epoch
        self.metrics.on_ingest(
            records=snapshot.record_count(),
            raw_bytes=raw,
            stored_bytes=stored,
            seconds=seconds,
        )
        self.metrics.sync_shards(self.client.counters)
        return IngestStats(
            epoch=snapshot.epoch,
            seconds=seconds,
            raw_bytes=raw,
            stored_bytes=stored,
        )

    def finalize(self) -> None:
        if self._finalized:
            raise QueryError(
                "finalize() was already called on this warehouse "
                "(possibly before a crash); the stream is closed"
            )
        for group in range(self.region_groups):
            self._mutate_group(group, "finalize")
        self._finalized = True

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def frontier_epoch(self) -> int:
        """Latest ingested epoch (the coordinator saw every ingest)."""
        return self._frontier

    def run_decay(self):
        """Force a decay pass on every group store (replicas included —
        they must age in lockstep)."""
        return [
            self._mutate_group(group, "run_decay")
            for group in range(self.region_groups)
        ]

    def decay_groups(self, older_than_epoch: int, keep_fraction: float = 0.25):
        """Apply the grouped-eviction fungus on every group store."""
        return [
            self._mutate_group(
                group, "decay_groups", older_than_epoch, keep_fraction
            )
            for group in range(self.region_groups)
        ]

    def heal(self):
        """Storage repair pass on every group store's DFS."""
        return [
            self._mutate_group(group, "heal")
            for group in range(self.region_groups)
        ]

    # ------------------------------------------------------------------
    # Chaos / recovery (shard ring membership)
    # ------------------------------------------------------------------

    def kill_shard(self, shard_id: int) -> None:
        """Crash one worker: its stores vanish, its DFS state stays."""
        self.workers[shard_id].kill()

    def recover_shard(self, shard_id: int) -> int:
        """Restart a dead worker (checkpoint + WAL replay per group
        store), replay the mutations it missed while down, reset its
        breaker, and un-suspect it.  Reads keep flowing on the replicas
        throughout.  Returns the number of replayed mutations."""
        worker = self.workers[shard_id]
        worker.restart()
        missed = self._missed.pop(shard_id, [])
        for method, args in missed:
            getattr(worker, method)(*args)
        sharding = self.config.sharding
        self.client.breakers[shard_id] = CircuitBreaker(
            sharding.breaker_threshold, sharding.breaker_cooldown_rpcs
        )
        self._suspected.discard(shard_id)
        self._miss_streak[shard_id] = 0
        self.client.counters.inc("recoveries")
        self.metrics.sync_shards(self.client.counters)
        return len(missed)

    # Alias mirroring the worker verb; chaos tooling uses either.
    restart_shard = recover_shard

    def heartbeat(self) -> dict[int, bool]:
        """Ping every shard; after ``heartbeat_miss_limit`` consecutive
        misses a shard is *suspected* and demoted to the back of every
        replica chain until it answers again (or is recovered)."""
        health = self.client.heartbeat()
        limit = self.config.sharding.heartbeat_miss_limit
        for shard_id, healthy in health.items():
            if healthy:
                self._miss_streak[shard_id] = 0
                self._suspected.discard(shard_id)
            else:
                self._miss_streak[shard_id] += 1
                if self._miss_streak[shard_id] >= limit:
                    self._suspected.add(shard_id)
        self.metrics.sync_shards(self.client.counters)
        return health

    # ------------------------------------------------------------------
    # Read surface (what the SQL layer and explore callers see)
    # ------------------------------------------------------------------

    def ingested_epochs(self) -> list[int]:
        """Live epochs, from any reachable replica of group 0 (groups
        ingest and decay in lockstep, so any group's answer is the
        warehouse's)."""
        try:
            return self._call_group(0, "ingested_epochs")
        except ShardError:
            return sorted(set(self._ingested))

    def table_columns(
        self, table: str, first_epoch: int, last_epoch: int
    ) -> list[str]:
        """Schema probe; any group knows every table's header."""
        for group in range(self.region_groups):
            try:
                columns = self._call_group(
                    group, "table_columns", table, first_epoch, last_epoch
                )
            except ShardError:
                continue
            if columns:
                return columns
        return []

    def read_columns_by_epoch(
        self,
        table: str,
        first_epoch: int,
        last_epoch: int,
        partial_ok: bool = False,
        predicates=None,
        columns=None,
    ) -> tuple[list[str], list[tuple[int, list[list[str]]]]]:
        """Scatter the scan to one live replica per group and gather
        per-epoch column chunks: each column's cells concatenated in
        group-rank order, every group aligned by column name to the
        first answering group's schema."""
        deadline = self._deadline()
        merged_cov = CoverageReport()
        merged_stats = ScanStats()
        out_columns: list[str] = []
        per_epoch: dict[int, list[list[str]]] = {}
        groups = self._route_groups(table=table, predicates=predicates)
        self._note_routed(merged_cov, groups)
        for group in groups:
            try:
                gcols, g_by_epoch, gcov, gstats = self._call_group(
                    group,
                    "read_columns_by_epoch",
                    table,
                    first_epoch,
                    last_epoch,
                    partial_ok,
                    predicates,
                    columns,
                    deadline=deadline,
                )
            except ShardError as exc:
                if not partial_ok:
                    raise
                key = f"g{group}@s{self._chain(group)[0]}"
                merged_cov.shards_skipped[key] = failure_reason(exc)
                self.client.counters.inc("shards_skipped")
                continue
            gcols = list(gcols)
            if not out_columns:
                out_columns = gcols
            for epoch, chunk in g_by_epoch:
                if gcols != out_columns:
                    chunk = align_columns(
                        out_columns,
                        dict(zip(gcols, chunk)),
                        len(chunk[0]) if chunk else 0,
                    )
                existing = per_epoch.get(epoch)
                if existing is None:
                    per_epoch[epoch] = [list(cells) for cells in chunk]
                else:
                    for mine, cells in zip(existing, chunk):
                        mine.extend(cells)
            merged_cov.merge(_coverage_from_dict(gcov))
            merged_stats.merge(gstats)
        self.last_scan_coverage = _coverage_to_dict(merged_cov)
        self.last_scan_stats = merged_stats
        self.metrics.on_query_scan(merged_stats)
        self.metrics.sync_shards(self.client.counters)
        return out_columns, [
            (epoch, per_epoch[epoch]) for epoch in sorted(per_epoch)
        ]

    # The other scan forms are edge transposes of the one above.
    read_columns = read_columns
    read_rows_by_epoch = read_rows_by_epoch
    read_rows = read_rows

    def table_statistics(self, table: str, first_epoch: int, last_epoch: int):
        """Planner statistics merged across all reachable groups (row
        counts add, bounds widen, distincts stay a lower bound).  Purely
        advisory: an unreachable group degrades the estimate, never the
        answer, so shard errors are swallowed."""
        merged = None
        for group in range(self.region_groups):
            try:
                stats = self._call_group(
                    group, "table_statistics", table, first_epoch, last_epoch
                )
            except ShardError:
                continue
            if stats is None:
                continue
            if merged is None:
                merged = stats
            else:
                merged.merge(stats)
        return merged

    def explore(
        self,
        table: str,
        attributes: tuple,
        box,
        first_epoch: int,
        last_epoch: int,
        coarse: bool = False,
        partial_ok: bool = False,
        deadline_ms: int | None = None,
    ) -> ExplorationResult:
        """Scatter Q(a, b, w) per group, gather with pushed-down partial
        aggregation: workers return merged ``NumericStats`` per
        attribute, the coordinator only merges accumulators and
        concatenates records in (epoch, group-rank) order."""
        if deadline_ms is None:
            deadline_ms = self.config.query_deadline_ms
        deadline = DeadlineBudget(deadline_ms or None)
        query = ExplorationQuery(
            table=table,
            attributes=tuple(attributes),
            box=box,
            first_epoch=first_epoch,
            last_epoch=last_epoch,
        )
        merged = ExplorationResult(query=query)
        per_epoch: dict[int, list[list[str]]] = {}
        groups = self._route_groups(box=box)
        self._note_routed(merged.coverage, groups)
        for group in groups:
            try:
                result = self._call_group(
                    group,
                    "explore",
                    table,
                    tuple(attributes),
                    box,
                    first_epoch,
                    last_epoch,
                    coarse,
                    partial_ok,
                    deadline.remaining_ms(),
                    deadline=deadline,
                )
            except ShardError as exc:
                if not partial_ok:
                    raise
                key = f"g{group}@s{self._chain(group)[0]}"
                merged.coverage.shards_skipped[key] = failure_reason(exc)
                self.client.counters.inc("shards_skipped")
                continue
            if not merged.columns and result.columns:
                merged.columns = list(result.columns)
            for record in result.records:
                per_epoch.setdefault(int(record[0]), []).append(record)
            for name, stats in result.aggregates.items():
                mine = merged.aggregates.get(name)
                if mine is None:
                    merged.aggregates[name] = stats.copy()
                else:
                    mine.merge(stats)
            merged.highlights.extend(result.highlights)
            for day, resolution in result.resolution_by_day.items():
                merged.resolution_by_day.setdefault(day, resolution)
            merged.snapshots_read += result.snapshots_read
            merged.coverage.merge(result.coverage)
            merged.scan_stats.merge(result.scan_stats)
        merged.records = [
            record
            for epoch in sorted(per_epoch)
            for record in per_epoch[epoch]
        ]
        self.metrics.on_explore(merged.snapshots_read, merged.used_decayed_data)
        self.metrics.on_query_scan(merged.scan_stats)
        if partial_ok and not merged.coverage.complete:
            self.metrics.on_degraded_query(
                epochs_skipped=len(merged.coverage.epochs_skipped),
                deadline_hit=merged.coverage.deadline_hit,
            )
        self.metrics.sync_shards(self.client.counters)
        return merged

    def highlights(self, first_epoch: int, last_epoch: int):
        """Detected highlights across all groups, group-rank order."""
        out = []
        for group in range(self.region_groups):
            out.extend(
                self._call_group(group, "highlights", first_epoch, last_epoch)
            )
        return out

    # ------------------------------------------------------------------
    # SQL surface
    # ------------------------------------------------------------------

    def sql_database(
        self,
        first_epoch: int | None = None,
        last_epoch: int | None = None,
        partial_ok: bool = False,
        tables: list[str] | None = None,
    ):
        from repro.query.sql.executor import Database

        first = 0 if first_epoch is None else first_epoch
        last = self._frontier if last_epoch is None else last_epoch
        names = tables or sorted(self._tables_seen)
        db = Database()
        db.metrics = self.metrics
        db.register_framework_scan(
            self, list(names), first, last, partial_ok=partial_ok
        )
        return db

    def sql(
        self,
        query: str,
        first_epoch: int | None = None,
        last_epoch: int | None = None,
        deadline_ms: int | None = None,
        partial_ok: bool = False,
    ):
        db = self.sql_database(first_epoch, last_epoch, partial_ok=partial_ok)
        if deadline_ms is None:
            deadline_ms = self.config.query_deadline_ms or None
        # One budget spans parse-to-output AND every shard RPC slice the
        # scans fan out (picked up thread-locally by read_columns_by_epoch).
        # Save/restore rather than clear: a nested sql() on the same
        # thread must not strip the outer statement's budget.
        previous = getattr(self._scan_tls, "deadline", None)
        self._scan_tls.deadline = DeadlineBudget(deadline_ms)
        try:
            return db.execute(query, deadline_ms=deadline_ms)
        finally:
            self._scan_tls.deadline = previous

    def explain(
        self,
        query: str,
        first_epoch: int | None = None,
        last_epoch: int | None = None,
        deadline_ms: int | None = None,
        partial_ok: bool = False,
    ) -> str:
        db = self.sql_database(first_epoch, last_epoch, partial_ok=partial_ok)
        if deadline_ms is None:
            deadline_ms = self.config.query_deadline_ms or None
        previous = getattr(self._scan_tls, "deadline", None)
        self._scan_tls.deadline = DeadlineBudget(deadline_ms)
        try:
            __, report = db.explain_analyze(query, deadline_ms=deadline_ms)
        finally:
            self._scan_tls.deadline = previous
        return report

    # ------------------------------------------------------------------
    # Coordinator restart (socket transport)
    # ------------------------------------------------------------------

    def resync(self) -> dict:
        """Rebuild coordinator bookkeeping from live workers after
        attaching to surviving socket endpoints: the worker processes
        outlived the old coordinator, its in-memory frontier and table
        registry did not.  Group stores ingest in lockstep, so group 0
        speaks for the warehouse.  Routing stays off until cells are
        re-registered — and stays off even then, because the rebuilt
        map cannot be proven to match the old coordinator's placement;
        a reattached coordinator answers by full scatter, which is
        correct for any placement.  Returns a small summary dict."""
        epochs = self._call_group(0, "ingested_epochs")
        self._ingested = sorted(epochs)
        self._frontier = max(epochs, default=0)
        tables = self._call_group(0, "known_tables")
        self._tables_seen.update(tables)
        self.metrics.sync_shards(self.client.counters)
        return {
            "epochs": len(self._ingested),
            "frontier": self._frontier,
            "tables": sorted(self._tables_seen),
        }

    def close(self) -> None:
        """Close RPC resources; terminate worker processes only if this
        coordinator spawned them (an attacher leaves them serving)."""
        self.client.close()
        for process in self._worker_processes.values():
            process.terminate()
            process.join(timeout=5.0)
        self._worker_processes.clear()


__all__ = ["ShardedSpate"]
