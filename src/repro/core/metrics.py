"""Operational metrics for the SPATE warehouse.

A lightweight counter/gauge registry the facade updates on every
ingest, query, and decay pass — the observability surface an operator
of the paper's system would watch (ingest lag vs the 30-minute budget,
compression ratio trend, decay reclamation, query mix).

Thread safety: the serving layer updates one registry from many reader
threads plus the ingest worker, so every update hook runs under a
per-instance lock (unguarded ``+=`` on counters loses increments under
contention).  Reads of individual counters stay lock-free — they are
single attribute loads, and a summary that is one increment stale is
fine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

#: Latency reservoir cap: enough for any bench run while bounding RAM.
_LATENCY_SAMPLE_CAP = 200_000


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation, 0.0 when
    there are no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass
class WarehouseMetrics:
    """Running totals for one SPATE instance."""

    snapshots_ingested: int = 0
    records_ingested: int = 0
    raw_bytes_ingested: int = 0
    stored_bytes_written: int = 0
    ingest_seconds_total: float = 0.0

    exploration_queries: int = 0
    snapshots_decompressed: int = 0
    decayed_answers: int = 0

    decay_passes: int = 0
    leaves_evicted: int = 0
    bytes_reclaimed: int = 0

    #: Ingest-pipeline executor instrumentation.
    executor_backend: str = ""
    executor_tasks: int = 0
    executor_queue_depth_max: int = 0
    compress_wall_seconds: float = 0.0
    compress_task_seconds: float = 0.0

    #: Leaf-cache (decompressed read cache) counters.
    leaf_cache_hits: int = 0
    leaf_cache_misses: int = 0
    leaf_cache_evictions: int = 0
    leaf_cache_invalidations: int = 0
    #: Current cache occupancy gauge, refreshed on every put/invalidate.
    leaf_cache_bytes: int = 0

    #: Storage fault-tolerance counters (mirrors of the DFS's
    #: FaultStats, refreshed via :meth:`sync_storage_faults`).
    dfs_write_retries: int = 0
    dfs_write_failures: int = 0
    dfs_writes_rolled_back: int = 0
    dfs_checksum_failures: int = 0
    dfs_read_failovers: int = 0
    dfs_corrupt_replicas_dropped: int = 0
    dfs_re_replicated_copies: int = 0
    dfs_excess_replicas_trimmed: int = 0
    dfs_retry_budget_spent: int = 0
    dfs_retry_budget_exhausted: int = 0
    heal_passes: int = 0
    #: Current under-replicated gauge from the most recent heal pass.
    under_replicated_blocks: int = 0
    #: Injected-fault counters (what the chaos harness broke on purpose).
    faults_crashes_injected: int = 0
    faults_restarts_injected: int = 0
    faults_corruptions_injected: int = 0
    faults_write_failures_injected: int = 0

    #: Metadata durability counters (WAL + checkpoint + recovery).
    wal_records_appended: int = 0
    wal_segments_written: int = 0
    wal_bytes_written: int = 0
    wal_flush_failures: int = 0
    checkpoints_written: int = 0
    recoveries: int = 0
    wal_records_replayed: int = 0
    leaves_quarantined: int = 0
    orphan_files_removed: int = 0

    #: Degraded-query counters (partial_ok / deadline paths).
    partial_queries: int = 0
    epochs_skipped_degraded: int = 0
    deadline_expirations: int = 0

    #: Shard-layer counters (mirrors of the coordinator's running
    #: totals, refreshed via :meth:`sync_shards`; all zero in
    #: single-shard mode).
    shard_rpcs: int = 0
    shard_rpc_retries: int = 0
    shard_failovers: int = 0
    shard_breaker_trips: int = 0
    shard_heartbeat_misses: int = 0
    shards_skipped: int = 0
    shard_recoveries: int = 0
    shard_retry_budget_spent: int = 0
    shard_retry_budget_exhausted: int = 0
    #: Region groups queries never contacted thanks to spatial routing.
    shard_groups_routed: int = 0
    #: Replication as configured vs what shards_for_group can actually
    #: place (clamped to the shard count when it exceeds it).
    shard_replication_configured: int = 0
    shard_replication_effective: int = 0

    #: Read-path counters (parallel, pruned leaf scans).
    query_leaves_scanned: int = 0
    query_leaves_pruned: int = 0
    query_leaves_zone_pruned: int = 0
    query_scan_cache_hits: int = 0
    query_bytes_decompressed: int = 0
    query_channels_decoded: int = 0
    query_channel_bytes_skipped: int = 0
    #: Typed-channel residency: headers / decoded channels scans took
    #: from the leaf cache instead of parsing / decoding.
    query_header_cache_hits: int = 0
    query_channels_from_cache: int = 0
    query_scan_wall_seconds: float = 0.0
    query_scan_task_seconds: float = 0.0
    #: Backend of the decode fan-outs; ``"mixed"`` once scans have run
    #: on more than one backend (never silently overwritten).
    query_scan_backend: str = ""
    #: Query-result cache counters (complete results keyed on query +
    #: index version).
    query_cache_hits: int = 0
    query_cache_misses: int = 0

    #: SQL statements executed and total result rows returned.
    sql_queries: int = 0
    sql_rows_returned: int = 0
    #: Always 0 (there is no row engine); benchmarks/ledger reads it.
    sql_queries_row: int = 0

    #: Adaptive codec selection (codec="auto") counters, mirrored from
    #: the selector's telemetry via :meth:`sync_autotune`.
    autotune_payloads_scored: int = 0
    autotune_dictionaries_trained: int = 0
    #: codec label -> times it won the bicriteria score.
    autotune_selections: dict[str, int] = field(default_factory=dict)

    #: Background recompaction (aged leaves re-encoded densest).
    recompaction_passes: int = 0
    recompaction_leaves_rewritten: int = 0
    recompaction_tables_rewritten: int = 0
    recompaction_bytes_reclaimed: int = 0

    #: Serving-layer counters (the async front-end in ``repro.server``).
    requests_admitted: int = 0
    requests_rejected: int = 0
    requests_shed: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    #: Ingest-session queue instrumentation (bounded queue backpressure).
    ingest_queue_depth_max: int = 0
    ingest_appends: int = 0
    ingest_sheds: int = 0
    #: tenant id -> queries admitted for it.
    tenant_queries: dict[str, int] = field(default_factory=dict)
    _latency_samples_ms: list[float] = field(default_factory=list, repr=False)

    #: max ingest time seen, to compare against the epoch budget.
    worst_ingest_seconds: float = 0.0
    _ratio_samples: list[float] = field(default_factory=list, repr=False)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Update hooks (called by the facade)
    # ------------------------------------------------------------------

    def on_ingest(
        self,
        records: int,
        raw_bytes: int,
        stored_bytes: int,
        seconds: float,
    ) -> None:
        """Record one ingested snapshot's sizes and timing."""
        with self._lock:
            self.snapshots_ingested += 1
            self.records_ingested += records
            self.raw_bytes_ingested += raw_bytes
            self.stored_bytes_written += stored_bytes
            self.ingest_seconds_total += seconds
            if seconds > self.worst_ingest_seconds:
                self.worst_ingest_seconds = seconds
            if stored_bytes:
                self._ratio_samples.append(raw_bytes / stored_bytes)

    def on_explore(self, snapshots_read: int, used_decayed: bool) -> None:
        """Record one exploration query's storage touch."""
        with self._lock:
            self.exploration_queries += 1
            self.snapshots_decompressed += snapshots_read
            if used_decayed:
                self.decayed_answers += 1

    def on_decay(self, leaves_evicted: int, bytes_reclaimed: int) -> None:
        """Record one decay pass's evictions."""
        with self._lock:
            self.decay_passes += 1
            self.leaves_evicted += leaves_evicted
            self.bytes_reclaimed += bytes_reclaimed

    def on_executor_run(
        self,
        backend: str,
        tasks: int,
        wall_seconds: float,
        task_seconds: float,
        queue_depth: int,
    ) -> None:
        """Record one ingest fan-out through the executor backend."""
        with self._lock:
            self.executor_backend = backend
            self.executor_tasks += tasks
            self.compress_wall_seconds += wall_seconds
            self.compress_task_seconds += task_seconds
            if queue_depth > self.executor_queue_depth_max:
                self.executor_queue_depth_max = queue_depth

    def on_leaf_cache(self, hit: bool) -> None:
        """Record one leaf-cache lookup."""
        with self._lock:
            if hit:
                self.leaf_cache_hits += 1
            else:
                self.leaf_cache_misses += 1

    def on_leaf_cache_change(
        self, evictions: int, invalidations: int, current_bytes: int
    ) -> None:
        """Record cache churn and refresh the occupancy gauge."""
        with self._lock:
            self.leaf_cache_evictions += evictions
            self.leaf_cache_invalidations += invalidations
            self.leaf_cache_bytes = current_bytes

    def sync_storage_faults(self, fault_stats, injector=None) -> None:
        """Mirror the DFS's cumulative fault counters (and the
        injector's, when a chaos run attached one).  The DFS owns the
        running totals, so this *sets* rather than adds."""
        with self._lock:
            self.dfs_write_retries = fault_stats.write_retries
            self.dfs_write_failures = fault_stats.write_failures
            self.dfs_writes_rolled_back = fault_stats.writes_rolled_back
            self.dfs_checksum_failures = fault_stats.checksum_failures
            self.dfs_read_failovers = fault_stats.read_failovers
            self.dfs_corrupt_replicas_dropped = fault_stats.corrupt_replicas_dropped
            self.dfs_re_replicated_copies = fault_stats.re_replicated_copies
            self.dfs_excess_replicas_trimmed = fault_stats.excess_replicas_trimmed
            self.dfs_retry_budget_spent = getattr(
                fault_stats, "retry_budget_spent", 0
            )
            self.dfs_retry_budget_exhausted = getattr(
                fault_stats, "retry_budget_exhausted", 0
            )
            self.heal_passes = fault_stats.heal_passes
            if injector is not None:
                self.faults_crashes_injected = injector.crashes_injected
                self.faults_restarts_injected = injector.restarts_injected
                self.faults_corruptions_injected = injector.corruptions_injected
                self.faults_write_failures_injected = injector.write_failures_injected

    def on_heal(self, report) -> None:
        """Record one heal pass's outcome (the pass counter itself is
        mirrored from the DFS by :meth:`sync_storage_faults`)."""
        with self._lock:
            self.under_replicated_blocks = report.under_replicated_after

    def sync_durability(self, wal, checkpoints) -> None:
        """Mirror the WAL's and checkpoint manager's running totals."""
        with self._lock:
            if wal is not None:
                self.wal_records_appended = wal.records_appended
                self.wal_segments_written = wal.segments_written
                self.wal_bytes_written = wal.bytes_written
            if checkpoints is not None:
                self.checkpoints_written = checkpoints.checkpoints_written

    def on_recovery(
        self, records_replayed: int, quarantined: int, orphans_removed: int
    ) -> None:
        """Record one crash-recovery pass."""
        with self._lock:
            self.recoveries += 1
            self.wal_records_replayed += records_replayed
            self.leaves_quarantined = quarantined
            self.orphan_files_removed += orphans_removed

    def on_degraded_query(self, epochs_skipped: int, deadline_hit: bool) -> None:
        """Record one query answered in ``partial_ok`` mode."""
        with self._lock:
            self.partial_queries += 1
            self.epochs_skipped_degraded += epochs_skipped
            if deadline_hit:
                self.deadline_expirations += 1

    def sync_shards(self, counters) -> None:
        """Mirror the shard coordinator's cumulative RPC counters (a
        :class:`~repro.shard.rpc.ShardCounters`; the coordinator owns
        the running totals, so this *sets* rather than adds)."""
        with self._lock:
            self.shard_rpcs = counters.rpcs
            self.shard_rpc_retries = counters.retries
            self.shard_failovers = counters.failovers
            self.shard_breaker_trips = counters.breaker_trips
            self.shard_heartbeat_misses = counters.heartbeat_misses
            self.shards_skipped = counters.shards_skipped
            self.shard_recoveries = counters.recoveries
            self.shard_retry_budget_spent = counters.retry_budget_spent
            self.shard_retry_budget_exhausted = counters.retry_budget_exhausted
            self.shard_groups_routed = counters.groups_routed

    def on_query_scan(self, stats) -> None:
        """Fold one query's :class:`~repro.query.leafscan.ScanStats` in."""
        with self._lock:
            self.query_leaves_scanned += stats.leaves_scanned
            self.query_leaves_pruned += stats.leaves_pruned
            self.query_leaves_zone_pruned += getattr(
                stats, "leaves_zone_pruned", 0
            )
            self.query_scan_cache_hits += stats.cache_hits
            self.query_bytes_decompressed += stats.bytes_decompressed
            self.query_channels_decoded += getattr(
                stats, "channels_decoded", 0
            )
            self.query_channel_bytes_skipped += getattr(
                stats, "channel_bytes_skipped", 0
            )
            self.query_header_cache_hits += stats.header_cache_hits
            self.query_channels_from_cache += stats.channels_from_cache
            self.query_scan_wall_seconds += stats.wall_seconds
            self.query_scan_task_seconds += stats.task_seconds
            if stats.backend:
                if (
                    self.query_scan_backend
                    and self.query_scan_backend != stats.backend
                ):
                    self.query_scan_backend = "mixed"
                else:
                    self.query_scan_backend = stats.backend

    def on_sql_execution(self, rows: int) -> None:
        """Record one SQL statement and its result size."""
        with self._lock:
            self.sql_queries += 1
            self.sql_rows_returned += rows

    def on_query_cache(self, hit: bool) -> None:
        """Record one query-result cache lookup."""
        with self._lock:
            if hit:
                self.query_cache_hits += 1
            else:
                self.query_cache_misses += 1

    def sync_autotune(self, report) -> None:
        """Mirror the codec selector's running telemetry (a
        :class:`~repro.compression.autotune.SelectorReport`; the
        selector owns the totals, so this *sets* rather than adds)."""
        with self._lock:
            self.autotune_payloads_scored = report.payloads_scored
            self.autotune_dictionaries_trained = report.dictionaries_trained
            self.autotune_selections = dict(report.selections)

    def on_recompaction(
        self, leaves: int, tables: int, bytes_reclaimed: int
    ) -> None:
        """Record one recompaction pass that rewrote something."""
        with self._lock:
            self.recompaction_passes += 1
            self.recompaction_leaves_rewritten += leaves
            self.recompaction_tables_rewritten += tables
            self.recompaction_bytes_reclaimed += bytes_reclaimed

    # ------------------------------------------------------------------
    # Serving-layer hooks (called by repro.server)
    # ------------------------------------------------------------------

    def on_request_admitted(self, tenant: str) -> None:
        """Record one query request passing admission control."""
        with self._lock:
            self.requests_admitted += 1
            self.tenant_queries[tenant] = self.tenant_queries.get(tenant, 0) + 1

    def on_request_rejected(self, shed: bool = False) -> None:
        """Record one rejection: ``shed`` for global-overload sheds,
        otherwise a per-tenant quota rejection."""
        with self._lock:
            if shed:
                self.requests_shed += 1
            else:
                self.requests_rejected += 1

    def on_request_done(self, latency_ms: float, ok: bool) -> None:
        """Record one admitted request finishing (either way)."""
        with self._lock:
            if ok:
                self.requests_completed += 1
            else:
                self.requests_failed += 1
            if len(self._latency_samples_ms) < _LATENCY_SAMPLE_CAP:
                self._latency_samples_ms.append(latency_ms)

    def on_ingest_enqueued(self, queue_depth: int) -> None:
        """Record one snapshot entering the serving-layer ingest queue."""
        with self._lock:
            self.ingest_appends += 1
            if queue_depth > self.ingest_queue_depth_max:
                self.ingest_queue_depth_max = queue_depth

    def on_ingest_shed(self) -> None:
        """Record one snapshot refused by ingest-queue backpressure."""
        with self._lock:
            self.ingest_sheds += 1

    def query_latency_ms(self, q: float) -> float:
        """The ``q``-th percentile of served-request latency, ms."""
        with self._lock:
            return percentile(self._latency_samples_ms, q)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def mean_compression_ratio(self) -> float:
        """Average per-snapshot compression ratio so far."""
        if not self._ratio_samples:
            return 0.0
        return sum(self._ratio_samples) / len(self._ratio_samples)

    @property
    def mean_ingest_seconds(self) -> float:
        """Average ingest time per snapshot so far."""
        if not self.snapshots_ingested:
            return 0.0
        return self.ingest_seconds_total / self.snapshots_ingested

    @property
    def parallel_speedup(self) -> float:
        """Compress-stage speedup: serial-equivalent work / wall time."""
        if self.compress_wall_seconds <= 0.0 or self.compress_task_seconds <= 0.0:
            return 1.0
        return self.compress_task_seconds / self.compress_wall_seconds

    @property
    def leaf_cache_hit_rate(self) -> float:
        """Fraction of leaf reads served from the decompressed cache."""
        total = self.leaf_cache_hits + self.leaf_cache_misses
        return self.leaf_cache_hits / total if total else 0.0

    @property
    def query_prune_rate(self) -> float:
        """Fraction of candidate leaves queries skipped unread — via
        day summaries or typed-channel zone maps."""
        pruned = self.query_leaves_pruned + self.query_leaves_zone_pruned
        total = self.query_leaves_scanned + pruned
        return pruned / total if total else 0.0

    @property
    def query_scan_speedup(self) -> float:
        """Decode-stage speedup across all query scans so far (0.0
        when no decode wall time was measured — nothing to claim)."""
        if self.query_scan_wall_seconds <= 0.0:
            return 0.0
        return self.query_scan_task_seconds / self.query_scan_wall_seconds

    def epoch_budget_headroom(self, epoch_seconds: float = 30 * 60) -> float:
        """How many times the worst ingest fits in one epoch."""
        if self.worst_ingest_seconds == 0.0:
            return float("inf")
        return epoch_seconds / self.worst_ingest_seconds

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            "SPATE warehouse metrics",
            f"  snapshots ingested:    {self.snapshots_ingested}",
            f"  records ingested:      {self.records_ingested:,}",
            f"  raw -> stored bytes:   {self.raw_bytes_ingested:,} -> "
            f"{self.stored_bytes_written:,} "
            f"(mean ratio {self.mean_compression_ratio:.2f}x)",
            f"  mean/worst ingest:     {self.mean_ingest_seconds * 1000:.1f} ms / "
            f"{self.worst_ingest_seconds * 1000:.1f} ms "
            f"(budget headroom {self.epoch_budget_headroom():,.0f}x)",
            f"  exploration queries:   {self.exploration_queries} "
            f"({self.decayed_answers} answered from decayed summaries)",
            f"  snapshots decompressed:{self.snapshots_decompressed}",
            f"  decay: {self.decay_passes} passes, "
            f"{self.leaves_evicted} leaves evicted, "
            f"{self.bytes_reclaimed:,} bytes reclaimed",
        ]
        if self.executor_backend:
            lines.append(
                f"  ingest executor:       {self.executor_backend} "
                f"({self.executor_tasks} tasks, "
                f"max queue depth {self.executor_queue_depth_max})"
            )
            lines.append(
                f"  compress stage:        wall {self.compress_wall_seconds:.3f} s, "
                f"work {self.compress_task_seconds:.3f} s "
                f"(speedup {self.parallel_speedup:.2f}x)"
            )
        lines.append(
            f"  leaf cache:            {self.leaf_cache_hits} hits / "
            f"{self.leaf_cache_misses} misses "
            f"({self.leaf_cache_hit_rate:.0%} hit rate), "
            f"{self.leaf_cache_evictions} evictions, "
            f"{self.leaf_cache_invalidations} invalidations, "
            f"{self.leaf_cache_bytes:,} bytes resident"
        )
        if (
            self.query_leaves_scanned
            or self.query_leaves_pruned
            or self.query_leaves_zone_pruned
        ):
            backend = (
                f", {self.query_scan_backend} decode" if self.query_scan_backend else ""
            )
            zone = (
                f", {self.query_leaves_zone_pruned} zone-pruned"
                if self.query_leaves_zone_pruned
                else ""
            )
            lines.append(
                f"  query read path:       {self.query_leaves_scanned} leaves scanned "
                f"({self.query_scan_cache_hits} from cache), "
                f"{self.query_leaves_pruned} pruned "
                f"({self.query_prune_rate:.0%}){zone}, "
                f"{self.query_bytes_decompressed:,} bytes decompressed "
                + (
                    f"(speedup {self.query_scan_speedup:.2f}x{backend})"
                    if self.query_scan_wall_seconds > 0.0
                    else f"(speedup n/a{backend})"
                )
            )
        if (
            self.query_channels_decoded
            or self.query_channel_bytes_skipped
            or self.query_header_cache_hits
        ):
            lines.append(
                f"  typed channels:        {self.query_channels_decoded} decoded, "
                f"{self.query_channel_bytes_skipped:,} encoded bytes skipped, "
                f"{self.query_header_cache_hits} headers and "
                f"{self.query_channels_from_cache} channels from cache"
            )
        if self.query_cache_hits or self.query_cache_misses:
            lines.append(
                f"  query result cache:    {self.query_cache_hits} hits / "
                f"{self.query_cache_misses} misses"
            )
        if self.sql_queries:
            lines.append(
                f"  sql queries:           {self.sql_queries}, "
                f"{self.sql_rows_returned:,} rows returned"
            )
        if self.autotune_payloads_scored:
            wins = ", ".join(
                f"{label} x{count}"
                for label, count in sorted(self.autotune_selections.items())
            )
            lines.append(
                f"  codec autotune:        {self.autotune_payloads_scored} "
                f"payloads scored, {self.autotune_dictionaries_trained} "
                f"dictionaries trained"
                + (f" (wins: {wins})" if wins else "")
            )
        if self.recompaction_passes:
            lines.append(
                f"  recompaction:          {self.recompaction_passes} passes, "
                f"{self.recompaction_leaves_rewritten} leaves "
                f"({self.recompaction_tables_rewritten} tables) rewritten, "
                f"{self.recompaction_bytes_reclaimed:,} bytes reclaimed"
            )
        if self.wal_records_appended or self.recoveries:
            lines.append(
                f"  metadata durability:   {self.wal_records_appended} WAL records "
                f"in {self.wal_segments_written} segments "
                f"({self.wal_bytes_written:,} bytes, "
                f"{self.wal_flush_failures} flush failures), "
                f"{self.checkpoints_written} checkpoints"
            )
        if self.recoveries:
            lines.append(
                f"  recovery:              {self.recoveries} passes, "
                f"{self.wal_records_replayed} WAL records replayed, "
                f"{self.leaves_quarantined} leaves quarantined, "
                f"{self.orphan_files_removed} orphan files removed"
            )
        if self.partial_queries or self.deadline_expirations:
            lines.append(
                f"  degraded queries:      {self.partial_queries} partial answers, "
                f"{self.epochs_skipped_degraded} epochs skipped, "
                f"{self.deadline_expirations} deadline expirations"
            )
        if self.shard_rpcs or self.shard_recoveries:
            lines.append(
                f"  shards:                {self.shard_rpcs} RPCs "
                f"({self.shard_rpc_retries} retries, "
                f"{self.shard_retry_budget_spent} budget tokens), "
                f"{self.shard_failovers} failovers, "
                f"{self.shard_breaker_trips} breaker trips, "
                f"{self.shard_heartbeat_misses} heartbeat misses, "
                f"{self.shards_skipped} shard slices skipped, "
                f"{self.shard_groups_routed} groups routed away, "
                f"{self.shard_recoveries} recoveries"
            )
        if self.shard_replication_configured:
            line = (
                f"  shard replication:     "
                f"{self.shard_replication_effective} effective"
            )
            if (
                self.shard_replication_effective
                != self.shard_replication_configured
            ):
                line += (
                    f" (configured {self.shard_replication_configured}, "
                    "clamped to the shard count)"
                )
            lines.append(line)
        if self.requests_admitted or self.requests_rejected or self.requests_shed:
            lines.append(
                f"  serving admission:     {self.requests_admitted} admitted, "
                f"{self.requests_rejected} quota-rejected, "
                f"{self.requests_shed} shed, "
                f"{self.requests_completed} completed / "
                f"{self.requests_failed} failed"
            )
            lines.append(
                f"  serving latency:       p50 {self.query_latency_ms(50):.1f} ms / "
                f"p95 {self.query_latency_ms(95):.1f} ms / "
                f"p99 {self.query_latency_ms(99):.1f} ms"
            )
            tenants = ", ".join(
                f"{tenant}={count}"
                for tenant, count in sorted(self.tenant_queries.items())
            )
            if tenants:
                lines.append(f"  per-tenant queries:    {tenants}")
        if self.ingest_appends or self.ingest_sheds:
            lines.append(
                f"  serving ingest queue:  {self.ingest_appends} appends, "
                f"{self.ingest_sheds} shed (queue full), "
                f"high-water depth {self.ingest_queue_depth_max}"
            )
        if self._any_storage_faults():
            lines.append(
                f"  storage faults:        {self.faults_crashes_injected} crashes / "
                f"{self.faults_restarts_injected} restarts / "
                f"{self.faults_corruptions_injected} corruptions / "
                f"{self.faults_write_failures_injected} write faults injected"
            )
            lines.append(
                f"  storage recovery:      {self.dfs_write_retries} write retries "
                f"({self.dfs_write_failures} exhausted, "
                f"{self.dfs_writes_rolled_back} writes rolled back), "
                f"{self.dfs_read_failovers} read failovers, "
                f"{self.dfs_corrupt_replicas_dropped} corrupt replicas dropped"
                + (
                    f", retry budget {self.dfs_retry_budget_spent} spent"
                    f" ({self.dfs_retry_budget_exhausted} refusals)"
                    if self.dfs_retry_budget_spent or self.dfs_retry_budget_exhausted
                    else ""
                )
            )
            lines.append(
                f"  replication repair:    {self.heal_passes} heal passes, "
                f"{self.dfs_re_replicated_copies} replicas re-created, "
                f"{self.dfs_excess_replicas_trimmed} excess trimmed, "
                f"{self.under_replicated_blocks} blocks under-replicated now"
            )
        return "\n".join(lines)

    def _any_storage_faults(self) -> bool:
        """True when any fault was injected or absorbed this run."""
        return any((
            self.faults_crashes_injected,
            self.faults_restarts_injected,
            self.faults_corruptions_injected,
            self.faults_write_failures_injected,
            self.dfs_write_retries,
            self.dfs_writes_rolled_back,
            self.dfs_checksum_failures,
            self.dfs_re_replicated_copies,
            self.heal_passes,
        ))
