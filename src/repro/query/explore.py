"""Data exploration queries Q(a, b, w) (paper §VI-A).

A query selects attributes ``a``, a spatial bounding box ``b`` and a
temporal window ``w``.  Evaluation walks the temporal index and, for
each day in the window, uses the finest resolution still available:

- live snapshot leaves -> decompress and return exact records;
- decayed leaves but a day summary -> day-level aggregates;
- decayed day summary -> month summary; then year; then root.

This is decay-aware exploration: old windows still answer, at
progressively coarser granularity, without the raw data.

Degraded mode: ``evaluate(..., partial_ok=True)`` keeps answering when
parts of the window are unreadable (quarantined leaves after a crash,
lost blocks) or when a per-query deadline expires mid-scan — skipped
epochs are itemised, with reasons, in the result's
:class:`CoverageReport`.  Strict mode (the default) raises instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.snapshot import EPOCHS_PER_DAY
from repro.errors import (
    LeafQuarantinedError,
    QueryDeadlineError,
    QueryError,
    StorageError,
)
from repro.index.highlights import CELL_COLUMN, Highlight, NumericStats
from repro.index.temporal import TemporalIndex
from repro.query.leafscan import (
    ScanContext,
    ScanStats,
    decode_leaf_task,
    resident_table,
)
from repro.spatial.geometry import BoundingBox, Point


@dataclass(frozen=True)
class ExplorationQuery:
    """Q(a, b, w): attributes, bounding box, temporal window (epochs)."""

    table: str
    attributes: tuple[str, ...]
    box: BoundingBox | None  # None = whole service area
    first_epoch: int
    last_epoch: int

    def __post_init__(self) -> None:
        if self.first_epoch > self.last_epoch:
            raise QueryError(
                f"window [{self.first_epoch}, {self.last_epoch}] is inverted"
            )
        if not self.attributes:
            raise QueryError("query selects no attributes")


@dataclass
class CoverageReport:
    """What a query actually touched — the degraded-mode contract.

    A strict, fully-served query reports every in-window live epoch in
    ``epochs_served`` and nothing in ``epochs_skipped``; a ``partial_ok``
    answer itemises exactly which epochs were left out and why
    (``"quarantined"``, ``"unreadable: ..."``, ``"deadline"``).
    """

    #: Epochs whose snapshot leaves were decompressed and scanned.
    epochs_served: list[int] = field(default_factory=list)
    #: Days answered from summaries (day key -> resolution used); the
    #: normal decay fallback, not a degradation.
    summary_days: dict[str, str] = field(default_factory=dict)
    #: Epochs that should have been scanned but were not: epoch -> reason.
    epochs_skipped: dict[int, str] = field(default_factory=dict)
    #: Epochs proven irrelevant by their day summary and skipped without
    #: decompression.  Pruning never changes the answer, so pruned
    #: epochs do not make a query incomplete.
    epochs_pruned: list[int] = field(default_factory=list)
    #: True when the per-query deadline expired before the scan finished.
    deadline_hit: bool = False
    #: Shards whose slice of the window could not be served at all
    #: (shard key -> reason, e.g. ``"dead"``, ``"breaker_open"``,
    #: ``"timeout"``).  Populated only by the shard coordinator.
    shards_skipped: dict[str, str] = field(default_factory=dict)
    #: Region groups the router proved irrelevant to the query's
    #: spatial footprint and never contacted.  Routing is sound (a
    #: routed-away group holds no matching rows), so — like pruning —
    #: it never makes a query incomplete.  Populated only by the shard
    #: coordinator.
    groups_routed: list[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when nothing in the window was skipped."""
        return (
            not self.epochs_skipped
            and not self.deadline_hit
            and not self.shards_skipped
        )

    def merge(self, other: "CoverageReport") -> "CoverageReport":
        """Fold ``other`` into this report, accumulating skip reasons.

        This is how the shard coordinator combines per-shard coverage
        and how multi-source degradation (deadline + pruned +
        shard-skipped) stays visible: a reason never overwrites an
        earlier one for the same key — distinct reasons join with
        ``" + "``.  An epoch skipped by any source is skipped in the
        merge (even if another source served its slice of that epoch);
        a pruned epoch that some source actually served counts as
        served.
        """
        for epoch, reason in other.epochs_skipped.items():
            _accumulate_reason(self.epochs_skipped, epoch, reason)
        for day, resolution in other.summary_days.items():
            _accumulate_reason(self.summary_days, day, resolution)
        for shard, reason in other.shards_skipped.items():
            _accumulate_reason(self.shards_skipped, shard, reason)
        served = set(self.epochs_served) | set(other.epochs_served)
        pruned = set(self.epochs_pruned) | set(other.epochs_pruned)
        skipped = set(self.epochs_skipped)
        self.epochs_served = sorted(served - skipped)
        self.epochs_pruned = sorted(pruned - served - skipped)
        self.deadline_hit = self.deadline_hit or other.deadline_hit
        self.groups_routed = sorted(
            set(self.groups_routed) | set(other.groups_routed)
        )
        return self

    def describe(self) -> str:
        """One-line human-readable coverage statement."""
        if self.complete:
            routed = (
                f", {len(self.groups_routed)} groups routed away"
                if self.groups_routed
                else ""
            )
            return (
                f"complete ({len(self.epochs_served)} epochs served{routed})"
            )
        reasons: dict[str, int] = {}
        for reason in self.epochs_skipped.values():
            key = reason.split(":", 1)[0]
            reasons[key] = reasons.get(key, 0) + 1
        parts = [f"{count} {reason}" for reason, count in sorted(reasons.items())]
        if self.deadline_hit and "deadline" not in reasons:
            parts.append("deadline expired")
        if self.shards_skipped:
            shard_reasons = sorted(set(self.shards_skipped.values()))
            parts.append(
                f"{len(self.shards_skipped)} shards "
                f"({', '.join(shard_reasons)})"
            )
        return (
            f"partial ({len(self.epochs_served)} epochs served, "
            f"skipped: {', '.join(parts) if parts else 'none'})"
        )


def _accumulate_reason(into: dict, key, reason: str) -> None:
    """Add ``reason`` for ``key`` without overwriting a different one."""
    mine = into.get(key)
    if mine is None:
        into[key] = reason
    elif reason not in mine.split(" + "):
        into[key] = f"{mine} + {reason}"


class _Deadline:
    """Monotonic per-query time budget (None = unlimited)."""

    def __init__(self, seconds: float | None) -> None:
        self._expires = None if seconds is None else time.monotonic() + seconds

    def expired(self) -> bool:
        return self._expires is not None and time.monotonic() >= self._expires


@dataclass
class ExplorationResult:
    """Answer to an exploration query."""

    query: ExplorationQuery
    columns: list[str] = field(default_factory=list)
    records: list[list[str]] = field(default_factory=list)
    aggregates: dict[str, NumericStats] = field(default_factory=dict)
    highlights: list[Highlight] = field(default_factory=list)
    #: day key -> resolution used ("snapshots" / "day" / "month" / "year" / "root").
    resolution_by_day: dict[str, str] = field(default_factory=dict)
    snapshots_read: int = 0
    #: Exactly what was served vs skipped (degraded-query contract).
    coverage: CoverageReport = field(default_factory=CoverageReport)
    #: Read-path instrumentation (leaves scanned/pruned, decode timing).
    scan_stats: ScanStats = field(default_factory=ScanStats)

    @property
    def used_decayed_data(self) -> bool:
        """True when any part of the window fell back to summaries."""
        return any(r != "snapshots" for r in self.resolution_by_day.values())

    def aggregate(self, attribute: str) -> NumericStats:
        """Combined stats for one attribute (empty stats if untracked)."""
        return self.aggregates.get(attribute, NumericStats())


class ExplorationEngine:
    """Evaluates exploration queries against a SPATE instance's state."""

    def __init__(
        self,
        index: TemporalIndex,
        read_leaf_table,
        cell_locations: dict[str, Point],
        scan_context: ScanContext | None = None,
    ) -> None:
        """
        Args:
            index: the temporal index.
            read_leaf_table: callable ``(SnapshotLeaf, table_name) ->
                Table | None`` that loads and decompresses one table of
                one leaf from storage.
            cell_locations: cell id -> centroid, for the spatial filter.
            scan_context: when provided, snapshot scans fan leaf decodes
                out through its executor and prune whole days whose
                summary disproves the spatial filter; None keeps the
                serial read-one-leaf-at-a-time reference path.
        """
        self._index = index
        self._read_leaf_table = read_leaf_table
        self._cell_locations = cell_locations
        self._scan = scan_context

    def evaluate(
        self,
        query: ExplorationQuery,
        partial_ok: bool = False,
        deadline_s: float | None = None,
    ) -> ExplorationResult:
        """Run Q(a, b, w) at the finest available resolution per day.

        Args:
            partial_ok: degrade instead of failing — skip quarantined or
                unreadable leaves (and stop at the deadline), recording
                every skipped epoch and its reason in the result's
                :class:`CoverageReport`.
            deadline_s: per-query wall-clock budget in seconds
                (None = unlimited).

        Raises:
            LeafQuarantinedError: in strict mode, when the window needs
                a leaf that recovery quarantined.
            StorageError: in strict mode, when a leaf read fails.
            QueryDeadlineError: in strict mode, when ``deadline_s``
                expires before the scan completes.
        """
        result = ExplorationResult(query=query)
        cells = self._cells_in_box(query.box)
        deadline = _Deadline(deadline_s)
        consumed_months: set[str] = set()
        consumed_years: set[str] = set()
        used_root = False

        day_keys = self._day_keys(query.first_epoch, query.last_epoch)
        for position, day_key in enumerate(day_keys):
            if deadline.expired():
                if not partial_ok:
                    raise QueryDeadlineError(
                        f"query exceeded its {deadline_s * 1000:.0f} ms deadline "
                        f"at day {day_key}"
                    )
                self._skip_rest(day_keys[position:], query, result, "deadline")
                result.coverage.deadline_hit = True
                break
            day = self._index.find_day(day_key)
            decayed_in_window = day is not None and any(
                leaf.decayed
                and query.first_epoch <= leaf.epoch <= query.last_epoch
                for leaf in day.leaves
            )
            if (
                day is not None
                and day.live_leaves()
                and not (decayed_in_window and day.summary is not None)
            ):
                # Fully live portion: exact records from the snapshots.
                self._scan_day(day, query, cells, result, partial_ok, deadline)
                result.resolution_by_day[day_key] = "snapshots"
                continue
            if day is not None and day.summary is not None:
                # Some (or all) requested leaves decayed: answer the whole
                # day from its summary — coarser but complete, matching
                # the paper's "retrieve a larger period" behaviour.
                self._fold_summary(day.summary, query, cells, result)
                result.resolution_by_day[day_key] = "day"
                result.coverage.summary_days[day_key] = "day"
                continue
            if day is not None and day.live_leaves():
                # Partially decayed day with no summary yet: best effort
                # from whatever snapshots survive.
                self._scan_day(day, query, cells, result, partial_ok, deadline)
                result.resolution_by_day[day_key] = "snapshots"
                continue
            month_key = day_key[:7]
            month = self._index.find_month(month_key)
            if month is not None and month.summary is not None:
                if month_key not in consumed_months:
                    consumed_months.add(month_key)
                    self._fold_summary(month.summary, query, cells, result)
                result.resolution_by_day[day_key] = "month"
                result.coverage.summary_days[day_key] = "month"
                continue
            year_key = day_key[:4]
            year = self._index.find_year(year_key)
            if year is not None and year.summary is not None:
                if year_key not in consumed_years:
                    consumed_years.add(year_key)
                    self._fold_summary(year.summary, query, cells, result)
                result.resolution_by_day[day_key] = "year"
                result.coverage.summary_days[day_key] = "year"
                continue
            if not used_root:
                used_root = True
                self._fold_summary(self._index.root_summary, query, cells, result)
            result.resolution_by_day[day_key] = "root"
            result.coverage.summary_days[day_key] = "root"

        return result

    def evaluate_coarse(self, query: ExplorationQuery) -> ExplorationResult:
        """The paper's prefetching variant: answer from the single
        smallest node covering the whole window (may span more time than
        requested — "implicit prefetching")."""
        result = ExplorationResult(query=query)
        cells = self._cells_in_box(query.box)
        summary = self._index.covering_node_summary(query.first_epoch, query.last_epoch)
        if summary is not None:
            self._fold_summary(summary, query, cells, result)
            result.resolution_by_day["*"] = summary.level
        return result

    def highlights_in_window(self, first_epoch: int, last_epoch: int) -> list[Highlight]:
        """All detected highlights from nodes overlapping the window.

        Walks only the window's day keys via the index's O(1) day
        lookup, so cost scales with the window rather than the history.
        """
        out: list[Highlight] = []
        for day_key in self._day_keys(first_epoch, last_epoch):
            day = self._index.find_day(day_key)
            if day is not None and day.summary is not None:
                out.extend(day.summary.highlights)
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _cells_in_box(self, box: BoundingBox | None) -> set[str] | None:
        if box is None:
            return None
        return {
            cell_id
            for cell_id, point in self._cell_locations.items()
            if box.contains(point)
        }

    def _day_keys(self, first_epoch: int, last_epoch: int) -> list[str]:
        from repro.core.snapshot import epoch_to_timestamp

        keys: list[str] = []
        first_day = first_epoch // EPOCHS_PER_DAY
        last_day = last_epoch // EPOCHS_PER_DAY
        for day_index in range(first_day, last_day + 1):
            keys.append(
                epoch_to_timestamp(day_index * EPOCHS_PER_DAY).strftime("%Y-%m-%d")
            )
        return keys

    def _skip_rest(
        self,
        day_keys: list[str],
        query: ExplorationQuery,
        result: ExplorationResult,
        reason: str,
    ) -> None:
        """Record every not-yet-scanned in-window leaf epoch as skipped."""
        for day_key in day_keys:
            day = self._index.find_day(day_key)
            if day is None:
                continue
            for leaf in day.live_leaves():
                if (
                    query.first_epoch <= leaf.epoch <= query.last_epoch
                    and leaf.epoch not in result.coverage.epochs_skipped
                ):
                    result.coverage.epochs_skipped[leaf.epoch] = reason

    def _scan_day(
        self,
        day,
        query: ExplorationQuery,
        cells: set[str] | None,
        result: ExplorationResult,
        partial_ok: bool = False,
        deadline: _Deadline | None = None,
    ) -> None:
        """Exact path: decompress the day's in-window leaves and filter."""
        if self._scan is not None:
            self._scan_day_parallel(
                day, query, cells, result, partial_ok, deadline
            )
            return
        coverage = result.coverage
        for leaf in day.live_leaves():
            if leaf.epoch < query.first_epoch or leaf.epoch > query.last_epoch:
                continue
            if deadline is not None and deadline.expired():
                if not partial_ok:
                    raise QueryDeadlineError(
                        f"query deadline expired at epoch {leaf.epoch}"
                    )
                coverage.epochs_skipped[leaf.epoch] = "deadline"
                coverage.deadline_hit = True
                continue
            if getattr(leaf, "quarantined", False) and partial_ok:
                coverage.epochs_skipped[leaf.epoch] = "quarantined"
                continue
            try:
                table = self._read_leaf_table(leaf, query.table)
            except StorageError as exc:
                if not partial_ok:
                    raise
                coverage.epochs_skipped[leaf.epoch] = f"unreadable: {exc}"
                continue
            result.snapshots_read += 1
            coverage.epochs_served.append(leaf.epoch)
            if table is None:
                continue
            result.scan_stats.leaves_scanned += 1
            self._fold_leaf_table(result, query, cells, leaf.epoch, table)

    def _fold_leaf_table(
        self,
        result: ExplorationResult,
        query: ExplorationQuery,
        cells: set[str] | None,
        epoch: int,
        table,
    ) -> None:
        """Merge one decoded leaf table into the result (both scan paths
        share this fold, which is what keeps them byte-identical)."""
        if not result.columns:
            # Columns come from the *query*, not from whichever leaf
            # happened to be scanned first: later leaves may expose a
            # different table schema (e.g. after a fungus rewrite),
            # and every record must keep the same width.
            result.columns = ["epoch", *query.attributes]
        attr_idx = [
            (a, table.column_index(a) if a in table.columns else None)
            for a in query.attributes
        ]
        cell_col = CELL_COLUMN.get(query.table)
        cell_idx = (
            table.column_index(cell_col)
            if cells is not None and cell_col in table.columns
            else None
        )
        for row in table.rows:
            if cell_idx is not None and row[cell_idx] not in cells:
                continue
            record = [str(epoch)] + [
                row[idx] if idx is not None else "" for __, idx in attr_idx
            ]
            result.records.append(record)
            for name, idx in attr_idx:
                if idx is None:
                    continue
                value = row[idx]
                if value and _is_int(value):
                    stats = result.aggregates.get(name)
                    if stats is None:
                        stats = result.aggregates[name] = NumericStats()
                    stats.add(int(value))

    def _scan_day_parallel(
        self,
        day,
        query: ExplorationQuery,
        cells: set[str] | None,
        result: ExplorationResult,
        partial_ok: bool,
        deadline: _Deadline | None,
    ) -> None:
        """Scan a day's leaves with pruning and a parallel decode stage.

        Three phases, all merged in epoch order so the answer is
        byte-identical to the serial scan:

        1. day-level pruning — if the day summary proves no row can
           match the spatial filter, every leaf is skipped unread;
        2. a main-thread gatekeeping pass that applies the exact serial
           per-leaf policy (deadline, quarantine, then
           :meth:`ScanContext.plan_leaf`: cache probe, zone gate, DFS
           read) and collects decode tasks;
        3. a chunked executor fan-out over the decode tasks, re-checking
           the deadline between chunks, followed by the epoch-order fold.
        """
        ctx = self._scan
        coverage = result.coverage
        stats = result.scan_stats
        leaves = [
            leaf
            for leaf in day.live_leaves()
            if query.first_epoch <= leaf.epoch <= query.last_epoch
        ]
        if not leaves:
            return

        if (
            ctx.pruning
            and cells is not None
            and day.summary is not None
            and day.summary.excludes_cells(query.table, cells)
        ):
            # The summary covers every leaf of the day (decay and fungus
            # only ever shrink leaves under it), so disproof at day level
            # is disproof for each in-window leaf.
            for leaf in leaves:
                if not result.columns and leaf.table_paths.get(query.table):
                    result.columns = ["epoch", *query.attributes]
                coverage.epochs_pruned.append(leaf.epoch)
                stats.leaves_pruned += 1
            return

        cell_col = CELL_COLUMN.get(query.table)
        wanted = (
            (*query.attributes, cell_col)
            if cells is not None and cell_col is not None
            else query.attributes
        )
        proj = ctx.projection(wanted)
        # Typed-channel leaves: when the cell-id channel's zone map holds
        # the complete distinct set and it misses the query box's cells,
        # no row of the leaf can match (the row filter would drop them
        # all), so the gate skips it.
        cell_filter = (
            (cell_col, cells)
            if cells is not None and cell_col is not None
            else None
        )

        # Phase 2: gatekeeping on the main thread (DFS and the leaf
        # cache are not thread-safe).  Each entry is folded later in
        # this same order.
        plan: list[tuple[object, str, object]] = []
        tasks: list[tuple] = []
        for leaf in leaves:
            if deadline is not None and deadline.expired():
                if not partial_ok:
                    raise QueryDeadlineError(
                        f"query deadline expired at epoch {leaf.epoch}"
                    )
                coverage.epochs_skipped[leaf.epoch] = "deadline"
                coverage.deadline_hit = True
                plan.append((leaf, "skipped", None))
                continue
            if getattr(leaf, "quarantined", False):
                if not partial_ok:
                    raise LeafQuarantinedError(
                        f"epoch {leaf.epoch} is quarantined: its blocks had "
                        "no live valid replica at recovery (heal + "
                        "verify_leaves to re-check, or query with partial_ok)"
                    )
                coverage.epochs_skipped[leaf.epoch] = "quarantined"
                plan.append((leaf, "skipped", None))
                continue
            path = leaf.table_paths.get(query.table)
            if path is None:
                plan.append((leaf, "absent", None))
                continue
            try:
                kind, payload = ctx.plan_leaf(
                    stats, leaf.epoch, query.table, path, proj, wanted,
                    cell_filter=cell_filter,
                )
            except StorageError as exc:
                if not partial_ok:
                    raise
                coverage.epochs_skipped[leaf.epoch] = f"unreadable: {exc}"
                plan.append((leaf, "skipped", None))
                continue
            if kind == "pruned":
                if not result.columns:
                    result.columns = ["epoch", *query.attributes]
                coverage.epochs_pruned.append(leaf.epoch)
                continue
            if kind == "task":
                tasks.append(payload)
                payload = len(tasks) - 1
            plan.append((leaf, kind, payload))

        # Phase 3: parallel decode.  run_chunked stops submitting once
        # the deadline expires, so tasks past the cutoff never run.
        decoded, run, completed = ctx.executor.run_chunked(
            decode_leaf_task,
            tasks,
            ctx.chunk_size,
            should_stop=deadline.expired if deadline is not None else None,
        )
        stats.on_run(run)

        for leaf, kind, payload in plan:
            if kind == "skipped":
                continue
            if kind == "task":
                if payload >= completed:
                    if not partial_ok:
                        raise QueryDeadlineError(
                            f"query deadline expired at epoch {leaf.epoch}"
                        )
                    coverage.epochs_skipped[leaf.epoch] = "deadline"
                    coverage.deadline_hit = True
                    continue
                table, nbytes, channel_stats = decoded[payload]
                stats.bytes_decompressed += nbytes
                if channel_stats is not None:
                    stats.channels_decoded += channel_stats.channels_decoded
                    stats.channel_bytes_skipped += channel_stats.bytes_skipped
                ctx.cache_decoded_table(
                    leaf.epoch, tasks[payload], table, nbytes
                )
            elif kind == "channels":
                table = resident_table(query.table, *payload)
            else:
                table = payload  # "table" (cache hit) or "absent" (None)
            result.snapshots_read += 1
            coverage.epochs_served.append(leaf.epoch)
            if table is None:
                continue
            stats.leaves_scanned += 1
            self._fold_leaf_table(result, query, cells, leaf.epoch, table)

    def _fold_summary(
        self,
        summary,
        query: ExplorationQuery,
        cells: set[str] | None,
        result: ExplorationResult,
    ) -> None:
        """Decayed path: answer from per-cell aggregates in a summary."""
        for attribute in query.attributes:
            if cells is not None:
                stats = summary.cell_stats(query.table, cells, attribute)
            else:
                table_attrs = summary.attributes.get(query.table, {})
                attr_summary = table_attrs.get(attribute)
                stats = (
                    attr_summary.numeric.copy()
                    if attr_summary and attr_summary.numeric
                    else NumericStats()
                )
            if stats.count:
                mine = result.aggregates.get(attribute)
                if mine is None:
                    result.aggregates[attribute] = stats
                else:
                    mine.merge(stats)
        result.highlights.extend(summary.highlights)


def _is_int(value: str) -> bool:
    body = value[1:] if value[0] == "-" else value
    return body.isdigit()
