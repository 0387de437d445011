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
from itertools import compress

from repro.core.snapshot import EPOCHS_PER_DAY
from repro.errors import LeafQuarantinedError, QueryDeadlineError, QueryError
from repro.index.highlights import CELL_COLUMN, Highlight, NumericStats
from repro.index.temporal import TemporalIndex
from repro.query.leafscan import ScanContext, ScanStats, scan_leaves
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
        cell_locations: dict[str, Point],
        scan_context: ScanContext,
    ) -> None:
        """
        Args:
            index: the temporal index.
            cell_locations: cell id -> centroid, for the spatial filter.
            scan_context: the warehouse as :func:`~repro.query.leafscan.
                scan_leaves` sees it — snapshot scans fan leaf decodes
                out through its executor and prune days and leaves whose
                summary or zone maps disprove the spatial filter.
        """
        self._index = index
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
        partial_ok: bool,
        deadline: _Deadline,
    ) -> None:
        """Exact path: scan the day's in-window leaves and fold the
        projected columns of each, in epoch order."""
        coverage = result.coverage
        cell_col = CELL_COLUMN.get(query.table)
        # The leaf scan uses the filter to skip what cannot match: a day
        # whose summary excludes the box's cells, and a typed-channel
        # leaf whose cell-id zone map holds the complete distinct set
        # and misses them.
        cell_filter = (
            (cell_col, cells)
            if cells is not None and cell_col is not None
            else None
        )
        served_before = len(coverage.epochs_served)
        scanned = scan_leaves(
            self._scan,
            day.live_leaves(),
            query.table,
            query.first_epoch,
            query.last_epoch,
            (*query.attributes, cell_col) if cell_filter else query.attributes,
            result.scan_stats,
            coverage,
            partial_ok,
            cell_filter=cell_filter,
            deadline=deadline,
            skip_reason=_skip_reason,
        )
        result.snapshots_read += len(coverage.epochs_served) - served_before
        if not result.columns and any(
            query.first_epoch <= leaf.epoch <= query.last_epoch
            and leaf.epoch not in coverage.epochs_skipped
            and leaf.table_paths.get(query.table)
            for leaf in day.live_leaves()
        ):
            # Columns come from the *query*, not from whichever leaf
            # happened to be scanned first (later leaves may expose a
            # different schema, e.g. after a fungus rewrite, and every
            # record must keep the same width) — and a pruned leaf
            # counts, so pruning never changes them.
            result.columns = ["epoch", *query.attributes]
        for epoch, __, columns, n_rows in scanned:
            self._fold_leaf(result, query, cell_filter, epoch, columns, n_rows)

    @staticmethod
    def _fold_leaf(
        result: ExplorationResult,
        query: ExplorationQuery,
        cell_filter,
        epoch: int,
        columns: dict[str, list[str]],
        n_rows: int,
    ) -> None:
        """Merge one scanned leaf into the result, column-wise: filter
        by cell, emit one record per row, aggregate each attribute.  An
        attribute the leaf lacks pads its records with ``""``."""
        attrs = [columns.get(a) for a in query.attributes]
        cell_ids = columns.get(cell_filter[0]) if cell_filter else None
        if cell_ids is not None:
            cells = cell_filter[1]
            keep = [c in cells for c in cell_ids]
            attrs = [
                None if column is None else list(compress(column, keep))
                for column in attrs
            ]
            n_rows = sum(keep)
        blanks = [""] * n_rows
        tag = str(epoch)
        result.records.extend(
            [tag, *values]
            for values in zip(*(blanks if c is None else c for c in attrs))
        )
        for name, column in zip(query.attributes, attrs):
            numeric = [int(v) for v in column or () if v and _is_int(v)]
            if not numeric:
                continue
            batch = NumericStats(
                len(numeric), sum(numeric), min(numeric), max(numeric)
            )
            mine = result.aggregates.get(name)
            if mine is None:
                result.aggregates[name] = batch
            else:
                mine.merge(batch)

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


def _skip_reason(exc: Exception) -> str:
    """Why explore skipped a leaf, as its coverage itemises it."""
    if isinstance(exc, LeafQuarantinedError):
        return "quarantined"
    return f"unreadable: {exc}"


def _is_int(value: str) -> bool:
    body = value[1:] if value[0] == "-" else value
    return body.isdigit()
