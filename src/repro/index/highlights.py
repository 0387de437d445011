"""Highlights module: per-node summaries and highlight detection.

Highlights are "materialized views to long-standing queries" (paper
§V-B): per temporal node, SPATE keeps aggregate statistics of tracked
attributes plus the set of *highlights* — values whose occurrence
frequency falls below the level's threshold θ (rare events are the
interesting ones; frequent values are "no-highlights").

Summaries are hierarchical: a day summary is the merge of its
snapshots' summaries, a month the merge of its days, a year of its
months — so the cube's construction cost is amortized over ingestion.
Per-cell numeric statistics are retained so decayed periods can still
answer spatially-filtered aggregate queries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.config import HighlightsConfig
from repro.core.snapshot import Snapshot

#: Which column carries the serving cell id, per table.
CELL_COLUMN: dict[str, str] = {
    "CDR": "cell_id",
    "NMS": "cellid",
    "CELL": "cell_id",
    "MR": "cellid",
}


@dataclass
class NumericStats:
    """Streaming min/max/sum/count over an integer attribute."""

    count: int = 0
    total: int = 0
    minimum: int | None = None
    maximum: int | None = None

    def add(self, value: int) -> None:
        """Fold one value into the running statistics."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other: "NumericStats") -> None:
        """Fold another accumulator of the same shape into this one."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if self.minimum is None or (other.minimum is not None and other.minimum < self.minimum):
            self.minimum = other.minimum
        if self.maximum is None or (other.maximum is not None and other.maximum > self.maximum):
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        """Arithmetic mean of the accumulated values."""
        return self.total / self.count if self.count else 0.0

    def copy(self) -> "NumericStats":
        """Deep-enough copy: mutating the clone leaves this intact."""
        return NumericStats(self.count, self.total, self.minimum, self.maximum)

    def to_dict(self) -> dict:
        """JSON-safe form for the WAL / checkpoint."""
        return {"c": self.count, "t": self.total, "lo": self.minimum, "hi": self.maximum}

    @classmethod
    def from_dict(cls, data: dict) -> "NumericStats":
        """Invert :meth:`to_dict`."""
        return cls(count=data["c"], total=data["t"], minimum=data["lo"], maximum=data["hi"])


@dataclass
class CategoricalStats:
    """Value-frequency table over a categorical attribute."""

    counts: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        """Sum of all per-value counts."""
        return sum(self.counts.values())

    def add(self, value: str) -> None:
        """Fold one value into the running statistics."""
        self.counts[value] += 1

    def merge(self, other: "CategoricalStats") -> None:
        """Fold another accumulator of the same shape into this one."""
        self.counts.update(other.counts)

    def copy(self) -> "CategoricalStats":
        """Deep-enough copy: mutating the clone leaves this intact."""
        return CategoricalStats(counts=Counter(self.counts))


@dataclass
class AttributeSummary:
    """Either-typed summary of one attribute.

    Numeric attributes keep :class:`NumericStats` *and* a value-frequency
    table (capped) so highlight detection can find rare peaks; purely
    categorical attributes keep frequencies only.
    """

    numeric: NumericStats | None = None
    categorical: CategoricalStats = field(default_factory=CategoricalStats)
    #: Cap on distinct tracked values; beyond it the frequency table
    #: degrades to top-k (rare values are what highlights need anyway).
    max_distinct: int = 4096

    def add(self, value: str) -> None:
        """Fold one value into the running statistics."""
        if value and _is_int(value):
            if self.numeric is None:
                self.numeric = NumericStats()
            self.numeric.add(int(value))
        if len(self.categorical.counts) < self.max_distinct or value in self.categorical.counts:
            self.categorical.add(value)

    def merge(self, other: "AttributeSummary") -> None:
        """Fold another accumulator of the same shape into this one."""
        if other.numeric is not None:
            if self.numeric is None:
                self.numeric = NumericStats()
            self.numeric.merge(other.numeric)
        self.categorical.merge(other.categorical)
        if len(self.categorical.counts) > self.max_distinct:
            kept = self.categorical.counts.most_common(self.max_distinct)
            self.categorical.counts = Counter(dict(kept))

    def copy(self) -> "AttributeSummary":
        """Deep-enough copy: mutating the clone leaves this intact."""
        return AttributeSummary(
            numeric=self.numeric.copy() if self.numeric else None,
            categorical=self.categorical.copy(),
            max_distinct=self.max_distinct,
        )

    def to_dict(self) -> dict:
        """JSON-safe form for the WAL / checkpoint."""
        return {
            "num": self.numeric.to_dict() if self.numeric else None,
            "cat": dict(self.categorical.counts),
            "max": self.max_distinct,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttributeSummary":
        """Invert :meth:`to_dict`."""
        return cls(
            numeric=NumericStats.from_dict(data["num"]) if data["num"] else None,
            categorical=CategoricalStats(counts=Counter(data["cat"])),
            max_distinct=data["max"],
        )


@dataclass(frozen=True)
class Highlight:
    """One detected rare event.

    ``kind`` is "categorical" (described by its value/type) or "numeric"
    (described by its peaking point), per paper §V-B.
    """

    table: str
    attribute: str
    kind: str
    value: str
    frequency: int
    total: int
    level: str
    period: str

    @property
    def rate(self) -> float:
        """Occurrence frequency as a fraction of the total."""
        return self.frequency / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        """JSON-safe form for the WAL / checkpoint."""
        return {
            "table": self.table,
            "attribute": self.attribute,
            "kind": self.kind,
            "value": self.value,
            "frequency": self.frequency,
            "total": self.total,
            "level": self.level,
            "period": self.period,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Highlight":
        """Invert :meth:`to_dict`."""
        return cls(**data)


@dataclass
class HighlightSummary:
    """All summary state for one temporal node."""

    level: str  # "epoch" | "day" | "month" | "year" | "root"
    period: str  # e.g. "2016-01-18", "2016-01", "2016"
    record_counts: dict[str, int] = field(default_factory=dict)
    attributes: dict[str, dict[str, AttributeSummary]] = field(default_factory=dict)
    #: table -> cell_id -> attribute -> NumericStats (spatial drill-down).
    per_cell: dict[str, dict[str, dict[str, NumericStats]]] = field(default_factory=dict)
    #: table -> rows that carried a cell id.  Pruning may trust the
    #: per-cell key set as exhaustive only when this equals the table's
    #: record count (a table without a cell column has covered == 0).
    cell_covered_rows: dict[str, int] = field(default_factory=dict)
    highlights: list[Highlight] = field(default_factory=list)

    def merge(self, other: "HighlightSummary") -> None:
        """Fold ``other`` (a finer-resolution summary) into this node."""
        for table, count in other.record_counts.items():
            self.record_counts[table] = self.record_counts.get(table, 0) + count
        for table, count in other.cell_covered_rows.items():
            self.cell_covered_rows[table] = (
                self.cell_covered_rows.get(table, 0) + count
            )
        for table, attrs in other.attributes.items():
            mine = self.attributes.setdefault(table, {})
            for name, summary in attrs.items():
                if name in mine:
                    mine[name].merge(summary)
                else:
                    mine[name] = summary.copy()
        for table, cells in other.per_cell.items():
            mine_cells = self.per_cell.setdefault(table, {})
            for cell_id, attrs in cells.items():
                mine_attrs = mine_cells.setdefault(cell_id, {})
                for name, stats in attrs.items():
                    if name in mine_attrs:
                        mine_attrs[name].merge(stats)
                    else:
                        mine_attrs[name] = stats.copy()

    def detect_highlights(self, theta: float) -> list[Highlight]:
        """Find rare values: occurrence frequency below ``theta``.

        Stores and returns the refreshed highlight list for this node.
        """
        found: list[Highlight] = []
        for table, attrs in self.attributes.items():
            for name, summary in attrs.items():
                total = summary.categorical.total
                if total == 0:
                    continue
                for value, count in summary.categorical.counts.items():
                    if count / total < theta:
                        kind = "numeric" if _is_int(value) else "categorical"
                        found.append(
                            Highlight(
                                table=table,
                                attribute=name,
                                kind=kind,
                                value=value,
                                frequency=count,
                                total=total,
                                level=self.level,
                                period=self.period,
                            )
                        )
        self.highlights = found
        return found

    def to_dict(self) -> dict:
        """JSON-safe form for the WAL / checkpoint (round-trips exactly)."""
        return {
            "level": self.level,
            "period": self.period,
            "counts": dict(self.record_counts),
            "attrs": {
                table: {name: summary.to_dict() for name, summary in attrs.items()}
                for table, attrs in self.attributes.items()
            },
            "cells": {
                table: {
                    cell_id: {name: stats.to_dict() for name, stats in attrs.items()}
                    for cell_id, attrs in cells.items()
                }
                for table, cells in self.per_cell.items()
            },
            "cellrows": dict(self.cell_covered_rows),
            "highlights": [h.to_dict() for h in self.highlights],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HighlightSummary":
        """Invert :meth:`to_dict`."""
        return cls(
            level=data["level"],
            period=data["period"],
            record_counts=dict(data["counts"]),
            attributes={
                table: {
                    name: AttributeSummary.from_dict(summary)
                    for name, summary in attrs.items()
                }
                for table, attrs in data["attrs"].items()
            },
            per_cell={
                table: {
                    cell_id: {
                        name: NumericStats.from_dict(stats)
                        for name, stats in attrs.items()
                    }
                    for cell_id, attrs in cells.items()
                }
                for table, cells in data["cells"].items()
            },
            # Summaries logged before this field existed load with no
            # coverage counts, which simply disables cell pruning there.
            cell_covered_rows=dict(data.get("cellrows", {})),
            highlights=[Highlight.from_dict(h) for h in data["highlights"]],
        )

    def cell_stats(self, table: str, cell_ids: set[str], attribute: str) -> NumericStats:
        """Aggregate one numeric attribute over a set of cells."""
        combined = NumericStats()
        for cell_id in cell_ids:
            stats = self.per_cell.get(table, {}).get(cell_id, {}).get(attribute)
            if stats is not None:
                combined.merge(stats)
        return combined

    # ------------------------------------------------------------------
    # Conservative pruning (the query engine's partition-skip oracle)
    # ------------------------------------------------------------------
    #
    # Both predicates answer "can this node's data be skipped?" and must
    # only ever say yes when *no* stored row could match.  Decay and
    # fungus rewrites shrink leaves without touching summaries, so a
    # summary is always a superset of what remains on disk — stale
    # counts/bounds can only make these checks *less* willing to prune,
    # never wrongly skip a surviving row.

    def excludes_cells(self, table: str, cells: set[str]) -> bool:
        """True when no row of ``table`` can fall in ``cells``.

        Requires every summarized row to have carried a cell id
        (``cell_covered_rows == record_counts``): a table without a cell
        column is not spatially filtered by the scan, so its rows always
        match and must never be pruned.
        """
        rows = self.record_counts.get(table)
        if rows is None:
            return False  # table untracked here: no evidence either way
        if rows == 0:
            return True
        if self.cell_covered_rows.get(table, 0) != rows:
            return False
        return cells.isdisjoint(self.per_cell.get(table, {}))

    def disproves_predicate(self, table: str, column: str, op: str, value) -> bool:
        """True when min/max bounds prove ``column <op> value`` matches
        no row of ``table``.

        Bounds only describe rows whose value parsed as an integer, so
        they are trusted only when *every* row did
        (``numeric.count == record_counts``) — otherwise a non-numeric
        value could still satisfy the predicate under the SQL engine's
        string-comparison fallback.
        """
        rows = self.record_counts.get(table)
        if rows is None:
            return False
        if rows == 0:
            return True
        attr = self.attributes.get(table, {}).get(column)
        if attr is None or attr.numeric is None or attr.numeric.count != rows:
            return False
        low, high = attr.numeric.minimum, attr.numeric.maximum
        if op == "=":
            return value < low or value > high
        if op == "<":
            return low >= value
        if op == "<=":
            return low > value
        if op == ">":
            return high <= value
        if op == ">=":
            return high < value
        return False


def summarize_snapshot(
    snapshot: Snapshot,
    config: HighlightsConfig,
) -> HighlightSummary:
    """Build the epoch-level summary of one snapshot.

    Each tracked column is extracted once and summarized from its value
    counts.  Key order decides WAL bytes: cells and values are keyed as
    they arrive, attributes in tracked order — what folding the rows in
    one by one gives, unless a column mixes integer and other values (a
    cell's attributes were then keyed by first integer arrival).
    """
    summary = HighlightSummary(level="epoch", period=str(snapshot.epoch))
    for table_name, table in snapshot.tables.items():
        tracked = config.tracked_attributes.get(table_name)
        if not tracked:
            continue
        present = [a for a in tracked if a in table.columns]
        cell_col = CELL_COLUMN.get(table_name)
        cell_ids = (
            table.column_values(cell_col)
            if cell_col and cell_col in table.columns
            else None
        )
        summary.record_counts[table_name] = len(table)
        attr_summaries = summary.attributes.setdefault(table_name, {})
        cells = summary.per_cell.setdefault(table_name, {})
        if cell_ids is not None:
            summary.cell_covered_rows[table_name] = len(table)
            for cell_id in dict.fromkeys(cell_ids):  # first-seen order
                cells.setdefault(cell_id, {})
        for name in present:
            values = table.column_values(name)
            counts = Counter(values)
            ints = {v: int(v) for v in counts if _is_int(v)}
            attr = attr_summaries.setdefault(name, AttributeSummary())
            if len(counts) > attr.max_distinct:
                for value in values:  # the cap makes arrival order matter
                    attr.add(value)
            else:
                attr.categorical.counts.update(counts)
                if ints and attr.numeric is None:
                    attr.numeric = NumericStats()
                for value, number in ints.items():
                    attr.numeric.merge(_repeated(number, counts[value]))
            if cell_ids is None or not ints:
                continue
            for (cell_id, value), times in Counter(zip(cell_ids, values)).items():
                if value in ints:
                    stats = _repeated(ints[value], times)
                    if name in cells[cell_id]:
                        cells[cell_id][name].merge(stats)
                    else:
                        cells[cell_id][name] = stats
    return summary


def _repeated(value: int, times: int) -> NumericStats:
    """The statistics of one value folded in ``times`` times."""
    return NumericStats(times, value * times, value, value)


def _is_int(value: str) -> bool:
    if not value:
        return False
    body = value[1:] if value[0] == "-" else value
    return body.isdigit()
