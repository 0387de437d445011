"""Cost model for SQL planning.

Estimates feed on statistics the warehouse already maintains for
pruning: day/leaf :class:`~repro.index.highlights.HighlightSummary`
objects carry per-table row counts, per-attribute numeric bounds
(``NumericStats``) and capped distinct sets (``CategoricalStats``).
:func:`stats_from_summary` folds them into a :class:`TableStats`;
materialized tables capture their row count at registration.

The formulas are the textbook ones, chosen for determinism rather than
sophistication:

- equality selectivity is ``count(value) / rows`` when the distinct set
  is complete (under the summary cap), else ``1 / distinct``;
- range selectivity is the covered fraction of the ``[min, max]`` span,
  trusted only when every row of the column had a numeric view (so a
  text column can never masquerade as a narrow range);
- anything else falls back to :data:`DEFAULT_SELECTIVITY`;
- an equi join's cardinality is ``|L| * |R| / max(d_L, d_R, 1)``.

Join ordering (:func:`choose_join_order`) is greedy smallest-next over
the connectivity graph: start from the smallest input, repeatedly pick
the connected table minimizing the estimated intermediate result, with
syntactic position as the deterministic tie-break.  The executor sorts
join output back into syntactic (FROM-clause) order afterwards, so
ordering is purely a cost decision — it can never change answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.query.sql.values import as_number, predicate_passes

#: Selectivity assumed for predicates the statistics cannot score.
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Pushing a scan predicate estimated to keep at least this fraction of
#: rows is pure overhead (summary checks per leaf, zone-map probes per
#: channel) with no realistic chance of pruning — the planner's
#: pruned-scan vs full-scan decision.
PUSHDOWN_USELESS_AT = 0.98


@dataclass
class ColumnStats:
    """Statistics for one column of one table."""

    #: Distinct values seen (0 = unknown).
    distinct: int = 0
    #: value -> occurrence count, only when the distinct set is complete
    #: (i.e. it never hit the summary's top-k cap); None otherwise.
    values: Optional[dict[str, int]] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    #: Rows whose cell had a numeric view; bounds are trusted only when
    #: this equals :attr:`rows` (every row participated).
    numeric_count: int = 0
    #: Rows of the owning table when these stats were gathered.
    rows: int = 0

    def merge(self, other: "ColumnStats") -> None:
        """Fold another shard's view of the same column in."""
        # Distinct sets across shards may overlap: the max is a lower
        # bound, which keeps join estimates conservative.
        self.distinct = max(self.distinct, other.distinct)
        self.values = None  # per-shard counts can't be combined soundly
        if other.minimum is not None:
            self.minimum = (
                other.minimum
                if self.minimum is None
                else min(self.minimum, other.minimum)
            )
        if other.maximum is not None:
            self.maximum = (
                other.maximum
                if self.maximum is None
                else max(self.maximum, other.maximum)
            )
        self.numeric_count += other.numeric_count
        self.rows += other.rows


@dataclass
class TableStats:
    """Row count plus per-column statistics for one table."""

    rows: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def merge(self, other: "TableStats") -> None:
        """Fold another shard's slice of the same table in (row counts
        add; column stats merge conservatively)."""
        self.rows += other.rows
        for name, stats in other.columns.items():
            mine = self.columns.get(name)
            if mine is None:
                self.columns[name] = ColumnStats(
                    distinct=stats.distinct,
                    values=None,
                    minimum=stats.minimum,
                    maximum=stats.maximum,
                    numeric_count=stats.numeric_count,
                    rows=stats.rows,
                )
            else:
                mine.merge(stats)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


def stats_from_summary(summary, table: str) -> Optional[TableStats]:
    """Build :class:`TableStats` from a merged highlight summary, or
    None when the summary never saw the table."""
    if table not in summary.record_counts:
        return None
    rows = summary.record_counts[table]
    out = TableStats(rows=rows)
    for name, attr in summary.attributes.get(table, {}).items():
        counts = attr.categorical.counts
        capped = len(counts) >= attr.max_distinct
        numeric = attr.numeric  # None when no cell ever parsed as a number
        out.columns[name] = ColumnStats(
            distinct=len(counts),
            values=None if capped else dict(counts),
            minimum=None if numeric is None else numeric.minimum,
            maximum=None if numeric is None else numeric.maximum,
            numeric_count=0 if numeric is None else numeric.count,
            rows=rows,
        )
    return out


def predicate_selectivity(
    stats: Optional[TableStats], column: str, op: str, value: Any
) -> float:
    """Estimated fraction of rows satisfying ``column op value``."""
    if stats is None or stats.rows <= 0:
        return DEFAULT_SELECTIVITY
    cs = stats.columns.get(column)
    if cs is None or cs.rows <= 0:
        return DEFAULT_SELECTIVITY
    if op == "=":
        if cs.values is not None:
            hits = sum(
                count
                for cell, count in cs.values.items()
                if predicate_passes(cell, "=", value)
            )
            return hits / cs.rows
        if cs.distinct > 0:
            return 1.0 / cs.distinct
        return DEFAULT_SELECTIVITY
    if op == "!=":
        return 1.0 - predicate_selectivity(stats, column, "=", value)
    if op in ("<", "<=", ">", ">="):
        number = as_number(value)
        bounds_trusted = (
            number is not None
            and cs.minimum is not None
            and cs.maximum is not None
            and cs.numeric_count >= cs.rows
        )
        if not bounds_trusted:
            return DEFAULT_SELECTIVITY
        span = cs.maximum - cs.minimum
        if span <= 0:
            # Single-valued column: the predicate either keeps all rows
            # or none of them.
            return 1.0 if predicate_passes(cs.minimum, op, number) else 0.0
        if op in ("<", "<="):
            fraction = (number - cs.minimum) / span
        else:
            fraction = (cs.maximum - number) / span
        return min(1.0, max(0.0, fraction))
    return DEFAULT_SELECTIVITY


def scan_selectivity(stats: Optional[TableStats], predicates) -> float:
    """Combined (independence-assumed) selectivity of simple
    ``column op value`` predicates — anything exposing ``.column``,
    ``.op`` and ``.value`` (e.g. the planner's ``ScanPredicate``)."""
    fraction = 1.0
    for predicate in predicates:
        fraction *= predicate_selectivity(
            stats, predicate.column, predicate.op, predicate.value
        )
    return fraction


def estimate_join_rows(
    left_rows: float,
    right_rows: float,
    left_distinct: int = 0,
    right_distinct: int = 0,
) -> float:
    """Equi-join cardinality estimate; with no distinct information the
    denominator degrades to 1 (cross-product bound)."""
    denominator = max(left_distinct, right_distinct, 1)
    return left_rows * right_rows / denominator


@dataclass(frozen=True)
class JoinEdge:
    """One equi-join predicate between two tables (by position)."""

    left: int
    right: int
    left_distinct: int = 0
    right_distinct: int = 0

    def touches(self, table: int) -> bool:
        return table in (self.left, self.right)


@dataclass
class JoinPlan:
    """A chosen join order with its per-step estimates."""

    order: list[int]
    #: Estimated cardinality *after* each join step; ``step_rows[0]`` is
    #: the starting table's size, ``step_rows[i]`` the result after the
    #: i-th join.
    step_rows: list[float]
    #: ``"left"`` / ``"right"`` hash build side per join step (index 0
    #: corresponds to joining ``order[1]``): build the smaller input.
    build_sides: list[str]


def choose_join_order(
    sizes: list[float], edges: list[JoinEdge]
) -> JoinPlan:
    """Greedy smallest-intermediate-first ordering of an inner-join
    group.  Connected candidates (sharing an equi edge with the joined
    set) are preferred; disconnected ones cross-product last.  All ties
    break toward the lower syntactic position, keeping plans stable
    across runs."""
    n = len(sizes)
    if n == 0:
        return JoinPlan(order=[], step_rows=[], build_sides=[])
    start = min(range(n), key=lambda t: (sizes[t], t))
    order = [start]
    joined = {start}
    current = float(sizes[start])
    step_rows = [current]
    build_sides: list[str] = []
    while len(order) < n:
        best: Optional[tuple[float, int, int]] = None
        for candidate in range(n):
            if candidate in joined:
                continue
            connecting = [
                e
                for e in edges
                if e.touches(candidate)
                and (e.left in joined or e.right in joined)
            ]
            if connecting:
                estimate = min(
                    estimate_join_rows(
                        current,
                        sizes[candidate],
                        e.left_distinct,
                        e.right_distinct,
                    )
                    for e in connecting
                )
                connected = 0
            else:
                estimate = current * sizes[candidate]
                connected = 1  # sorts after any connected candidate
            key = (connected, estimate, candidate)
            if best is None or key < best:
                best = key
        __, estimate, chosen = best
        build_sides.append(
            "right" if sizes[chosen] <= current else "left"
        )
        order.append(chosen)
        joined.add(chosen)
        current = max(estimate, 0.0)
        step_rows.append(current)
    return JoinPlan(order=order, step_rows=step_rows, build_sides=build_sides)


__all__ = [
    "DEFAULT_SELECTIVITY",
    "PUSHDOWN_USELESS_AT",
    "ColumnStats",
    "JoinEdge",
    "JoinPlan",
    "TableStats",
    "choose_join_order",
    "estimate_join_rows",
    "predicate_selectivity",
    "scan_selectivity",
    "stats_from_summary",
]
