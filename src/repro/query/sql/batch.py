"""Column-batch building blocks for the SQL engine.

A :class:`ColumnBatch` is one base table held column-major: a list of
cell lists, one per column, plus the lazily computed views the kernels
want (numeric views, null masks).  Batches come either straight from
the storage layer's column decode (``Spate.read_columns`` feeds TCH1 /
COL1 leaves into batches without ever materializing row tuples) or
from transposing a row loader's output once at scan time.

A :class:`Relation` is an intermediate result over one or more base
batches: instead of copying cells row by row it keeps per-base-table
*row index* vectors (``-1`` marks a NULL-extended side of a left join)
and gathers an output column only when an expression actually reads
it.  Filters and joins therefore move integers around, not cell
strings — the late materialization that makes the pipeline fast, while
the index vectors record exactly the provenance the output-order rule
(:mod:`repro.query.sql.vectorized`) is stated in.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.query.sql.values import as_number, is_null


class ColumnBatch:
    """One base table, column-major, with cached derived views."""

    __slots__ = ("columns", "data", "length", "_numeric", "_nulls")

    def __init__(self, columns: list[str], data: list[list[Any]], length: int):
        self.columns = list(columns)
        self.data = data
        self.length = length
        self._numeric: dict[int, list] = {}
        self._nulls: dict[int, list] = {}

    @classmethod
    def from_rows(cls, columns: list[str], rows: list[list[Any]]) -> "ColumnBatch":
        """Transpose a row loader's output once, at scan time."""
        n = len(rows)
        if n == 0:
            return cls(columns, [[] for __ in columns], 0)
        data = [[row[c] for row in rows] for c in range(len(columns))]
        return cls(columns, data, n)

    @classmethod
    def from_columns(
        cls, columns: list[str], data: list[list[Any]]
    ) -> "ColumnBatch":
        """Wrap storage-layer column vectors directly (no transpose)."""
        length = len(data[0]) if data else 0
        return cls(columns, data, length)

    def numeric(self, col: int) -> list:
        """Cached :func:`~repro.query.sql.values.as_number` view of one
        column — computed once, shared by every kernel that needs it."""
        view = self._numeric.get(col)
        if view is None:
            view = [as_number(v) for v in self.data[col]]
            self._numeric[col] = view
        return view

    def nulls(self, col: int) -> list:
        """Cached null mask of one column."""
        view = self._nulls.get(col)
        if view is None:
            view = [is_null(v) for v in self.data[col]]
            self._nulls[col] = view
        return view


_IDENTITY = None  # sentinel: Relation covers every row of its single base


class Relation:
    """An intermediate row set as index vectors over base batches.

    ``fields`` mirrors ``_Scope.fields`` — the (binding, column)
    schema in field order.  ``field_map[i]`` locates
    field ``i`` as ``(table_position, column_position)`` in ``tables``.

    ``rows`` is either ``None`` (identity: every row of the single base
    batch, in storage order) or a list of per-table index tuples in
    output order; ``-1`` in a slot means that base table's side was
    NULL-extended by a left join.
    """

    __slots__ = ("fields", "tables", "field_map", "rows", "table_ids", "_cols")

    def __init__(
        self,
        fields: list[tuple[Optional[str], str]],
        tables: list[ColumnBatch],
        field_map: list[tuple[int, int]],
        rows: Optional[list[tuple[int, ...]]],
        table_ids: Optional[list[int]] = None,
    ):
        self.fields = fields
        self.tables = tables
        self.field_map = field_map
        self.rows = rows
        #: Syntactic position of each base table in the FROM clause —
        #: what the planner sorts provenance by to restore syntactic
        #: output order after a cost-based join reorder.
        self.table_ids = table_ids if table_ids is not None else list(range(len(tables)))
        self._cols: dict[int, list] = {}

    @classmethod
    def from_batch(
        cls, binding: Optional[str], batch: ColumnBatch, table_id: int = 0
    ) -> "Relation":
        fields = [(binding, c) for c in batch.columns]
        field_map = [(0, c) for c in range(len(batch.columns))]
        return cls(fields, [batch], field_map, _IDENTITY, [table_id])

    @property
    def length(self) -> int:
        if self.rows is _IDENTITY:
            return self.tables[0].length
        return len(self.rows)

    def column(self, field: int) -> list:
        """Materialized output column for one field (cached)."""
        col = self._cols.get(field)
        if col is not None:
            return col
        t, c = self.field_map[field]
        base = self.tables[t].data[c]
        if self.rows is _IDENTITY:
            col = base
        else:
            col = [
                base[idx[t]] if idx[t] >= 0 else None for idx in self.rows
            ]
        self._cols[field] = col
        return col

    def numeric_column(self, field: int) -> list:
        """Numeric view of one field's output column.

        For identity relations this is the base batch's cached view;
        for gathered relations the gather happens on the *numeric* view
        (one coercion per base cell, however many output rows repeat it).
        """
        t, c = self.field_map[field]
        base = self.tables[t].numeric(c)
        if self.rows is _IDENTITY:
            return base
        return [base[idx[t]] if idx[t] >= 0 else None for idx in self.rows]

    def select(self, keep: list[int]) -> "Relation":
        """A new relation containing the rows at ``keep`` positions, in
        that order (filters pass ascending positions, so storage order
        is preserved)."""
        if self.rows is _IDENTITY:
            rows = [(i,) for i in keep]
        else:
            prev = self.rows
            rows = [prev[i] for i in keep]
        return Relation(
            self.fields, self.tables, self.field_map, rows, self.table_ids
        )

    def provenance(self) -> list[tuple[int, ...]]:
        """Per-row base-table index tuples (materializing identity)."""
        if self.rows is _IDENTITY:
            return [(i,) for i in range(self.tables[0].length)]
        return self.rows


def join_relations(
    left: Relation, right: Relation, pairs: list[tuple[int, ...]]
) -> Relation:
    """Combine two relations into one whose rows are ``pairs`` of
    (left position, right position); ``-1`` as the right position
    NULL-extends (left join).  Field order is left fields then right
    fields, matching the combined scope."""
    fields = left.fields + right.fields
    tables = left.tables + right.tables
    offset = len(left.tables)
    field_map = list(left.field_map) + [
        (t + offset, c) for t, c in right.field_map
    ]
    left_rows = left.provenance()
    right_rows = right.provenance()
    null_right = (-1,) * len(right.tables)
    rows = []
    append = rows.append
    for li, ri in pairs:
        lrow = left_rows[li]
        append(lrow + (right_rows[ri] if ri >= 0 else null_right))
    return Relation(
        fields, tables, field_map, rows, left.table_ids + right.table_ids
    )


Loader = Callable[[], tuple[list[str], list[list[Any]]]]

__all__ = ["ColumnBatch", "Relation", "join_relations"]
