"""Naive reference SQL engine for the differential harness.

The fuzzer does not generate SQL text directly: it generates a
constrained :class:`QuerySpec`, which this module can both *render* to
SQL (fed to the production ``Database.execute`` against the warehouse
scan path, with predicate pushdown and parallel decode active) and
*evaluate* directly over plainly materialized rows with the obvious
nested-loop / dict-of-lists algorithms.  Any divergence between the two
answers is a bug in the production path.

The evaluator mirrors the production engine's documented coercion
rules — ``""`` and ``None`` are NULL, comparisons are numeric when both
sides coerce to numbers and lexicographic otherwise, NULL comparisons
are false, aggregates drop NULLs — but shares none of its code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ----------------------------------------------------------------------
# Query specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Filter:
    """One WHERE conjunct: ``column op literal``."""

    table: str
    column: str
    op: str  # =, !=, <, <=, >, >=
    value: object  # int or str literal


@dataclass(frozen=True)
class Agg:
    """One aggregate select item; ``column=None`` means ``COUNT(*)``."""

    func: str  # COUNT, SUM, AVG, MIN, MAX
    column: str | None = None


@dataclass(frozen=True)
class JoinSpec:
    """Equi-join with one other table.  ``left_table`` names the
    already-joined table the condition's left side lives on (None means
    the spec's base table), so chains like CDR->CELL->NMS compose."""

    table: str
    left_column: str
    right_column: str
    kind: str = "inner"  # inner | left
    left_table: str | None = None


@dataclass(frozen=True)
class CaseSpec:
    """One ``CASE WHEN col op literal THEN then ELSE other END`` select
    item over a base-table (or joined-table) column."""

    table: str
    column: str
    op: str
    value: object
    then: object
    other: object


@dataclass(frozen=True)
class OrderSpec:
    """One ORDER BY key over an *output* column alias."""

    column: str
    ascending: bool = True


@dataclass(frozen=True)
class InSubquery:
    """One WHERE conjunct: ``column [NOT] IN (subquery)``; the subquery
    spec must yield exactly one column."""

    table: str
    column: str
    subquery: "QuerySpec"
    negated: bool = False


@dataclass(frozen=True)
class ScalarCompare:
    """One WHERE conjunct: ``column op (subquery)``; the subquery spec
    must yield one column and at most one row (no row compares as
    NULL)."""

    table: str
    column: str
    op: str
    subquery: "QuerySpec"


@dataclass(frozen=True)
class QuerySpec:
    """A constrained SELECT: filters, optional joins/grouping/having/
    ordering/limit, optionally UNIONed with a second branch.  Subqueries
    appear in all three positions: as the FROM source (``source``), as
    ``IN`` pools and as scalar comparison operands (in WHERE, or as a
    HAVING literal)."""

    table: str
    #: FROM-subquery: ``table`` is then the alias of the derived table
    #: this spec produces (its columns are the inner output aliases
    #: c0.., k0.., a0..).  The inner spec may order and limit but not
    #: UNION (the grammar has no UNION inside parentheses).
    source: "QuerySpec | None" = None
    select: tuple[tuple[str, str], ...] = ()  # (table, column) projections
    aggs: tuple[Agg, ...] = ()
    filters: tuple[Filter, ...] = ()
    in_filters: tuple[InSubquery, ...] = ()
    scalar_filters: tuple[ScalarCompare, ...] = ()
    join: JoinSpec | None = None
    #: Additional join chain after ``join`` (which is kept for the
    #: original single-join specs); evaluated left to right.
    joins: tuple[JoinSpec, ...] = ()
    #: CASE select items, aliased k0.. after the plain columns.
    cases: tuple[CaseSpec, ...] = ()
    group_by: tuple[str, ...] = ()  # base-table columns
    #: HAVING conjuncts over aggregate aliases: (alias, op, literal),
    #: where the literal may be a scalar-subquery QuerySpec.
    having: tuple[tuple[str, str, object], ...] = ()
    order_by: tuple[OrderSpec, ...] = ()
    limit: int | None = None
    #: Render the join chain in implicit comma form (FROM a, b, c with
    #: the equi conditions moved into WHERE) — the shape that exercises
    #: the vectorized engine's cost-based join reordering.
    implicit_join: bool = False
    #: Optional UNION with a second branch of the same column arity.
    union: "QuerySpec | None" = None
    union_all: bool = False

    def all_joins(self) -> tuple[JoinSpec, ...]:
        head = (self.join,) if self.join is not None else ()
        return head + self.joins


# ----------------------------------------------------------------------
# Rendering to SQL
# ----------------------------------------------------------------------


def _ref(spec: QuerySpec, table: str, column: str) -> str:
    """Qualified only when a join makes bare names ambiguous."""
    return f"{table}.{column}" if spec.all_joins() else column


def _literal(value: object) -> str:
    if isinstance(value, QuerySpec):
        return f"({render_sql(value)})"
    if isinstance(value, int):
        return str(value)
    return "'" + str(value).replace("'", "''") + "'"


def _source(spec: QuerySpec) -> str:
    if spec.source is None:
        return spec.table
    return f"{_literal(spec.source)} {spec.table}"


def _render_select(spec: QuerySpec) -> str:
    """One SELECT body (no UNION chaining, no trailing ORDER/LIMIT)."""
    items: list[str] = []
    for i, (table, column) in enumerate(spec.select):
        items.append(f"{_ref(spec, table, column)} AS c{i}")
    for i, case in enumerate(spec.cases):
        items.append(
            f"CASE WHEN {_ref(spec, case.table, case.column)} {case.op} "
            f"{_literal(case.value)} THEN {_literal(case.then)} "
            f"ELSE {_literal(case.other)} END AS k{i}"
        )
    for i, agg in enumerate(spec.aggs):
        arg = "*" if agg.column is None else _ref(spec, spec.table, agg.column)
        items.append(f"{agg.func}({arg}) AS a{i}")

    joins = spec.all_joins()
    join_conjuncts: list[str] = []
    if spec.implicit_join and joins:
        # FROM a, b, c — the parser's comma spelling of a cross join;
        # the equi conditions ride in WHERE, which is exactly the shape
        # the cost-based planner flattens and reorders.
        sql = "SELECT {} FROM {}".format(
            ", ".join(items),
            ", ".join([_source(spec)] + [j.table for j in joins]),
        )
        for join in joins:
            left = join.left_table or spec.table
            join_conjuncts.append(
                f"{left}.{join.left_column} = "
                f"{join.table}.{join.right_column}"
            )
    else:
        sql = f"SELECT {', '.join(items)} FROM {_source(spec)}"
        for join in joins:
            keyword = "LEFT JOIN" if join.kind == "left" else "JOIN"
            left = join.left_table or spec.table
            sql += (
                f" {keyword} {join.table} ON "
                f"{left}.{join.left_column} = "
                f"{join.table}.{join.right_column}"
            )
    conjuncts = join_conjuncts + [
        f"{_ref(spec, f.table, f.column)} {f.op} {_literal(f.value)}"
        for f in spec.filters
    ]
    for f in spec.in_filters:
        conjuncts.append(
            f"{_ref(spec, f.table, f.column)} "
            f"{'NOT IN' if f.negated else 'IN'} {_literal(f.subquery)}"
        )
    for f in spec.scalar_filters:
        conjuncts.append(
            f"{_ref(spec, f.table, f.column)} {f.op} {_literal(f.subquery)}"
        )
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if spec.group_by:
        sql += " GROUP BY " + ", ".join(
            _ref(spec, spec.table, c) for c in spec.group_by
        )
    if spec.having:
        sql += " HAVING " + " AND ".join(
            f"{alias} {op} {_literal(value)}"
            for alias, op, value in spec.having
        )
    return sql


def render_sql(spec: QuerySpec) -> str:
    """Spec -> SELECT text; every output column gets an explicit alias."""
    sql = _render_select(spec)
    if spec.union is not None:
        keyword = "UNION ALL" if spec.union_all else "UNION"
        sql += f" {keyword} " + _render_select(spec.union)
    if spec.order_by:
        sql += " ORDER BY " + ", ".join(
            order.column + ("" if order.ascending else " DESC")
            for order in spec.order_by
        )
    if spec.limit is not None:
        sql += f" LIMIT {spec.limit}"
    return sql


# ----------------------------------------------------------------------
# Naive evaluation
# ----------------------------------------------------------------------


def _is_null(value) -> bool:
    return value is None or value == ""


def _number(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return None
    return None


def _compare(left, right) -> int:
    ln, rn = _number(left), _number(right)
    if ln is not None and rn is not None:
        return (ln > rn) - (ln < rn)
    ls, rs = str(left), str(right)
    return (ls > rs) - (ls < rs)


def _matches(value, op: str, literal) -> bool:
    if _is_null(value) or _is_null(literal):
        return False
    cmp = _compare(value, literal)
    return {
        "=": cmp == 0,
        "!=": cmp != 0,
        "<": cmp < 0,
        "<=": cmp <= 0,
        ">": cmp > 0,
        ">=": cmp >= 0,
    }[op]


def _join_key(value):
    number = _number(value)
    return number if number is not None else value


def _order_rank(value):
    """Independent mirror of the engine's ORDER BY rank: non-NULLs
    first (numbers before strings), NULLs last."""
    null = _is_null(value)
    number = _number(value)
    if number is not None:
        key = (0, number, "")
    else:
        key = (1, 0.0, str(value))
    return (1 if null else 0, key)


class _Asc:
    __slots__ = ("rank",)

    def __init__(self, value):
        self.rank = _order_rank(value)

    def __lt__(self, other):
        return self.rank < other.rank

    def __eq__(self, other):
        return self.rank == other.rank


class _Desc(_Asc):
    __slots__ = ()

    def __lt__(self, other):
        return self.rank > other.rank


def _aggregate(agg: Agg, rows: list[list], idx: int | None):
    if agg.func == "COUNT" and agg.column is None:
        return len(rows)
    values = [row[idx] for row in rows if not _is_null(row[idx])]
    if agg.func == "COUNT":
        return len(values)
    if not values:
        return None
    if agg.func in ("SUM", "AVG"):
        numbers = [n for n in (_number(v) for v in values) if n is not None]
        if not numbers:
            return None
        total = sum(numbers)
        return total if agg.func == "SUM" else total / len(numbers)
    best = values[0]
    for value in values[1:]:
        cmp = _compare(value, best)
        if (agg.func == "MIN" and cmp < 0) or (agg.func == "MAX" and cmp > 0):
            best = value
    return best


@dataclass
class _Relation:
    """Rows plus a (table, column) -> index resolver."""

    fields: list[tuple[str, str]]
    rows: list[list]
    index: dict[tuple[str, str], int] = field(init=False)

    def __post_init__(self) -> None:
        self.index = {f: i for i, f in enumerate(self.fields)}

    def at(self, table: str, column: str) -> int:
        return self.index[(table, column)]


def _in_pool(spec: QuerySpec, tables) -> set:
    """IN pool of a one-column subquery.  Membership is by join key with
    no NULL special case: a NULL key in the pool matches a NULL cell."""
    columns, rows = evaluate(spec, tables)
    assert len(columns) == 1, "IN subquery spec must yield one column"
    return {_join_key(row[0]) for row in rows}


def _scalar(spec: QuerySpec, tables):
    columns, rows = evaluate(spec, tables)
    assert len(columns) == 1 and len(rows) <= 1, "not a scalar subquery spec"
    return rows[0][0] if rows else None


def _case_value(case: CaseSpec, row: list, rel: "_Relation"):
    cell = row[rel.at(case.table, case.column)]
    return case.then if _matches(cell, case.op, case.value) else case.other


def _evaluate_branch(
    spec: QuerySpec, tables: dict[str, tuple[list[str], list[list[str]]]]
) -> tuple[list[str], list[list]]:
    """One SELECT body (joins, filters, grouping, having) — no trailing
    ORDER BY/LIMIT, no UNION chaining."""
    if spec.source is not None:
        tables = {**tables, spec.table: evaluate(spec.source, tables)}
    base_columns, base_rows = tables[spec.table]
    rel = _Relation(
        fields=[(spec.table, c) for c in base_columns],
        rows=[list(r) for r in base_rows],
    )

    for join in spec.all_joins():
        right_columns, right_rows = tables[join.table]
        right_fields = [(join.table, c) for c in right_columns]
        right_at = {f: i for i, f in enumerate(right_fields)}
        left_idx = rel.at(join.left_table or spec.table, join.left_column)
        right_idx = right_at[(join.table, join.right_column)]
        bucket: dict[object, list[list]] = {}
        for row in right_rows:
            bucket.setdefault(_join_key(row[right_idx]), []).append(list(row))
        joined: list[list] = []
        for lrow in rel.rows:
            matched = False
            for rrow in bucket.get(_join_key(lrow[left_idx]), []):
                if _matches(lrow[left_idx], "=", rrow[right_idx]):
                    joined.append(lrow + rrow)
                    matched = True
            if not matched and join.kind == "left":
                joined.append(lrow + [None] * len(right_fields))
        rel = _Relation(fields=rel.fields + right_fields, rows=joined)

    for flt in spec.filters:
        idx = rel.at(flt.table, flt.column)
        rel.rows = [r for r in rel.rows if _matches(r[idx], flt.op, flt.value)]

    for flt in spec.in_filters:
        idx = rel.at(flt.table, flt.column)
        pool = _in_pool(flt.subquery, tables)
        rel.rows = [
            r for r in rel.rows
            if (_join_key(r[idx]) in pool) != flt.negated
        ]
    for flt in spec.scalar_filters:
        idx = rel.at(flt.table, flt.column)
        value = _scalar(flt.subquery, tables)
        rel.rows = [r for r in rel.rows if _matches(r[idx], flt.op, value)]

    columns = (
        [f"c{i}" for i in range(len(spec.select))]
        + [f"k{i}" for i in range(len(spec.cases))]
        + [f"a{i}" for i in range(len(spec.aggs))]
    )

    if spec.group_by or spec.aggs:
        key_idx = [rel.at(spec.table, c) for c in spec.group_by]
        groups: dict[tuple, list[list]] = {}
        if spec.group_by:
            for row in rel.rows:
                groups.setdefault(
                    tuple(row[i] for i in key_idx), []
                ).append(row)
        else:
            groups[()] = rel.rows
        out: list[list] = []
        for sig in sorted(groups):
            group_rows = groups[sig]
            row: list = []
            for table, column in spec.select:
                row.append(group_rows[0][rel.at(table, column)])
            for case in spec.cases:
                # Non-aggregate select items read the group's
                # representative (first) row, like the engine.
                row.append(_case_value(case, group_rows[0], rel))
            for agg in spec.aggs:
                idx = (
                    None
                    if agg.column is None
                    else rel.at(spec.table, agg.column)
                )
                row.append(_aggregate(agg, group_rows, idx))
            out.append(row)
        if spec.having:
            having_idx = [
                (
                    columns.index(alias),
                    op,
                    _scalar(value, tables)
                    if isinstance(value, QuerySpec)
                    else value,
                )
                for alias, op, value in spec.having
            ]
            out = [
                row
                for row in out
                if all(
                    _matches(row[i], op, value) for i, op, value in having_idx
                )
            ]
    else:
        pick = [rel.at(table, column) for table, column in spec.select]
        out = []
        for row in rel.rows:
            projected = [row[i] for i in pick]
            projected.extend(
                _case_value(case, row, rel) for case in spec.cases
            )
            out.append(projected)
    return columns, out


def evaluate(
    spec: QuerySpec, tables: dict[str, tuple[list[str], list[list[str]]]]
) -> tuple[list[str], list[list]]:
    """Evaluate ``spec`` over materialized ``tables`` (name -> cols, rows).

    Returns ``(columns, rows)`` in the same order the production engine
    produces: scan order for plain queries, group-signature order for
    grouped ones, concatenation (+ first-occurrence dedup) for UNIONs,
    stable output-column sort when the spec orders.
    """
    columns, out = _evaluate_branch(spec, tables)

    if spec.union is not None:
        __, branch_rows = _evaluate_branch(spec.union, tables)
        out = out + branch_rows
        if not spec.union_all:
            seen: set[tuple] = set()
            unique: list[list] = []
            for row in out:
                key = tuple(_join_key(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            out = unique

    if spec.order_by:
        keys = [
            (columns.index(order.column), order.ascending)
            for order in spec.order_by
        ]
        out = sorted(
            out,
            key=lambda row: tuple(
                _Asc(row[i]) if asc else _Desc(row[i]) for i, asc in keys
            ),
        )

    if spec.limit is not None:
        out = out[: spec.limit]
    return columns, out
