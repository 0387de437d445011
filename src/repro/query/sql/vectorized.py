"""Column-batch SQL execution — the one engine behind ``Database.execute``.

A statement runs column-at-a-time over
:class:`~repro.query.sql.batch.Relation` index vectors: scope
resolution, literal coercion, and LIKE compilation happen once per
column, numeric views are computed once per base column, and joins move
row *indexes* instead of row copies.  Every kernel routes through
:mod:`repro.query.sql.values`, and ``tests/sql_reference.py`` is the
independent oracle the differential suites diff every answer against.

Evaluation is lazy where SQL lets an error hide: the right side of
AND / OR and the branches of CASE are evaluated only over the rows that
reach them, and no expression is resolved against a zero-row relation
(``SELECT bogus FROM empty`` succeeds).  Subqueries are self-contained
(no outer row is ever passed in), so each one — FROM, scalar, or
``IN (SELECT ...)`` — runs at most once per statement execution, on
first reach with a non-empty relation, and is memoised by node
identity; an unreached subquery never runs, so its errors never
surface.

Output order is part of the contract.  Scans keep storage order,
filters keep relative order, hash buckets keep build-side storage order
and probes keep probe-side order, nested loops are left-major — so an
inner-join tree emits rows in lexicographic order of base-table
provenance, taken in FROM-clause order.  Inner/cross join trees over
base tables additionally pass through the cost-based planner
(:mod:`repro.query.sql.cost`): scans feed actual filtered sizes,
summary statistics supply join-key distinct counts, and the greedy
order + build-side choice executes out of syntactic order; a final
provenance sort restores exactly that lexicographic order, so the
reorder is invisible in answers.  Grouped output is sorted by raw group
signature (a ``TypeError`` on mixed-type keys), and ORDER BY is a
stable sort over that.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Optional

from repro.errors import QueryError, SqlPlanError
from repro.query.sql import kernels
from repro.query.sql.ast import (
    AGGREGATE_FUNCTIONS,
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    Expression,
    FromItem,
    FunctionCall,
    InList,
    IsNull,
    Join,
    Like,
    Literal,
    ScalarSubquery,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
    contains_aggregate,
)
from repro.query.sql.batch import ColumnBatch, Relation, join_relations
from repro.query.sql.cost import JoinEdge, choose_join_order
from repro.query.sql.executor import (
    QueryResult,
    _like_to_regex,
    _Scope,
    _split_conjuncts,
    _substitute_aliases,
)
from repro.query.sql.functions import SCALAR_FUNCTIONS
from repro.query.sql.values import (
    as_number,
    hashable_key,
    is_null,
    is_truthy,
    null_safe_key,
    sort_key,
)

_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


def _column_refs(expr: Expression) -> list[ColumnRef]:
    if isinstance(expr, ColumnRef):
        return [expr]
    if isinstance(expr, BinaryOp):
        return _column_refs(expr.left) + _column_refs(expr.right)
    if isinstance(expr, UnaryOp):
        return _column_refs(expr.operand)
    if isinstance(expr, Between):
        return (
            _column_refs(expr.operand)
            + _column_refs(expr.low)
            + _column_refs(expr.high)
        )
    if isinstance(expr, InList):
        out = _column_refs(expr.operand)
        for item in expr.items:
            out.extend(_column_refs(item))
        return out
    if isinstance(expr, (Like, IsNull)):
        return _column_refs(expr.operand)
    if isinstance(expr, FunctionCall):
        return [r for a in expr.args for r in _column_refs(a)]
    if isinstance(expr, CaseExpression):
        parts = [e for pair in expr.branches for e in pair]
        if expr.default is not None:
            parts.append(expr.default)
        return [r for e in parts for r in _column_refs(e)]
    return []


def _reorder_safe(expr: Expression) -> bool:
    """True when evaluating ``expr`` out of syntactic order can surface
    no error the syntactic order would not: every FunctionCall names a
    real function, and no subquery (whose errors surface only when it
    is reached) hangs off the tree.  A flatten precondition."""
    if isinstance(expr, ScalarSubquery):
        return False
    if isinstance(expr, FunctionCall):
        if (
            expr.name not in SCALAR_FUNCTIONS
            and expr.name not in AGGREGATE_FUNCTIONS
        ):
            return False
        return all(_reorder_safe(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return _reorder_safe(expr.left) and _reorder_safe(expr.right)
    if isinstance(expr, UnaryOp):
        return _reorder_safe(expr.operand)
    if isinstance(expr, Between):
        return all(
            _reorder_safe(e) for e in (expr.operand, expr.low, expr.high)
        )
    if isinstance(expr, InList):
        return (
            expr.subquery is None
            and _reorder_safe(expr.operand)
            and all(_reorder_safe(i) for i in expr.items)
        )
    if isinstance(expr, (Like, IsNull)):
        return _reorder_safe(expr.operand)
    if isinstance(expr, CaseExpression):
        parts = [e for pair in expr.branches for e in pair]
        if expr.default is not None:
            parts.append(expr.default)
        return all(_reorder_safe(e) for e in parts)
    return True


def _one_empty_row() -> Relation:
    """One row with no cells: what a FROM-less SELECT projects over, and
    the representative of an implicit group no row fell into."""
    return Relation([], [], [], [()], [])


def _in_pool(inner: QueryResult) -> set:
    if len(inner.columns) != 1:
        raise SqlPlanError("IN subquery must yield one column")
    return {null_safe_key(row[0]) for row in inner.rows}


def _scalar_value(inner: QueryResult) -> Any:
    if len(inner.columns) != 1:
        raise SqlPlanError("scalar subquery must yield one column")
    if len(inner.rows) > 1:
        raise QueryError("scalar subquery returned more than one row")
    return inner.rows[0][0] if inner.rows else None


class _NotFlat(Exception):
    """Internal: the FROM tree cannot be flattened for reorder."""


class VectorizedExecutor:
    """One statement's batch execution over a
    :class:`~repro.query.sql.executor.Database` catalog, whose scope
    resolution, scan loaders and deadline marks it borrows.  Nested
    SELECTs run through the same instance, so they share the deadline,
    the profile and the memo tables."""

    def __init__(self, db):
        self.db = db
        #: Plan/cardinality records for EXPLAIN ANALYZE:
        #: ``{"label", "est", "actual"}`` rows and ``{"label", "note"}``
        #: annotations, in execution order.
        self.profile: list[dict] = []
        #: Syntactic FROM positions, handed out in scan order (the
        #: provenance sort key).
        self._table_ids = itertools.count()
        #: Memo tables keyed by AST node identity.  Each SELECT node runs
        #: at most once per instance, so an entry is never stale.
        self._agg_cache: dict[int, tuple[list, Optional[list]]] = {}
        self._subquery_values: dict[int, Any] = {}

    # -- entry point ----------------------------------------------------

    def execute(self, stmt: SelectStatement):
        return self._select(stmt)

    def _select(self, stmt: SelectStatement):
        if stmt.unions:
            return self._union(stmt)
        db = self.db
        if stmt.from_item is not None:
            conjuncts = _split_conjuncts(stmt.where)
            full_scope = db._scope_of(stmt.from_item)
            pushable = [
                c
                for c in conjuncts
                if not contains_aggregate(c)
                and db._resolvable(c, full_scope)
            ]
            blocked = [c for c in conjuncts if c not in pushable]
            scope, rel, leftover = self._from_filtered(
                stmt.from_item, pushable
            )
            db._check_deadline("scan/join")
            for predicate in leftover + blocked:
                rel = self._filter(rel, predicate, scope)
            db._check_deadline("filter")
        else:
            scope = _Scope()
            rel = _one_empty_row()
            if stmt.where is not None:
                rel = self._filter(rel, stmt.where, scope)

        grouped = bool(stmt.group_by) or any(
            contains_aggregate(item.expression) for item in stmt.items
        ) or (stmt.having is not None)

        if grouped:
            out_columns, out_rows = self._grouped_projection(stmt, scope, rel)
        else:
            out_columns, out_rows = self._plain_projection(
                stmt.items, scope, rel
            )
        db._check_deadline("aggregation/projection")

        if stmt.distinct:
            seen: set[tuple] = set()
            deduped = []
            for row in out_rows:
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            out_rows = deduped

        if stmt.order_by:
            db._check_deadline("sort")
            out_rows = self._order(
                stmt, scope, out_columns, out_rows, rel, grouped
            )

        if stmt.limit is not None:
            out_rows = out_rows[: stmt.limit]

        return QueryResult(columns=out_columns, rows=out_rows)

    def _union(self, stmt: SelectStatement):
        head = copy.copy(stmt)
        head.unions = []
        head.order_by = []
        head.limit = None
        result = self._select(head)
        columns = result.columns
        rows = list(result.rows)
        dedup = False
        for branch, keep_duplicates in stmt.unions:
            branch_result = self._select(branch)
            if len(branch_result.columns) != len(columns):
                raise SqlPlanError(
                    f"UNION branches have {len(columns)} vs "
                    f"{len(branch_result.columns)} columns"
                )
            rows.extend(branch_result.rows)
            if not keep_duplicates:
                dedup = True
        if dedup:
            seen: set[tuple] = set()
            unique = []
            for row in rows:
                key = tuple(null_safe_key(c) for c in row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        if stmt.order_by:
            indexes = []
            for order in stmt.order_by:
                expr = order.expression
                if (
                    isinstance(expr, ColumnRef)
                    and expr.table is None
                    and expr.name in columns
                ):
                    indexes.append((columns.index(expr.name), order.ascending))
                elif isinstance(expr, Literal) and isinstance(expr.value, int):
                    if not 1 <= expr.value <= len(columns):
                        raise SqlPlanError(
                            f"ORDER BY position {expr.value} out of range"
                        )
                    indexes.append((expr.value - 1, order.ascending))
                else:
                    raise SqlPlanError(
                        "ORDER BY on UNION must reference output columns"
                    )
            rows.sort(
                key=lambda row: [sort_key(row[i], asc) for i, asc in indexes]
            )
        if stmt.limit is not None:
            rows = rows[: stmt.limit]
        return QueryResult(columns=columns, rows=rows)

    # -- FROM -----------------------------------------------------------

    def _from_filtered(self, item: FromItem, conjuncts: list[Expression]):
        """Execute a FROM source, consuming the WHERE conjuncts that
        resolve fully against it, so single-table filters run *below*
        joins.  Left joins take no pushdown (a filter below the join
        changes which rows get NULL-extended); flattenable inner/cross
        trees of base tables divert through the cost-based reorder.
        Returns (scope, relation, leftover conjuncts)."""
        if isinstance(item, Join) and item.kind != "left":
            plan = self._flatten(item, conjuncts)
            if plan is not None:
                return self._from_reordered(*plan)
            left_scope, left_rel, conjuncts = self._from_filtered(
                item.left, conjuncts
            )
            right_scope, right_rel, conjuncts = self._from_filtered(
                item.right, conjuncts
            )
            scope, rel = self._join(
                item, left_scope, left_rel, right_scope, right_rel
            )
        else:
            scope, rel = self._from(item)
        applicable = []
        leftover = []
        for predicate in conjuncts:
            target = (
                applicable
                if self.db._resolvable(predicate, scope)
                else leftover
            )
            target.append(predicate)
        for predicate in applicable:
            rel = self._filter(rel, predicate, scope)
        return scope, rel, leftover

    def _from(self, item: FromItem):
        if isinstance(item, TableRef):
            return self._scan(item)
        if isinstance(item, SubqueryRef):
            inner = self._select(item.select)
            batch = ColumnBatch.from_rows(inner.columns, inner.rows)
            scope = _Scope(fields=[(item.alias, c) for c in inner.columns])
            return scope, Relation.from_batch(
                item.alias, batch, next(self._table_ids)
            )
        if isinstance(item, Join):
            left_scope, left_rel = self._from(item.left)
            right_scope, right_rel = self._from(item.right)
            return self._join(
                item, left_scope, left_rel, right_scope, right_rel
            )
        raise SqlPlanError(f"unsupported FROM item {item!r}")

    def _scan(self, item: TableRef):
        db = self.db
        upper = item.name.upper()
        if upper not in db._tables:
            raise SqlPlanError(f"unknown table {item.name!r}")
        batch = db._load_batch(upper)
        scope = _Scope(fields=[(item.binding, c) for c in batch.columns])
        rel = Relation.from_batch(item.binding, batch, next(self._table_ids))
        stats = db.table_statistics(upper)
        self.profile.append(
            {
                "label": f"Scan {item.name.upper()}",
                "est": float(stats.rows) if stats is not None else None,
                "actual": batch.length,
            }
        )
        return scope, rel

    # -- syntactic-order join --------------------------------------------

    def _join(self, join: Join, left_scope, left_rel, right_scope, right_rel):
        db = self.db
        scope = _Scope(fields=left_scope.fields + right_scope.fields)
        nleft, nright = left_rel.length, right_rel.length

        if join.kind == "cross":
            pairs = [
                (li, ri) for li in range(nleft) for ri in range(nright)
            ]
            rel = join_relations(left_rel, right_rel, pairs)
            self.profile.append(
                {"label": "CrossJoin", "est": None, "actual": rel.length}
            )
            return scope, rel

        equi = db._equi_join_keys(join.condition, left_scope, right_scope)
        if equi is not None:
            # Bare `a.x = b.y`: hash without a recheck.  NULL keys are
            # excluded up front — NULL fails every comparison, equality
            # included, so a NULL key can match nothing.
            left_idx, right_idx = equi
            lcol = left_rel.column(left_idx)
            rcol = right_rel.column(right_idx)
            index: dict[Any, list[int]] = {}
            for ri, value in enumerate(rcol):
                if not is_null(value):
                    index.setdefault(null_safe_key(value), []).append(ri)
            pairs = []
            append = pairs.append
            left_join = join.kind == "left"
            for li, value in enumerate(lcol):
                matched = False
                if not is_null(value):
                    for ri in index.get(null_safe_key(value), ()):
                        append((li, ri))
                        matched = True
                if not matched and left_join:
                    append((li, -1))
            rel = join_relations(left_rel, right_rel, pairs)
            self.profile.append(
                {"label": "HashJoin", "est": None, "actual": rel.length}
            )
            return scope, rel

        # General condition: candidate pairs (hashed on a leading bare
        # equi conjunct when there is one, else the full cross space),
        # then the whole condition vector-evaluated over the candidates
        # — the lazy AND short-circuit: the rest of the condition is
        # only ever evaluated on pairs where the leading conjunct held.
        conjuncts = _split_conjuncts(join.condition)
        lead = (
            db._equi_join_keys(conjuncts[0], left_scope, right_scope)
            if conjuncts
            else None
        )
        if lead is not None:
            left_idx, right_idx = lead
            lcol = left_rel.column(left_idx)
            rcol = right_rel.column(right_idx)
            index = {}
            for ri, value in enumerate(rcol):
                if not is_null(value):
                    index.setdefault(null_safe_key(value), []).append(ri)
            cand: list[tuple[int, int]] = []
            spans: list[tuple[int, int]] = []
            for li, value in enumerate(lcol):
                start = len(cand)
                if not is_null(value):
                    for ri in index.get(null_safe_key(value), ()):
                        cand.append((li, ri))
                spans.append((start, len(cand)))
            strategy = "HashJoin"
        else:
            cand = [(li, ri) for li in range(nleft) for ri in range(nright)]
            spans = [
                (li * nright, (li + 1) * nright) for li in range(nleft)
            ]
            strategy = "NestedLoopJoin"
        if join.condition is None:
            mask = [True] * len(cand)
        else:
            cand_rel = join_relations(left_rel, right_rel, cand)
            mask = kernels.truthy_mask(
                self._eval_vec(join.condition, cand_rel, scope)
            )
        pairs = []
        append = pairs.append
        left_join = join.kind == "left"
        for li, (start, end) in enumerate(spans):
            matched = False
            for k in range(start, end):
                if mask[k]:
                    append(cand[k])
                    matched = True
            if not matched and left_join:
                append((li, -1))
        rel = join_relations(left_rel, right_rel, pairs)
        self.profile.append(
            {"label": strategy, "est": None, "actual": rel.length}
        )
        return scope, rel

    # -- cost-based reorder ---------------------------------------------

    def _flatten(self, item: Join, conjuncts: list[Expression]):
        """Decompose an inner/cross-only tree of base tables into
        (tables, pooled predicates), or None when the syntactic order
        must run instead (left joins, subqueries, duplicate bindings,
        predicates whose errors the reorder could mis-time)."""
        tables: list[TableRef] = []
        pooled: list[Expression] = []

        def walk(node: FromItem) -> None:
            if isinstance(node, Join) and node.kind in ("inner", "cross"):
                walk(node.left)
                walk(node.right)
                if node.condition is not None:
                    pooled.extend(_split_conjuncts(node.condition))
            elif isinstance(node, TableRef):
                tables.append(node)
            else:
                raise _NotFlat

        try:
            walk(item)
        except _NotFlat:
            return None
        if len(tables) < 2:
            return None
        if len({t.binding for t in tables}) != len(tables):
            return None
        db = self.db
        # Every table must resolve (unknown tables raise in syntactic
        # order through the normal path).
        for t in tables:
            if t.name.upper() not in db._tables:
                return None
        full_scope = _Scope(
            fields=[
                (t.binding, c)
                for t in tables
                for c in db._tables[t.name.upper()][0]
            ]
        )
        pooled = pooled + list(conjuncts)
        for predicate in pooled:
            if contains_aggregate(predicate):
                return None
            if not _reorder_safe(predicate):
                return None
            if not db._resolvable(predicate, full_scope):
                return None
        return tables, pooled, full_scope

    def _from_reordered(self, tables, pooled, full_scope):
        """Execute a flattened inner-join group in cost order, then sort
        the result back into syntactic output order via base-table
        provenance."""
        db = self.db
        n = len(tables)
        # Field offsets per syntactic table position, for predicate
        # attribution against the full scope.
        offsets = []
        total = 0
        for t in tables:
            offsets.append(total)
            total += len(db._tables[t.name.upper()][0])

        def table_of(field_index: int) -> int:
            for pos in range(n - 1, -1, -1):
                if field_index >= offsets[pos]:
                    return pos
            return 0

        pred_tables: list[tuple[Expression, frozenset[int]]] = []
        for predicate in pooled:
            refs = _column_refs(predicate)
            touched = frozenset(
                table_of(full_scope.resolve(ref)) for ref in refs
            )
            if not touched:
                touched = frozenset({0})
            pred_tables.append((predicate, touched))

        # Scan + single-table filters (in syntactic order, so scan-time
        # errors surface exactly as in the left-deep syntactic walk).
        rels: list[Relation] = []
        scopes: list = []
        for pos, t in enumerate(tables):
            scope_t, rel_t = self._scan(t)
            for predicate, touched in pred_tables:
                if touched == frozenset({pos}):
                    rel_t = self._filter(rel_t, predicate, scope_t)
            rels.append(rel_t)
            scopes.append(scope_t)

        # Cost inputs: actual filtered sizes plus summary distinct
        # counts on equi-join keys.
        sizes = [float(rel.length) for rel in rels]
        edges = []
        equi_info: dict[int, tuple[int, int]] = {}
        for pi, (predicate, touched) in enumerate(pred_tables):
            if len(touched) != 2:
                continue
            pair = self._bare_equi_tables(predicate, full_scope, table_of)
            if pair is None:
                continue
            (ta, ca), (tb, cb) = pair
            edges.append(
                JoinEdge(
                    left=ta,
                    right=tb,
                    left_distinct=self._distinct_of(tables[ta], ca),
                    right_distinct=self._distinct_of(tables[tb], cb),
                )
            )
            equi_info[pi] = (ta, tb)
        plan = choose_join_order(sizes, edges)
        order = plan.order
        self.profile.append(
            {
                "label": "JoinOrder",
                "note": " -> ".join(
                    [tables[order[0]].binding]
                    + [
                        f"{tables[t].binding}(build={side})"
                        for t, side in zip(order[1:], plan.build_sides)
                    ]
                )
                + " (cost-based)",
            }
        )

        applied = [
            touched is not None and len(touched) <= 1
            for __, touched in pred_tables
        ]
        acc = rels[order[0]]
        acc_scope = scopes[order[0]]
        joined = {order[0]}
        for step, pos in enumerate(order[1:]):
            next_rel = rels[pos]
            next_scope = scopes[pos]
            build_right = plan.build_sides[step] == "right"
            now = joined | {pos}
            ready = [
                pi
                for pi, (__, touched) in enumerate(pred_tables)
                if not applied[pi] and touched <= now
            ]
            # Hash on the first newly-ready bare equi linking the two
            # sides; every other ready predicate filters the candidates.
            equi_pi = None
            for pi in ready:
                predicate, touched = pred_tables[pi]
                if pi in equi_info and pos in equi_info[pi]:
                    other = (
                        equi_info[pi][0]
                        if equi_info[pi][1] == pos
                        else equi_info[pi][1]
                    )
                    if other in joined:
                        equi_pi = pi
                        break
            scope = _Scope(fields=acc_scope.fields + next_scope.fields)
            if equi_pi is not None:
                predicate = pred_tables[equi_pi][0]
                acc_idx, next_idx = self._equi_field_indexes(
                    predicate, acc_scope, next_scope
                )
                acc_col = acc.column(acc_idx)
                next_col = next_rel.column(next_idx)
                if build_right:
                    pairs = _hash_pairs(acc_col, next_col, probe_is_left=True)
                else:
                    pairs = _hash_pairs(next_col, acc_col, probe_is_left=False)
                applied[equi_pi] = True
            else:
                pairs = [
                    (ai, ni)
                    for ai in range(acc.length)
                    for ni in range(next_rel.length)
                ]
            est = plan.step_rows[step + 1]
            rel = join_relations(acc, next_rel, pairs)
            for pi in ready:
                if applied[pi]:
                    continue
                rel = self._filter(rel, pred_tables[pi][0], scope)
                applied[pi] = True
            self.profile.append(
                {
                    "label": (
                        "HashJoin" if equi_pi is not None else "NestedLoopJoin"
                    )
                    + f" +{tables[pos].binding}",
                    "est": est,
                    "actual": rel.length,
                }
            )
            acc = rel
            acc_scope = scope
            joined = now

        # Any predicate still unapplied references tables now all
        # joined; apply in pooled order.
        for pi, (predicate, __) in enumerate(pred_tables):
            if not applied[pi]:
                acc = self._filter(acc, predicate, acc_scope)
                applied[pi] = True

        # Restore syntactic output order: permute provenance slots into
        # FROM-clause table order and sort lexicographically.
        # (Provenance tuples are unique — each base-row combination is
        # emitted at most once — so the sort has no ties to break.)
        perm = sorted(
            range(len(acc.tables)), key=lambda s: acc.table_ids[s]
        )
        prov = acc.provenance()
        ordered = sorted(tuple(r[s] for s in perm) for r in prov)
        tables_sorted = [acc.tables[s] for s in perm]
        # perm walks slots in syntactic table order, so appending each
        # table's columns in sequence reproduces full_scope.fields.
        field_map = []
        for j, s in enumerate(perm):
            for c in range(len(acc.tables[s].columns)):
                field_map.append((j, c))
        final = Relation(
            list(full_scope.fields),
            tables_sorted,
            field_map,
            ordered,
            sorted(acc.table_ids),
        )
        return full_scope, final, []

    def _bare_equi_tables(self, predicate, full_scope, table_of):
        """For a bare ``a.x = b.y`` between two different tables, return
        ((table_pos, column), (table_pos, column)); else None."""
        if not isinstance(predicate, BinaryOp) or predicate.op != "=":
            return None
        if not isinstance(predicate.left, ColumnRef) or not isinstance(
            predicate.right, ColumnRef
        ):
            return None
        li = full_scope.resolve(predicate.left)
        ri = full_scope.resolve(predicate.right)
        ta, tb = table_of(li), table_of(ri)
        if ta == tb:
            return None
        return (ta, predicate.left.name), (tb, predicate.right.name)

    def _equi_field_indexes(self, predicate, acc_scope, next_scope):
        """Resolve a bare equi predicate's two sides against the
        accumulated and incoming scopes (either orientation)."""
        left, right = predicate.left, predicate.right
        try:
            return acc_scope.resolve(left), next_scope.resolve(right)
        except SqlPlanError:
            return acc_scope.resolve(right), next_scope.resolve(left)

    def _distinct_of(self, table_ref: TableRef, column: str) -> int:
        stats = self.db.table_statistics(table_ref.name.upper())
        if stats is None:
            return 0
        cs = stats.columns.get(column)
        return cs.distinct if cs is not None else 0

    # -- filtering and expression evaluation ----------------------------

    def _filter(self, rel: Relation, predicate: Expression, scope) -> Relation:
        if rel.length == 0:
            return rel
        mask = kernels.truthy_mask(self._eval_vec(predicate, rel, scope))
        keep = [i for i, hit in enumerate(mask) if hit]
        if len(keep) == rel.length:
            return rel
        return rel.select(keep)

    def _subrel(self, rel: Relation, positions: list[int]) -> Relation:
        if len(positions) == rel.length:
            return rel
        return rel.select(positions)

    def _eval_vec(self, expr: Expression, rel: Relation, scope) -> list:
        """One output value per relation row.  Zero-row relations return
        immediately *without resolving anything*: an expression there is
        no row for is never evaluated, so ``SELECT bogus FROM empty``
        succeeds and a subquery under it never runs."""
        n = rel.length
        if n == 0:
            return []
        if isinstance(expr, Literal):
            return [expr.value] * n
        if isinstance(expr, ColumnRef):
            return rel.column(scope.resolve(expr))
        if isinstance(expr, UnaryOp):
            if expr.op == "NOT":
                inner = self._eval_vec(expr.operand, rel, scope)
                return [not t for t in kernels.truthy_mask(inner)]
            return kernels.negate(self._numeric_vec(expr.operand, rel, scope))
        if isinstance(expr, BinaryOp):
            return self._eval_binary_vec(expr, rel, scope)
        if isinstance(expr, Between):
            value = self._eval_vec(expr.operand, rel, scope)
            low = self._eval_vec(expr.low, rel, scope)
            high = self._eval_vec(expr.high, rel, scope)
            return kernels.between_mask(value, low, high, expr.negated)
        if isinstance(expr, InList):
            values = self._eval_vec(expr.operand, rel, scope)
            if expr.subquery is not None:
                pool = self._once(expr.subquery, _in_pool)
                return kernels.in_mask(values, pool, expr.negated)
            if all(isinstance(i, Literal) for i in expr.items):
                pool = {null_safe_key(i.value) for i in expr.items}
                return kernels.in_mask(values, pool, expr.negated)
            item_cols = [
                self._eval_vec(i, rel, scope) for i in expr.items
            ]
            out = []
            for i, value in enumerate(values):
                pool = {null_safe_key(col[i]) for col in item_cols}
                out.append((null_safe_key(value) in pool) != expr.negated)
            return out
        if isinstance(expr, Like):
            values = self._eval_vec(expr.operand, rel, scope)
            return kernels.like_mask(
                values, _like_to_regex(expr.pattern), expr.negated
            )
        if isinstance(expr, IsNull):
            values = self._eval_vec(expr.operand, rel, scope)
            return kernels.isnull_mask(values, expr.negated)
        if isinstance(expr, CaseExpression):
            return self._eval_case_vec(expr, rel, scope)
        if isinstance(expr, FunctionCall):
            if expr.name in AGGREGATE_FUNCTIONS:
                raise SqlPlanError(
                    f"aggregate {expr.name} outside GROUP BY context"
                )
            func = SCALAR_FUNCTIONS.get(expr.name)
            if func is None:
                raise SqlPlanError(f"unknown function {expr.name!r}")
            arg_cols = [self._eval_vec(a, rel, scope) for a in expr.args]
            if not arg_cols:
                return [func() for __ in range(n)]
            return [func(*cells) for cells in zip(*arg_cols)]
        if isinstance(expr, Star):
            raise SqlPlanError("* is only valid in SELECT or COUNT(*)")
        if isinstance(expr, ScalarSubquery):
            return [self._once(expr.select, _scalar_value)] * n
        raise SqlPlanError(f"unsupported expression {expr!r}")

    def _once(self, select: SelectStatement, derive) -> Any:
        """``derive(result)`` of a nested SELECT, run on first reach and
        memoised — a subquery takes nothing from the outer row, so one
        run answers every row."""
        key = id(select)
        if key not in self._subquery_values:
            self._subquery_values[key] = derive(self._select(select))
        return self._subquery_values[key]

    def _numeric_vec(self, expr: Expression, rel: Relation, scope) -> list:
        """Numeric view of an expression column, reusing the base
        batch's cached view for plain column references."""
        if isinstance(expr, ColumnRef):
            return rel.numeric_column(scope.resolve(expr))
        if isinstance(expr, Literal):
            return [as_number(expr.value)] * rel.length
        return [as_number(v) for v in self._eval_vec(expr, rel, scope)]

    def _eval_binary_vec(self, expr: BinaryOp, rel: Relation, scope) -> list:
        n = rel.length
        if expr.op == "AND":
            left_mask = kernels.truthy_mask(
                self._eval_vec(expr.left, rel, scope)
            )
            out: list = [False] * n
            hits = [i for i, t in enumerate(left_mask) if t]
            if hits:
                right_mask = kernels.truthy_mask(
                    self._eval_vec(expr.right, self._subrel(rel, hits), scope)
                )
                for j, i in enumerate(hits):
                    out[i] = right_mask[j]
            return out
        if expr.op == "OR":
            left_mask = kernels.truthy_mask(
                self._eval_vec(expr.left, rel, scope)
            )
            out = list(left_mask)
            misses = [i for i, t in enumerate(left_mask) if not t]
            if misses:
                right_mask = kernels.truthy_mask(
                    self._eval_vec(
                        expr.right, self._subrel(rel, misses), scope
                    )
                )
                for j, i in enumerate(misses):
                    out[i] = right_mask[j]
            return out
        if expr.op in _COMPARISONS:
            left, right = expr.left, expr.right
            if isinstance(right, Literal) and not isinstance(left, Literal):
                col = self._eval_vec(left, rel, scope)
                return kernels.compare_literal(
                    col, self._numeric_vec(left, rel, scope), expr.op,
                    right.value,
                )
            if isinstance(left, Literal) and not isinstance(right, Literal):
                col = self._eval_vec(right, rel, scope)
                return kernels.compare_literal(
                    col, self._numeric_vec(right, rel, scope),
                    _FLIP[expr.op], left.value,
                )
            lcol = self._eval_vec(left, rel, scope)
            rcol = self._eval_vec(right, rel, scope)
            return kernels.compare_columns(
                lcol,
                self._numeric_vec(left, rel, scope),
                rcol,
                self._numeric_vec(right, rel, scope),
                expr.op,
            )
        return kernels.arithmetic(
            self._numeric_vec(expr.left, rel, scope),
            self._numeric_vec(expr.right, rel, scope),
            expr.op,
        )

    def _eval_case_vec(self, expr: CaseExpression, rel: Relation, scope):
        """CASE, lazily: each branch's condition is only evaluated over
        rows no earlier branch took, and each value only over the rows
        its branch takes — so a value expression that would error on an
        untaken row never sees it."""
        n = rel.length
        out: list = [None] * n
        remaining = list(range(n))
        for condition, value in expr.branches:
            if not remaining:
                break
            sub = self._subrel(rel, remaining)
            mask = kernels.truthy_mask(self._eval_vec(condition, sub, scope))
            taken = [remaining[j] for j, t in enumerate(mask) if t]
            remaining = [remaining[j] for j, t in enumerate(mask) if not t]
            if taken:
                values = self._eval_vec(
                    value, self._subrel(rel, taken), scope
                )
                for j, i in enumerate(taken):
                    out[i] = values[j]
        if expr.default is not None and remaining:
            values = self._eval_vec(
                expr.default, self._subrel(rel, remaining), scope
            )
            for j, i in enumerate(remaining):
                out[i] = values[j]
        return out

    # -- projection -----------------------------------------------------

    def _plain_projection(self, items, scope, rel: Relation):
        columns: list[str] = []
        cols: list[list] = []
        n = rel.length
        for item in items:
            if isinstance(item.expression, Star):
                for idx in scope.star_indexes(item.expression.table):
                    columns.append(scope.fields[idx][1])
                    cols.append(rel.column(idx))
            else:
                columns.append(item.alias or str(item.expression))
                cols.append(self._eval_vec(item.expression, rel, scope))
        out = [[col[i] for col in cols] for i in range(n)]
        return columns, out

    def _grouped_projection(self, stmt, scope, rel: Relation):
        keys = stmt.group_by
        groups: dict[tuple, list[int]] = {}
        if keys:
            key_cols = [self._eval_vec(k, rel, scope) for k in keys]
            for i in range(rel.length):
                sig = tuple(hashable_key(col[i]) for col in key_cols)
                groups.setdefault(sig, []).append(i)
        else:
            groups[()] = list(range(rel.length))

        columns: list[str] = []
        aliases: dict[str, Expression] = {}
        for item in stmt.items:
            if isinstance(item.expression, Star):
                raise SqlPlanError("SELECT * is invalid with GROUP BY")
            columns.append(item.alias or str(item.expression))
            if item.alias:
                aliases[item.alias] = item.expression

        having = (
            _substitute_aliases(stmt.having, aliases)
            if stmt.having is not None
            else None
        )
        out: list[list] = []
        for __, positions in sorted(groups.items(), key=lambda kv: kv[0]):
            if having is not None and not is_truthy(
                self._eval_grouped_vec(having, positions, rel, scope)
            ):
                continue
            out.append(
                [
                    self._eval_grouped_vec(
                        item.expression, positions, rel, scope
                    )
                    for item in stmt.items
                ]
            )
        return columns, out

    def _eval_grouped_vec(self, expr, positions: list[int], rel, scope):
        if isinstance(expr, FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
            return self._eval_aggregate_vec(expr, positions, rel, scope)
        if isinstance(expr, BinaryOp):
            left = self._eval_grouped_vec(expr.left, positions, rel, scope)
            if expr.op == "AND":
                return is_truthy(left) and is_truthy(
                    self._eval_grouped_vec(expr.right, positions, rel, scope)
                )
            if expr.op == "OR":
                return is_truthy(left) or is_truthy(
                    self._eval_grouped_vec(expr.right, positions, rel, scope)
                )
            right = self._eval_grouped_vec(expr.right, positions, rel, scope)
            if expr.op in _COMPARISONS:
                return kernels.compare_columns(
                    [left], [as_number(left)], [right], [as_number(right)],
                    expr.op,
                )[0]
            return kernels.arithmetic(
                [as_number(left)], [as_number(right)], expr.op
            )[0]
        if isinstance(expr, UnaryOp):
            inner = self._eval_grouped_vec(expr.operand, positions, rel, scope)
            if expr.op == "NOT":
                return not is_truthy(inner)
            value = as_number(inner)
            return -value if value is not None else None
        # Non-aggregate leaf: read off the group's first row (it must be
        # functionally dependent on the group key, as in SQL).  An
        # implicit group no row fell into has a representative with no
        # cells: literals and subqueries still evaluate, a column
        # reference has nothing to index (IndexError).
        if isinstance(expr, Literal):
            return expr.value
        if positions and isinstance(expr, ColumnRef):
            return rel.column(scope.resolve(expr))[positions[0]]
        representative = (
            rel.select(positions[:1]) if positions else _one_empty_row()
        )
        return self._eval_vec(expr, representative, scope)[0]

    def _eval_aggregate_vec(self, expr, positions: list[int], rel, scope):
        if expr.name == "COUNT" and (
            not expr.args or isinstance(expr.args[0], Star)
        ):
            return len(positions)
        if len(expr.args) != 1:
            raise SqlPlanError(f"{expr.name} takes exactly one argument")
        cached = self._agg_cache.get(id(expr))
        if cached is None:
            arg = expr.args[0]
            if rel.length == 0:
                cached = ([], None)
            elif isinstance(arg, ColumnRef):
                field = scope.resolve(arg)
                cached = (rel.column(field), rel.numeric_column(field))
            else:
                cached = (self._eval_vec(arg, rel, scope), None)
            self._agg_cache[id(expr)] = cached
        col, col_num = cached
        return kernels.aggregate(
            expr.name, col, col_num, positions, expr.distinct
        )

    # -- ORDER BY -------------------------------------------------------

    def _order(self, stmt, scope, out_columns, out_rows, rel, grouped):
        n = len(out_rows)
        if n == 0:
            return out_rows
        key_cols: list[tuple[list, bool]] = []
        for order in stmt.order_by:
            expr = order.expression
            if (
                isinstance(expr, ColumnRef)
                and expr.table is None
                and expr.name in out_columns
            ):
                idx = out_columns.index(expr.name)
                values = [row[idx] for row in out_rows]
            elif isinstance(expr, Literal) and isinstance(expr.value, int):
                ordinal = expr.value
                if not 1 <= ordinal <= len(out_columns):
                    raise SqlPlanError(
                        f"ORDER BY position {ordinal} out of range"
                    )
                values = [row[ordinal - 1] for row in out_rows]
            elif grouped:
                raise SqlPlanError(
                    "ORDER BY on grouped queries must reference output columns"
                )
            else:
                # Base-expression keys are evaluated against base
                # positions 0..n-1: output row i sorts by base row i,
                # also after DISTINCT shrank the output (pinned by
                # tests/test_sql_executor.py).
                sub = self._subrel(rel, list(range(n)))
                values = self._eval_vec(expr, sub, scope)
            key_cols.append((values, order.ascending))
        decorated = sorted(
            range(n),
            key=lambda i: [
                sort_key(values[i], asc) for values, asc in key_cols
            ],
        )
        return [out_rows[i] for i in decorated]


def _hash_pairs(
    probe_col: list, build_col: list, probe_is_left: bool
) -> list[tuple[int, int]]:
    """Hash-join candidate pairs with NULL keys excluded on both sides;
    pair tuples are always (left position, right position) regardless of
    which side was the build."""
    index: dict[Any, list[int]] = {}
    for bi, value in enumerate(build_col):
        if not is_null(value):
            index.setdefault(null_safe_key(value), []).append(bi)
    pairs: list[tuple[int, int]] = []
    append = pairs.append
    for pi, value in enumerate(probe_col):
        if is_null(value):
            continue
        for bi in index.get(null_safe_key(value), ()):
            append((pi, bi) if probe_is_left else (bi, pi))
    return pairs


__all__ = ["VectorizedExecutor"]
