"""SQL catalog, scan planning and EXPLAIN.

:class:`Database` holds the registered tables and their column loaders,
derives each statement's scan pushdown hints, and runs the parsed
:class:`~repro.query.sql.ast.SelectStatement` through the column-batch
executor (:mod:`repro.query.sql.vectorized`).  Plan shape follows the
classic pipeline: FROM (scans + joins, hash-join for equi-conditions)
-> WHERE -> GROUP BY/aggregate -> HAVING -> projection -> DISTINCT ->
ORDER BY -> LIMIT.

Value semantics: table cells are strings; comparisons coerce both sides
to numbers when both parse, otherwise compare as strings.  Empty string
and ``NULL`` are null: they fail every comparison and are skipped by
aggregates, matching SQL's three-valued logic closely enough for the
paper's workloads.  Correlated subqueries are not supported.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import QueryDeadlineError, QueryError, SqlPlanError
from repro.query.sql.ast import (
    Between,
    CaseExpression,
    BinaryOp,
    ColumnRef,
    Expression,
    FromItem,
    FunctionCall,
    InList,
    IsNull,
    Join,
    Like,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
    contains_aggregate,
)
from repro.query.sql.cost import (
    PUSHDOWN_USELESS_AT,
    JoinEdge,
    TableStats,
    choose_join_order,
    predicate_selectivity,
)
from repro.query.sql.parser import parse_sql
from repro.query.sql.planner import (
    _simple_comparison,
    collect_column_names,
    extract_scan_predicates,
    scan_table_bindings,
)


@dataclass(frozen=True)
class _ScanSource:
    """A framework-backed table registered for query-time scanning."""

    framework: Any
    table: str
    first_epoch: int
    last_epoch: int
    partial_ok: bool


@dataclass
class QueryResult:
    """Materialized result of a query."""

    columns: list[str]
    rows: list[list[Any]]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[Any]:
        """One output column by name."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise QueryError(f"result has no column {name!r}") from None
        return [row[idx] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]


@dataclass
class _Scope:
    """Resolved (binding, column) schema of an intermediate row set."""

    fields: list[tuple[Optional[str], str]] = field(default_factory=list)

    def resolve(self, ref: ColumnRef) -> int:
        """Index of the field a column reference binds to."""
        matches = [
            i
            for i, (binding, column) in enumerate(self.fields)
            if column == ref.name and (ref.table is None or binding == ref.table)
        ]
        if not matches:
            raise SqlPlanError(f"unknown column {ref}")
        if len(matches) > 1 and ref.table is None:
            raise SqlPlanError(f"ambiguous column {ref.name!r}")
        return matches[0]

    def star_indexes(self, table: Optional[str]) -> list[int]:
        """Field indexes expanded by ``*`` or ``table.*``."""
        idx = [
            i
            for i, (binding, __) in enumerate(self.fields)
            if table is None or binding == table
        ]
        if not idx:
            raise SqlPlanError(f"no columns for {table!r}.*")
        return idx


class Database:
    """A named-table catalog plus the query executor."""

    def __init__(self) -> None:
        self._tables: dict[str, tuple[list[str], Callable[[], list[list[str]]]]] = {}
        #: table name -> coverage of the framework scan that fed it
        #: (populated by ``register_framework(..., partial_ok=True)``).
        self.scan_coverage: dict[str, dict] = {}
        #: table name -> read-path stats of its last framework scan
        #: (populated by tables registered via
        #: :meth:`register_framework_scan`).
        self.scan_stats: dict[str, Any] = {}
        self._deadline_expires: float | None = None
        self._scans: dict[str, _ScanSource] = {}
        #: per-query pushdown hints: table -> (predicates, columns).
        self._scan_hints: dict[str, tuple[list, Optional[set[str]]]] = {}
        self._stage_marks: list[tuple[str, float]] | None = None
        #: table name -> zero-copy column loader (frameworks exposing
        #: ``read_columns`` feed batches without row materialization).
        self._batch_loaders: dict[str, Callable[[], Any]] = {}
        #: Materialized tables keep their transposed ColumnBatch (and
        #: its memoized numeric/null views) across queries; scan-backed
        #: tables never land here — their batches depend on per-query
        #: pushdown hints.
        self._batch_cache: dict[str, Any] = {}
        self._batch_cacheable: set[str] = set()
        #: table name -> lazy TableStats provider / memoized result.
        self._stats_providers: dict[str, Callable[[], Any]] = {}
        self._stats_cache: dict[str, Any] = {}
        #: Cardinality/plan records from the last execution.
        self.last_profile: list[dict] = []
        #: Optional WarehouseMetrics sink for the SQL query counters.
        self.metrics: Any = None

    def register_table(
        self, name: str, columns: list[str], rows: list[list[str]]
    ) -> None:
        """Register a materialized table (name lookup is case-insensitive).

        Rows are treated as immutable once registered — the executor
        caches their columnar transpose; re-register to replace.
        """
        materialized = rows
        upper = name.upper()
        self._tables[upper] = (list(columns), lambda: materialized)
        self._batch_loaders.pop(upper, None)
        self._batch_cache.pop(upper, None)
        self._batch_cacheable.add(upper)
        self._stats_cache.pop(upper, None)
        self._stats_providers[upper] = lambda: TableStats(rows=len(materialized))

    def register_lazy_table(
        self, name: str, columns: list[str], loader: Callable[[], list[list[str]]]
    ) -> None:
        """Register a table whose rows load on first scan (e.g. from a
        framework's compressed storage)."""
        upper = name.upper()
        self._tables[upper] = (list(columns), loader)
        self._batch_loaders.pop(upper, None)
        self._batch_cache.pop(upper, None)
        self._batch_cacheable.discard(upper)
        self._stats_providers.pop(upper, None)
        self._stats_cache.pop(upper, None)

    def register_framework(
        self,
        framework,
        tables: list[str],
        first_epoch: int,
        last_epoch: int,
        partial_ok: bool = False,
    ) -> None:
        """Expose a framework's stored tables over an epoch window.

        With ``partial_ok``, unreadable epochs are skipped rather than
        failing registration; per-table scan coverage (epochs served /
        skipped with reasons) lands in :attr:`scan_coverage`.
        """
        for table in tables:
            columns, rows = framework.read_rows(
                table, first_epoch, last_epoch, partial_ok=partial_ok
            )
            self.scan_coverage[table.upper()] = dict(
                getattr(framework, "last_scan_coverage", {}) or {}
            )
            if columns:
                self.register_table(table, columns, rows)

    def register_framework_scan(
        self,
        framework,
        tables: list[str],
        first_epoch: int,
        last_epoch: int,
        partial_ok: bool = False,
    ) -> None:
        """Lazy variant of :meth:`register_framework`.

        Rows load at *query* time instead of registration time, which
        lets the executor push each statement's scan hints — simple
        WHERE predicates and the set of referenced columns — into the
        framework scan, where they prune whole leaves via day summaries
        and skip decoding unused columns.  Pushed predicates are still
        re-applied row-wise by the executor, so the hints only have to
        be conservative.
        """
        for table in tables:
            columns = framework.table_columns(table, first_epoch, last_epoch)
            if not columns:
                continue
            upper = table.upper()
            source = _ScanSource(
                framework, table, first_epoch, last_epoch, partial_ok
            )
            self._scans[upper] = source

            def loader(source=source, upper=upper):
                predicates, projected = self._scan_hints.get(
                    upper, ([], None)
                )
                __, rows = source.framework.read_rows(
                    source.table,
                    source.first_epoch,
                    source.last_epoch,
                    partial_ok=source.partial_ok,
                    predicates=predicates,
                    columns=projected,
                )
                self.scan_coverage[upper] = dict(
                    getattr(source.framework, "last_scan_coverage", {}) or {}
                )
                stats = getattr(source.framework, "last_scan_stats", None)
                if stats is not None:
                    self.scan_stats[upper] = stats
                return rows

            self._tables[upper] = (list(columns), loader)
            self._batch_loaders.pop(upper, None)
            self._batch_cache.pop(upper, None)
            self._batch_cacheable.discard(upper)
            self._stats_providers.pop(upper, None)
            self._stats_cache.pop(upper, None)

            if hasattr(framework, "read_columns"):

                def batch_loader(source=source, upper=upper):
                    from repro.query.sql.batch import ColumnBatch

                    predicates, projected = self._scan_hints.get(
                        upper, ([], None)
                    )
                    out_columns, data = source.framework.read_columns(
                        source.table,
                        source.first_epoch,
                        source.last_epoch,
                        partial_ok=source.partial_ok,
                        predicates=predicates,
                        columns=projected,
                    )
                    self.scan_coverage[upper] = dict(
                        getattr(
                            source.framework, "last_scan_coverage", {}
                        )
                        or {}
                    )
                    stats = getattr(
                        source.framework, "last_scan_stats", None
                    )
                    if stats is not None:
                        self.scan_stats[upper] = stats
                    return ColumnBatch.from_columns(out_columns, data)

                self._batch_loaders[upper] = batch_loader

            if hasattr(framework, "table_statistics"):
                self._stats_providers[upper] = (
                    lambda source=source: source.framework.table_statistics(
                        source.table, source.first_epoch, source.last_epoch
                    )
                )

    def table_names(self) -> list[str]:
        """Registered table names, sorted."""
        return sorted(self._tables)

    def table_statistics(self, name: str) -> Optional[TableStats]:
        """Planner statistics for a table (memoized), or None when no
        provider is registered or the provider fails.  Providers are
        summary-backed — fetching statistics never runs a scan."""
        upper = name.upper()
        if upper in self._stats_cache:
            return self._stats_cache[upper]
        provider = self._stats_providers.get(upper)
        stats = None
        if provider is not None:
            try:
                stats = provider()
            except Exception:
                stats = None  # advisory only; never fail a query for stats
        self._stats_cache[upper] = stats
        return stats

    def _load_batch(self, upper: str):
        """Column batch for one base table: the framework's column path
        when registered, else one transpose of the row loader's output."""
        from repro.query.sql.batch import ColumnBatch

        batch_loader = self._batch_loaders.get(upper)
        if batch_loader is not None:
            return batch_loader()
        cached = self._batch_cache.get(upper)
        if cached is not None:
            return cached
        columns, loader = self._tables[upper]
        batch = ColumnBatch.from_rows(columns, loader())
        if upper in self._batch_cacheable:
            # The transpose and its numeric/null views now amortize
            # across every later query over this table.
            self._batch_cache[upper] = batch
        return batch

    def execute(
        self,
        sql: str | SelectStatement,
        deadline_ms: int | None = None,
    ) -> QueryResult:
        """Parse (if needed) and run a SELECT statement.

        Args:
            deadline_ms: optional wall-clock budget; the executor checks
                it at stage boundaries (scan/join, aggregation, sort)
                and raises :class:`~repro.errors.QueryDeadlineError`
                when exceeded.
        """
        from repro.query.sql.vectorized import VectorizedExecutor

        statement = parse_sql(sql) if isinstance(sql, str) else sql
        self.last_profile = []
        self._plan_scan_hints(statement)
        if deadline_ms is not None and deadline_ms > 0:
            self._deadline_expires = time.monotonic() + deadline_ms / 1000.0
        try:
            engine = VectorizedExecutor(self)
            result = engine.execute(statement)
            self.last_profile = engine.profile
        finally:
            self._deadline_expires = None
            self._scan_hints = {}
        if self.metrics is not None:
            self.metrics.on_sql_execution(len(result.rows))
        return result

    def _plan_scan_hints(self, stmt: SelectStatement) -> None:
        """Derive per-table pushdown hints for scan-registered tables.

        Predicates are pushed for a table only when the whole statement
        (including unions and subqueries) references it exactly once —
        the scan loader runs once per reference, and a predicate from
        one reference must not prune another's rows.  The projected
        column set is global, so it is always safe to share.
        """
        self._scan_hints = {}
        if not self._scans:
            return
        from repro.query.sql.planner import all_select_statements

        selects = all_select_statements(stmt)
        columns = collect_column_names(stmt)
        counts: dict[str, int] = {}
        predicates: dict[str, list] = {}
        for select in selects:
            for table in scan_table_bindings(select.from_item).values():
                counts[table] = counts.get(table, 0) + 1
            for table, found in extract_scan_predicates(select).items():
                predicates.setdefault(table, []).extend(found)
        for upper in self._scans:
            pushed = (
                predicates.get(upper, [])
                if counts.get(upper, 0) == 1
                else []
            )
            if pushed:
                # Pruned-scan vs full-scan: a predicate estimated to keep
                # nearly every row can't prune any leaf or zone, so
                # carrying it into the scan is per-leaf overhead for
                # nothing.  (Pushed predicates are re-applied row-wise
                # either way, so dropping one never changes answers.)
                stats = self.table_statistics(upper)
                if stats is not None:
                    pushed = [
                        p
                        for p in pushed
                        if predicate_selectivity(stats, p.column, p.op, p.value)
                        < PUSHDOWN_USELESS_AT
                    ]
            self._scan_hints[upper] = (pushed, columns)

    def _check_deadline(self, stage: str) -> None:
        if self._stage_marks is not None:
            self._stage_marks.append((stage, time.perf_counter()))
        if (
            self._deadline_expires is not None
            and time.monotonic() >= self._deadline_expires
        ):
            raise QueryDeadlineError(
                f"SQL query exceeded its deadline during {stage}"
            )

    def explain(self, sql: str | SelectStatement) -> str:
        """Describe the execution plan without running the query.

        Shows scan sources with pushed-down predicates, the join
        strategy (hash vs nested-loop), and the post-FROM pipeline
        stages — the shape a Hive EXPLAIN would print.
        """
        stmt = parse_sql(sql) if isinstance(sql, str) else sql
        if stmt.unions:
            import copy

            head = copy.copy(stmt)
            head.unions = []
            head.order_by = []
            head.limit = None
            lines = []
            if stmt.limit is not None:
                lines.append(f"Limit [{stmt.limit}]")
            if stmt.order_by:
                keys = ", ".join(str(o.expression) for o in stmt.order_by)
                lines.append(f"Sort [{keys}]")
            mode = (
                "UnionAll"
                if all(keep for __, keep in stmt.unions)
                else "Union (distinct)"
            )
            lines.append(f"{mode} [{len(stmt.unions) + 1} branches]")
            for branch in [head] + [b for b, __ in stmt.unions]:
                for line in self.explain(branch).splitlines():
                    lines.append("  " + line)
            return "\n".join(lines)
        lines = []
        if stmt.limit is not None:
            lines.append(f"Limit [{stmt.limit}]")
        if stmt.order_by:
            keys = ", ".join(
                f"{o.expression} {'ASC' if o.ascending else 'DESC'}"
                for o in stmt.order_by
            )
            lines.append(f"Sort [{keys}]")
        if stmt.distinct:
            lines.append("Distinct")
        grouped = bool(stmt.group_by) or stmt.having is not None or any(
            contains_aggregate(i.expression) for i in stmt.items
        )
        projection = ", ".join(
            (i.alias or str(i.expression)) for i in stmt.items
        )
        if grouped:
            keys = ", ".join(str(k) for k in stmt.group_by) or "<all>"
            lines.append(f"HashAggregate [keys: {keys}] -> [{projection}]")
            if stmt.having is not None:
                lines.append(f"  Having [{stmt.having}]")
        else:
            lines.append(f"Project [{projection}]")
        if stmt.from_item is not None:
            conjuncts = [
                c for c in _split_conjuncts(stmt.where)
                if not contains_aggregate(c)
            ]
            residual = self._explain_from(stmt.from_item, conjuncts, lines, 1)
            for predicate in residual:
                lines.insert(
                    len(lines), f"  Filter (post-join) [{predicate}]"
                )
            order_line = self._explain_join_order(stmt)
            if order_line is not None:
                lines.append(order_line)
        return "\n".join(lines)

    def explain_analyze(
        self, sql: str | SelectStatement, deadline_ms: int | None = None
    ) -> tuple[QueryResult, str]:
        """Run the query and report the plan with actual execution data.

        Returns the result plus a report combining :meth:`explain`'s
        plan with per-stage wall-clock timings and, for tables
        registered via :meth:`register_framework_scan`, the scan's
        read-path stats (leaves pruned, cache hits, bytes decompressed,
        decode parallelism).
        """
        stmt = parse_sql(sql) if isinstance(sql, str) else sql
        self._stage_marks = [("start", time.perf_counter())]
        try:
            result = self.execute(stmt, deadline_ms)
            self._stage_marks.append(("finish", time.perf_counter()))
            marks = self._stage_marks
        finally:
            self._stage_marks = None
        lines = [self.explain(stmt), "", f"Actual: {len(result.rows)} rows"]
        for entry in self.last_profile:
            if "note" in entry:
                lines.append(f"  plan {entry['label']}: {entry['note']}")
            else:
                est = (
                    "?"
                    if entry.get("est") is None
                    else f"~{entry['est']:.0f}"
                )
                lines.append(
                    f"  cardinality {entry['label']}: "
                    f"est {est}, actual {entry['actual']} rows"
                )
        prev_at = marks[0][1]
        for stage, at in marks[1:]:
            label = "output" if stage == "finish" else stage
            lines.append(f"  stage {label}: +{(at - prev_at) * 1000:.2f} ms")
            prev_at = at
        total = marks[-1][1] - marks[0][1]
        lines.append(f"  total: {total * 1000:.2f} ms")
        for table in sorted(self.scan_stats):
            stats = self.scan_stats[table]
            lines.append(f"  scan {table}: {stats.describe()}")
        for table in sorted(self.scan_coverage):
            coverage = self.scan_coverage[table]
            pruned = coverage.get("epochs_pruned")
            if pruned:
                lines.append(
                    f"  scan {table}: {len(pruned)} epochs pruned "
                    "(summary or zone map)"
                )
            skipped = coverage.get("shards_skipped")
            if skipped:
                detail = ", ".join(
                    f"{shard}={reason}" for shard, reason in sorted(skipped.items())
                )
                lines.append(
                    f"  scan {table}: {len(skipped)} shard slices skipped "
                    f"({detail})"
                )
            routed = coverage.get("groups_routed")
            if routed:
                listed = ", ".join(f"g{group}" for group in sorted(routed))
                lines.append(
                    f"  scan {table}: {len(routed)} groups routed away "
                    f"({listed})"
                )
        return result, "\n".join(lines)

    def _explain_from(
        self,
        item: FromItem,
        conjuncts: list[Expression],
        lines: list[str],
        depth: int,
    ) -> list[Expression]:
        pad = "  " * depth
        if isinstance(item, Join):
            equi = None
            try:
                left_scope = self._scope_of(item.left)
                right_scope = self._scope_of(item.right)
                equi = self._equi_join_keys(item.condition, left_scope, right_scope)
            except SqlPlanError:
                pass
            strategy = "HashJoin" if equi is not None else "NestedLoopJoin"
            if item.kind == "cross":
                strategy = "CrossJoin"
            lines.append(f"{pad}{strategy} [{item.condition or 'true'}]")
            if item.kind != "left":
                conjuncts = self._explain_from(item.left, conjuncts, lines, depth + 1)
                conjuncts = self._explain_from(item.right, conjuncts, lines, depth + 1)
                return conjuncts
            self._explain_from(item.left, [], lines, depth + 1)
            self._explain_from(item.right, [], lines, depth + 1)
            return conjuncts
        scope = self._scope_of(item)
        pushed = [c for c in conjuncts if self._resolvable(c, scope)]
        leftover = [c for c in conjuncts if not self._resolvable(c, scope)]
        label = (
            f"Scan {item.name}" + (f" AS {item.alias}" if item.alias else "")
            if isinstance(item, TableRef)
            else f"Subquery AS {item.alias}"
        )
        suffix = (
            " pushed: [" + " AND ".join(str(p) for p in pushed) + "]"
            if pushed
            else ""
        )
        est = ""
        if isinstance(item, TableRef):
            stats = self.table_statistics(item.name)
            if stats is not None:
                fraction = 1.0
                for predicate in pushed:
                    simple = _simple_comparison(predicate)
                    if simple is not None:
                        ref, op, value = simple
                        fraction *= predicate_selectivity(
                            stats, ref.name, op, value
                        )
                est = f" est=~{stats.rows * fraction:.0f} rows"
        lines.append(f"{pad}{label}{suffix}{est}")
        return leftover

    def _explain_join_order(self, stmt: SelectStatement) -> Optional[str]:
        """The cost-based join order line for a flattenable inner/cross
        tree of base tables with statistics, or None.  Static: reads
        only catalog schemas and summary statistics, never a loader."""
        item = stmt.from_item
        if not isinstance(item, Join):
            return None
        tables: list[TableRef] = []
        pooled: list[Expression] = []

        def walk(node: FromItem) -> bool:
            if isinstance(node, Join) and node.kind in ("inner", "cross"):
                if not walk(node.left) or not walk(node.right):
                    return False
                if node.condition is not None:
                    pooled.extend(_split_conjuncts(node.condition))
                return True
            if isinstance(node, TableRef):
                tables.append(node)
                return True
            return False

        if not walk(item):
            return None
        if len(tables) < 2:
            return None
        if len({t.binding for t in tables}) != len(tables):
            return None
        for t in tables:
            if t.name.upper() not in self._tables:
                return None
        pooled.extend(
            c
            for c in _split_conjuncts(stmt.where)
            if not contains_aggregate(c)
        )
        all_stats = [self.table_statistics(t.name) for t in tables]
        if any(s is None for s in all_stats):
            return None

        def owner(ref: ColumnRef) -> Optional[int]:
            matches = [
                pos
                for pos, t in enumerate(tables)
                if ref.name in self._tables[t.name.upper()][0]
                and (ref.table is None or ref.table == t.binding)
            ]
            return matches[0] if len(matches) == 1 else None

        sizes = [float(s.rows) for s in all_stats]
        edges: list[JoinEdge] = []
        for predicate in pooled:
            if (
                isinstance(predicate, BinaryOp)
                and predicate.op == "="
                and isinstance(predicate.left, ColumnRef)
                and isinstance(predicate.right, ColumnRef)
            ):
                ta = owner(predicate.left)
                tb = owner(predicate.right)
                if ta is not None and tb is not None and ta != tb:
                    ca = all_stats[ta].columns.get(predicate.left.name)
                    cb = all_stats[tb].columns.get(predicate.right.name)
                    edges.append(
                        JoinEdge(
                            left=ta,
                            right=tb,
                            left_distinct=ca.distinct if ca else 0,
                            right_distinct=cb.distinct if cb else 0,
                        )
                    )
                    continue
            simple = _simple_comparison(predicate)
            if simple is not None:
                ref, op, value = simple
                pos = owner(ref)
                if pos is not None:
                    sizes[pos] *= predicate_selectivity(
                        all_stats[pos], ref.name, op, value
                    )
        plan = choose_join_order(sizes, edges)
        parts = [tables[plan.order[0]].binding or tables[plan.order[0]].name]
        for pos, side, est_rows in zip(
            plan.order[1:], plan.build_sides, plan.step_rows[1:]
        ):
            name = tables[pos].binding or tables[pos].name
            parts.append(f"{name}(build={side}, est=~{est_rows:.0f})")
        return "JoinOrder [" + " -> ".join(parts) + "] (cost-based)"

    def _scope_of(self, item: FromItem) -> _Scope:
        """Schema of a FROM source, derived statically (no row access)."""
        if isinstance(item, TableRef):
            upper = item.name.upper()
            if upper not in self._tables:
                raise SqlPlanError(f"unknown table {item.name!r}")
            columns, __ = self._tables[upper]
            return _Scope(fields=[(item.binding, c) for c in columns])
        if isinstance(item, SubqueryRef):
            columns = self._static_columns(item.select)
            return _Scope(fields=[(item.alias, c) for c in columns])
        if isinstance(item, Join):
            left = self._scope_of(item.left)
            right = self._scope_of(item.right)
            return _Scope(fields=left.fields + right.fields)
        raise SqlPlanError(f"unsupported FROM item {item!r}")

    def _static_columns(self, stmt: SelectStatement) -> list[str]:
        """Output column names of a statement without executing it."""
        columns: list[str] = []
        scope = (
            self._scope_of(stmt.from_item)
            if stmt.from_item is not None
            else _Scope()
        )
        for item in stmt.items:
            if isinstance(item.expression, Star):
                for idx in scope.star_indexes(item.expression.table):
                    columns.append(scope.fields[idx][1])
            else:
                columns.append(item.alias or str(item.expression))
        return columns

    def _resolvable(self, expr: Expression, scope: _Scope) -> bool:
        """True when every column reference in ``expr`` binds uniquely in
        ``scope`` (subqueries are self-contained and always fine)."""
        if isinstance(expr, ColumnRef):
            try:
                scope.resolve(expr)
                return True
            except SqlPlanError:
                return False
        if isinstance(expr, Star):
            return False
        if isinstance(expr, BinaryOp):
            return self._resolvable(expr.left, scope) and self._resolvable(
                expr.right, scope
            )
        if isinstance(expr, UnaryOp):
            return self._resolvable(expr.operand, scope)
        if isinstance(expr, Between):
            return all(
                self._resolvable(e, scope)
                for e in (expr.operand, expr.low, expr.high)
            )
        if isinstance(expr, InList):
            return self._resolvable(expr.operand, scope) and all(
                self._resolvable(i, scope) for i in expr.items
            )
        if isinstance(expr, (Like, IsNull)):
            return self._resolvable(expr.operand, scope)
        if isinstance(expr, FunctionCall):
            return all(self._resolvable(a, scope) for a in expr.args)
        if isinstance(expr, CaseExpression):
            parts = [e for pair in expr.branches for e in pair]
            if expr.default is not None:
                parts.append(expr.default)
            return all(self._resolvable(e, scope) for e in parts)
        return True  # literals, scalar subqueries

    @staticmethod
    def _equi_join_keys(
        condition: Optional[Expression], left: _Scope, right: _Scope
    ) -> Optional[tuple[int, int]]:
        """Detect ``a.x = b.y`` so the join can hash instead of loop."""
        if not isinstance(condition, BinaryOp) or condition.op != "=":
            return None
        if not isinstance(condition.left, ColumnRef) or not isinstance(
            condition.right, ColumnRef
        ):
            return None
        try:
            li = left.resolve(condition.left)
            ri = right.resolve(condition.right)
            return li, ri
        except SqlPlanError:
            pass
        try:
            li = left.resolve(condition.right)
            ri = right.resolve(condition.left)
            return li, ri
        except SqlPlanError:
            return None


def _split_conjuncts(expr: Optional[Expression]) -> list[Expression]:
    """Flatten a WHERE tree of ANDs into its conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _substitute_aliases(
    expr: Expression, aliases: dict[str, Expression]
) -> Expression:
    """Replace bare select-alias references in HAVING with their
    expressions (the common MySQL-style convenience)."""
    if isinstance(expr, ColumnRef) and expr.table is None and expr.name in aliases:
        return aliases[expr.name]
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            op=expr.op,
            left=_substitute_aliases(expr.left, aliases),
            right=_substitute_aliases(expr.right, aliases),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(op=expr.op, operand=_substitute_aliases(expr.operand, aliases))
    if isinstance(expr, Between):
        return Between(
            operand=_substitute_aliases(expr.operand, aliases),
            low=_substitute_aliases(expr.low, aliases),
            high=_substitute_aliases(expr.high, aliases),
            negated=expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            operand=_substitute_aliases(expr.operand, aliases),
            items=tuple(_substitute_aliases(i, aliases) for i in expr.items),
            subquery=expr.subquery,
            negated=expr.negated,
        )
    return expr


def _like_to_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)
