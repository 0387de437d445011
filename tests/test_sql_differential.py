"""Differential SQL harness: production engine vs the naive reference.

Seeded specs (filters, GROUP BY, equi-joins, LIMIT, subqueries in FROM /
IN / scalar position) are rendered to SQL
and run through ``Database.execute`` against the *warehouse scan path*
— predicate pushdown, day-summary pruning, column projection, and
parallel leaf decode all active — then evaluated independently by the
naive engine in :mod:`tests.sql_reference` over plainly materialized
rows.  The answers must match exactly, rows and order.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core import Spate, SpateConfig
from repro.core.config import ShardConfig
from repro.engine.executor import get_executor
from repro.shard import ShardedSpate
from repro.telco import TelcoTraceGenerator, TraceConfig

from tests.sql_reference import (
    Agg,
    CaseSpec,
    Filter,
    InSubquery,
    JoinSpec,
    OrderSpec,
    QuerySpec,
    ScalarCompare,
    evaluate,
    render_sql,
)

#: Per-table column pools the fuzzer draws from.
NUMERIC_COLUMNS = {
    "CDR": ["duration_s", "upflux", "downflux"],
    "NMS": ["val", "drops", "throughput_kbps", "latency_ms", "attempts"],
}
STRING_COLUMNS = {
    "CDR": ["call_type", "tech", "result", "cell_id"],
    "NMS": ["kpi", "cellid"],
}
#: How each table equi-joins the CELL dimension table.
JOIN_TO_CELL = {
    "CDR": JoinSpec("CELL", "cell_id", "cell_id"),
    "NMS": JoinSpec("CELL", "cellid", "cell_id"),
}
AGG_FUNCS = ["COUNT", "SUM", "AVG", "MIN", "MAX"]
OPS = ["=", "!=", "<", "<=", ">", ">="]


@pytest.fixture(scope="module")
def harness():
    """One day of trace, queried through pruning + parallel decode."""
    trace = TraceConfig(scale=0.002, days=2, seed=99)
    generator = TelcoTraceGenerator(trace)
    spate = Spate(SpateConfig(codec="gzip-ref"))
    spate.register_cells(generator.cells_table())
    for epoch in range(48):
        spate.ingest(generator.snapshot(epoch))
    spate.finalize()
    # Materialize the reference relations BEFORE enabling pruning, via
    # the plain hint-free scan (never pruned, never projected).
    tables = {
        name: spate.read_rows(name, 0, 47) for name in ("CDR", "NMS")
    }
    cell_columns = ["cell_id", "x", "y"]
    cell_rows = [
        [cell_id, f"{p.x:.1f}", f"{p.y:.1f}"]
        for cell_id, p in spate.cell_locations.items()
    ]
    tables["CELL"] = (cell_columns, cell_rows)

    spate.config = dataclasses.replace(
        spate.config, executor="thread", query_pruning=True
    )
    spate.executor = get_executor("thread", workers=2)
    db = spate.sql_database()
    db.register_table("CELL", cell_columns, cell_rows)
    return spate, db, tables


def _sample_literal(rng: random.Random, tables, table: str, column: str, numeric: bool):
    """Draw a literal from the column's real values (real selectivity)."""
    columns, rows = tables[table]
    idx = columns.index(column)
    values = [r[idx] for r in rows if r[idx] != ""] or ["0"]
    value = rng.choice(values)
    if numeric:
        try:
            return int(value) + rng.choice([-1, 0, 0, 1])
        except ValueError:
            return 0
    return value


def _random_filters(rng, tables, table: str, count: int) -> tuple[Filter, ...]:
    filters = []
    for __ in range(count):
        if rng.random() < 0.6:
            column = rng.choice(NUMERIC_COLUMNS[table])
            op = rng.choice(OPS)
            value = _sample_literal(rng, tables, table, column, numeric=True)
        else:
            column = rng.choice(STRING_COLUMNS[table])
            op = rng.choice(["=", "!="])
            value = _sample_literal(rng, tables, table, column, numeric=False)
        filters.append(Filter(table, column, op, value))
    return tuple(filters)


def random_spec(seed: int, tables) -> QuerySpec:
    """One constrained query; the kind round-robins so every seed batch
    covers filters, GROUP BY, joins, and LIMIT."""
    rng = random.Random(seed)
    table = rng.choice(["CDR", "NMS"])
    kind = ["plain", "grouped", "join", "limit"][seed % 4]
    filters = _random_filters(rng, tables, table, rng.randint(0, 2))

    if kind == "grouped":
        key = rng.choice(STRING_COLUMNS[table])
        aggs = [Agg("COUNT")]
        for __ in range(rng.randint(1, 2)):
            func = rng.choice(AGG_FUNCS)
            column = rng.choice(NUMERIC_COLUMNS[table])
            aggs.append(Agg(func, column))
        return QuerySpec(
            table=table,
            select=((table, key),),
            aggs=tuple(aggs),
            filters=filters,
            group_by=(key,),
        )

    if kind == "join":
        join = JOIN_TO_CELL[table]
        select = (
            (table, rng.choice(STRING_COLUMNS[table])),
            (table, rng.choice(NUMERIC_COLUMNS[table])),
            ("CELL", rng.choice(["x", "y", "cell_id"])),
        )
        return QuerySpec(
            table=table,
            select=select,
            filters=filters,
            join=dataclasses.replace(
                join, kind=rng.choice(["inner", "left"])
            ),
        )

    select = tuple(
        (table, c)
        for c in rng.sample(
            NUMERIC_COLUMNS[table] + STRING_COLUMNS[table], rng.randint(1, 3)
        )
    )
    limit = rng.randint(1, 40) if kind == "limit" else None
    return QuerySpec(table=table, select=select, filters=filters, limit=limit)


#: Three-table join chains (base -> CELL -> other fact table).
CHAINS = {
    "CDR": (
        JoinSpec("CELL", "cell_id", "cell_id"),
        JoinSpec("NMS", "cell_id", "cellid", left_table="CELL"),
    ),
    "NMS": (
        JoinSpec("CELL", "cellid", "cell_id"),
        JoinSpec("CDR", "cell_id", "cell_id", left_table="CELL"),
    ),
}

V2_KINDS = [
    "multijoin",
    "implicit",
    "having",
    "grouped_order",
    "order_limit",
    "case",
    "union",
    "union_all_order",
]


def random_spec_v2(seed: int, tables) -> QuerySpec:
    """Second-generation specs: multi-table joins (explicit and comma
    form, exercising the cost-based reorder), HAVING, ORDER BY + LIMIT
    ties, CASE projections, and UNION chains."""
    rng = random.Random(seed)
    table = rng.choice(["CDR", "NMS"])
    other = "NMS" if table == "CDR" else "CDR"
    kind = V2_KINDS[seed % len(V2_KINDS)]
    filters = _random_filters(rng, tables, table, rng.randint(1, 2))

    if kind in ("multijoin", "implicit"):
        # Keep the three-way join bounded: an equality filter on the
        # other fact table rides along with the base filters.
        other_col = rng.choice(STRING_COLUMNS[other])
        other_val = _sample_literal(rng, tables, other, other_col, False)
        filters = filters + (Filter(other, other_col, "=", other_val),)
        if rng.random() < 0.5:
            key = rng.choice(STRING_COLUMNS[table])
            return QuerySpec(
                table=table,
                select=((table, key),),
                aggs=(Agg("COUNT"), Agg("SUM", rng.choice(NUMERIC_COLUMNS[table]))),
                filters=filters,
                joins=CHAINS[table],
                group_by=(key,),
                implicit_join=kind == "implicit",
            )
        return QuerySpec(
            table=table,
            select=(
                (table, rng.choice(STRING_COLUMNS[table])),
                ("CELL", rng.choice(["x", "y"])),
                (other, rng.choice(NUMERIC_COLUMNS[other])),
            ),
            filters=filters,
            joins=CHAINS[table],
            limit=rng.randint(5, 60),
            implicit_join=kind == "implicit",
        )

    if kind == "having":
        key = rng.choice(STRING_COLUMNS[table])
        return QuerySpec(
            table=table,
            select=((table, key),),
            aggs=(Agg("COUNT"), Agg(rng.choice(["SUM", "AVG", "MAX"]),
                                    rng.choice(NUMERIC_COLUMNS[table]))),
            filters=filters,
            group_by=(key,),
            having=(("a0", rng.choice([">", ">=", "<="]), rng.randint(1, 30)),),
        )

    if kind == "grouped_order":
        key = rng.choice(STRING_COLUMNS[table])
        return QuerySpec(
            table=table,
            select=((table, key),),
            aggs=(Agg("COUNT"), Agg("MIN", rng.choice(NUMERIC_COLUMNS[table]))),
            filters=filters,
            group_by=(key,),
            order_by=(OrderSpec("a0", ascending=rng.random() < 0.5),
                      OrderSpec("c0"),),
            limit=rng.randint(1, 6) if rng.random() < 0.5 else None,
        )

    if kind == "order_limit":
        # Low-cardinality leading key forces ties; the stable sort must
        # break them identically in both engines.
        return QuerySpec(
            table=table,
            select=((table, rng.choice(STRING_COLUMNS[table])),
                    (table, rng.choice(NUMERIC_COLUMNS[table]))),
            filters=filters,
            order_by=(OrderSpec("c0", ascending=rng.random() < 0.7),),
            limit=rng.randint(3, 25),
        )

    if kind == "case":
        col = rng.choice(NUMERIC_COLUMNS[table])
        threshold = _sample_literal(rng, tables, table, col, True)
        return QuerySpec(
            table=table,
            select=((table, rng.choice(STRING_COLUMNS[table])),),
            cases=(CaseSpec(table, col, rng.choice([">=", "<"]), threshold,
                            "hi", "lo"),),
            filters=filters,
            limit=rng.randint(10, 50) if rng.random() < 0.5 else None,
        )

    # union / union_all_order: same-arity branches over both fact tables.
    branch = QuerySpec(
        table=other,
        select=((other, rng.choice(STRING_COLUMNS[other])),),
        cases=(CaseSpec(other, rng.choice(NUMERIC_COLUMNS[other]), ">=",
                        _sample_literal(rng, tables, other,
                                        rng.choice(NUMERIC_COLUMNS[other]),
                                        True),
                        "hi", "lo"),),
        filters=_random_filters(rng, tables, other, 1),
    )
    return QuerySpec(
        table=table,
        select=((table, rng.choice(STRING_COLUMNS[table])),),
        cases=(CaseSpec(table, rng.choice(NUMERIC_COLUMNS[table]), "<",
                        _sample_literal(rng, tables, table,
                                        rng.choice(NUMERIC_COLUMNS[table]),
                                        True),
                        "hi", "lo"),),
        filters=filters,
        union=branch,
        union_all=kind == "union_all_order",
        order_by=(OrderSpec("c0"), OrderSpec("k0", ascending=False))
        if kind == "union_all_order"
        else (),
        limit=rng.randint(5, 40) if rng.random() < 0.5 else None,
    )


SUB_KINDS = [
    "from_sub",
    "in",
    "not_in",
    "scalar",
    "from_sub_join",
    "having_scalar",
]
CELL_COLUMN = {"CDR": "cell_id", "NMS": "cellid"}


def random_spec_sub(seed: int, tables) -> QuerySpec:
    """Subquery specs, one position per kind: a grouped derived table in
    FROM (alone and joined to CELL), ``[NOT] IN (SELECT ...)`` against
    the other fact table, and scalar aggregates compared in WHERE (over
    the *same* table the outer query scans) and in HAVING."""
    rng = random.Random(seed)
    table = rng.choice(["CDR", "NMS"])
    other = "NMS" if table == "CDR" else "CDR"
    kind = SUB_KINDS[seed % len(SUB_KINDS)]
    # No equality filters out here: an outer query they empty never
    # reaches its subquery, which is the one thing this batch is for.
    filters = tuple(
        f
        for f in _random_filters(rng, tables, table, rng.randint(0, 2))
        if f.op != "="
    )
    numeric = rng.choice(NUMERIC_COLUMNS[table])

    if kind in ("from_sub", "from_sub_join"):
        key = CELL_COLUMN[table] if kind == "from_sub_join" else rng.choice(
            STRING_COLUMNS[table]
        )
        inner = QuerySpec(
            table=table,
            select=((table, key),),
            aggs=(Agg("COUNT"), Agg(rng.choice(["SUM", "MAX"]), numeric)),
            filters=filters,
            group_by=(key,),
        )
        outer_filters = (Filter("S", "a0", ">=", rng.randint(1, 4)),)
        if kind == "from_sub":
            return QuerySpec(
                table="S",
                source=inner,
                select=(("S", "c0"), ("S", "a0"), ("S", "a1")),
                filters=outer_filters,
                order_by=(OrderSpec("c1", ascending=False), OrderSpec("c0")),
                limit=rng.randint(3, 12) if rng.random() < 0.5 else None,
            )
        return QuerySpec(
            table="S",
            source=inner,
            select=(("S", "c0"), ("S", "a1"), ("CELL", rng.choice(["x", "y"]))),
            filters=outer_filters,
            join=JoinSpec("CELL", "c0", "cell_id", kind=rng.choice(["inner", "left"])),
        )

    if kind in ("in", "not_in"):
        # A range filter at a sampled threshold keeps part of the cells
        # in the pool, so IN and NOT IN both keep and drop rows.
        pool_column = rng.choice(NUMERIC_COLUMNS[other])
        pool = QuerySpec(
            table=other,
            select=((other, CELL_COLUMN[other]),),
            filters=(
                Filter(
                    other,
                    pool_column,
                    rng.choice([">", ">="]),
                    _sample_literal(rng, tables, other, pool_column, True),
                ),
            ),
        )
        in_filter = InSubquery(
            table, CELL_COLUMN[table], pool, negated=kind == "not_in"
        )
        if rng.random() < 0.5:
            key = rng.choice(STRING_COLUMNS[table])
            return QuerySpec(
                table=table,
                select=((table, key),),
                aggs=(Agg("COUNT"), Agg("SUM", numeric)),
                filters=filters,
                in_filters=(in_filter,),
                group_by=(key,),
            )
        return QuerySpec(
            table=table,
            select=((table, CELL_COLUMN[table]), (table, numeric)),
            filters=filters,
            in_filters=(in_filter,),
            limit=rng.randint(5, 40),
        )

    func, op = rng.choice(
        [("AVG", ">"), ("AVG", "<="), ("MAX", "="), ("MIN", "="), ("MIN", ">")]
    )
    bound = QuerySpec(
        table=table,
        aggs=(Agg(func, numeric),),
        filters=_random_filters(rng, tables, table, 1),
    )
    if kind == "scalar":
        return QuerySpec(
            table=table,
            select=((table, rng.choice(STRING_COLUMNS[table])), (table, numeric)),
            filters=filters,
            scalar_filters=(ScalarCompare(table, numeric, op, bound),),
            limit=rng.randint(5, 40) if rng.random() < 0.5 else None,
        )
    key = rng.choice(STRING_COLUMNS[table])
    return QuerySpec(  # having_scalar
        table=table,
        select=((table, key),),
        aggs=(Agg("COUNT"), Agg("MAX", numeric)),
        filters=filters,
        group_by=(key,),
        having=(("a1", rng.choice([">", "<="]), bound),),
    )


@pytest.fixture(scope="module")
def typed_harness():
    """The same trace stored under the typed-channel codec, so every
    scan runs behind the zone-map gate and selective channel decode."""
    trace = TraceConfig(scale=0.002, days=2, seed=99)
    generator = TelcoTraceGenerator(trace)
    spate = Spate(SpateConfig(codec="typedchannel", layout="columnar"))
    spate.register_cells(generator.cells_table())
    for epoch in range(48):
        spate.ingest(generator.snapshot(epoch))
    spate.finalize()
    tables = {
        name: spate.read_rows(name, 0, 47) for name in ("CDR", "NMS")
    }
    cell_columns = ["cell_id", "x", "y"]
    cell_rows = [
        [cell_id, f"{p.x:.1f}", f"{p.y:.1f}"]
        for cell_id, p in spate.cell_locations.items()
    ]
    tables["CELL"] = (cell_columns, cell_rows)

    spate.config = dataclasses.replace(
        spate.config, executor="thread", query_pruning=True
    )
    spate.executor = get_executor("thread", workers=2)
    # The reference scans warmed the leaf cache; drop it so later scans
    # actually reach the zone-map gate instead of being served decoded
    # tables (a cache hit legitimately bypasses zone pruning).
    if spate.leaf_cache is not None:
        spate.leaf_cache.clear()
    db = spate.sql_database()
    db.register_table("CELL", cell_columns, cell_rows)
    return spate, db, tables


class TestDifferentialSql:
    @pytest.mark.parametrize("seed", range(32))
    def test_seeded_query_matches_reference(self, harness, seed):
        spate, db, tables = harness
        spec = random_spec(seed, tables)
        sql = render_sql(spec)
        got = db.execute(sql)
        want_columns, want_rows = evaluate(spec, tables)
        assert got.columns == want_columns, sql
        assert got.rows == want_rows, (
            f"{sql}\n"
            f"pruned={spate.last_scan_coverage.get('epochs_pruned')}"
        )

    def test_fuzz_exercises_pruning(self, harness):
        """At least one seeded query must actually prune leaves — the
        harness would silently stop testing pruning otherwise."""
        spate, db, tables = harness
        pruned_total = 0
        for seed in range(32):
            spec = random_spec(seed, tables)
            db.execute(render_sql(spec))
            pruned_total += len(
                spate.last_scan_coverage.get("epochs_pruned", [])
            )
        assert pruned_total > 0

    def test_targeted_shapes(self, harness):
        """Deterministic specs covering each feature, independent of the
        rng's choices."""
        spate, db, tables = harness
        specs = [
            QuerySpec(  # selective filter the summaries can disprove
                table="CDR",
                select=(("CDR", "caller_id"),),
                filters=(Filter("CDR", "duration_s", ">=", 10**6),),
            ),
            QuerySpec(  # grouped aggregates over a filtered scan
                table="CDR",
                select=(("CDR", "call_type"),),
                aggs=(Agg("COUNT"), Agg("SUM", "duration_s"),
                      Agg("AVG", "downflux")),
                filters=(Filter("CDR", "result", "!=", ""),),
                group_by=("call_type",),
            ),
            QuerySpec(  # left equi-join with projection on both sides
                table="NMS",
                select=(("NMS", "cellid"), ("NMS", "val"), ("CELL", "x")),
                join=JoinSpec("CELL", "cellid", "cell_id", kind="left"),
                filters=(Filter("NMS", "drops", ">", 0),),
            ),
            QuerySpec(  # LIMIT over a plain filtered scan
                table="NMS",
                select=(("NMS", "kpi"), ("NMS", "val")),
                filters=(Filter("NMS", "val", ">=", 1),),
                limit=7,
            ),
        ]
        for spec in specs:
            sql = render_sql(spec)
            got = db.execute(sql)
            want_columns, want_rows = evaluate(spec, tables)
            assert got.columns == want_columns, sql
            assert got.rows == want_rows, sql


class TestDifferentialSqlTypedChannel:
    """The same differential contract with typed-channel leaves: zone
    maps may only *disprove*, so answers — rows and order — must stay
    exactly what the naive reference computes."""

    #: Fresh seed range (disjoint from the dense harness) so the two
    #: batches don't share rng draws.
    SEEDS = range(100, 116)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_query_matches_reference(self, typed_harness, seed):
        spate, db, tables = typed_harness
        spec = random_spec(seed, tables)
        sql = render_sql(spec)
        got = db.execute(sql)
        want_columns, want_rows = evaluate(spec, tables)
        assert got.columns == want_columns, sql
        assert got.rows == want_rows, (
            f"{sql}\n"
            f"zone-pruned={spate.last_scan_stats.leaves_zone_pruned}"
        )

    def test_fuzz_exercises_zone_pruning(self, typed_harness):
        """The batch must actually hit the zone-map gate; otherwise the
        typed harness degenerates into the dense one."""
        spate, db, tables = typed_harness
        zone_pruned = 0
        skipped_bytes = 0
        for seed in self.SEEDS:
            spec = random_spec(seed, tables)
            db.execute(render_sql(spec))
            zone_pruned += spate.last_scan_stats.leaves_zone_pruned
            skipped_bytes += spate.last_scan_stats.channel_bytes_skipped
        assert zone_pruned > 0
        assert skipped_bytes > 0

    def test_targeted_channel_predicates(self, typed_harness):
        """Hand-picked predicate shapes for each disproof path: numeric
        bounds, distinct-set string equality, and mixed conjuncts."""
        spate, db, tables = typed_harness
        cdr_columns, cdr_rows = tables["CDR"]
        duration = cdr_columns.index("duration_s")
        durations = sorted(int(r[duration]) for r in cdr_rows)
        mid = durations[len(durations) * 3 // 4] if durations else 100
        cell = cdr_columns.index("cell_id")
        some_cell = cdr_rows[0][cell] if cdr_rows else "c0"
        specs = [
            QuerySpec(  # upper-range threshold: bounds disproof
                table="CDR",
                select=(("CDR", "call_type"),),
                aggs=(Agg("COUNT"), Agg("SUM", "duration_s")),
                filters=(Filter("CDR", "duration_s", ">=", mid),),
                group_by=("call_type",),
            ),
            QuerySpec(  # string equality: distinct-set disproof
                table="CDR",
                select=(("CDR", "duration_s"), ("CDR", "call_type")),
                filters=(Filter("CDR", "cell_id", "=", some_cell),),
            ),
            QuerySpec(  # equality on a value no leaf holds
                table="CDR",
                select=(("CDR", "caller_id"),),
                filters=(Filter("CDR", "cell_id", "=", "no-such-cell"),),
            ),
            QuerySpec(  # conjunction: either channel may disprove
                table="CDR",
                select=(("CDR", "cell_id"),),
                filters=(
                    Filter("CDR", "duration_s", ">", mid),
                    Filter("CDR", "call_type", "=", "voice"),
                ),
            ),
            QuerySpec(  # join survives selective channel decode
                table="CDR",
                select=(("CDR", "cell_id"), ("CDR", "duration_s"),
                        ("CELL", "x")),
                join=JoinSpec("CELL", "cell_id", "cell_id", kind="inner"),
                filters=(Filter("CDR", "duration_s", ">=", mid),),
            ),
        ]
        for spec in specs:
            sql = render_sql(spec)
            got = db.execute(sql)
            want_columns, want_rows = evaluate(spec, tables)
            assert got.columns == want_columns, sql
            assert got.rows == want_rows, sql

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_selective_answers_identical_across_backends(
        self, typed_harness, backend
    ):
        """Zone pruning + selective decode must be backend-invariant."""
        spate, __, tables = typed_harness
        cdr_columns, cdr_rows = tables["CDR"]
        duration = cdr_columns.index("duration_s")
        durations = sorted(int(r[duration]) for r in cdr_rows)
        mid = durations[len(durations) * 3 // 4] if durations else 100
        spec = QuerySpec(
            table="CDR",
            select=(("CDR", "call_type"),),
            aggs=(Agg("COUNT"), Agg("SUM", "duration_s")),
            filters=(Filter("CDR", "duration_s", ">=", mid),),
            group_by=("call_type",),
        )
        sql = render_sql(spec)
        want_columns, want_rows = evaluate(spec, tables)
        spate.config = dataclasses.replace(spate.config, executor=backend)
        spate.executor = get_executor(backend, workers=2)
        try:
            db = spate.sql_database()
            got = db.execute(sql)
        finally:
            spate.config = dataclasses.replace(spate.config, executor="thread")
            spate.executor = get_executor("thread", workers=2)
        assert got.columns == want_columns
        assert got.rows == want_rows


def _two_way(db, tables, spec):
    """One spec through the engine and the naive reference —
    byte-identical or bust."""
    sql = render_sql(spec)
    got = db.execute(sql)
    want_columns, want_rows = evaluate(spec, tables)
    assert got.columns == want_columns, sql
    assert got.rows == want_rows, f"engine != reference\n{sql}"


class TestDifferentialSqlV2:
    """Second-generation specs on the dense harness: multi-table joins
    (explicit and comma form), HAVING, ORDER BY ties, CASE, UNION —
    every one diffed against the reference.  (The ``three_way`` in the
    test ids dates from when a second engine sat between the two.)"""

    SEEDS = range(300, 348)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_query_three_way(self, harness, seed):
        spate, db, tables = harness
        _two_way(db, tables, random_spec_v2(seed, tables))

    def test_join_order_permutations(self, harness):
        """The same three-table join written base-first from either fact
        table, in both explicit and comma form: four syntactic shapes,
        one cost-based planner, identical answers."""
        spate, db, tables = harness
        for base in ("CDR", "NMS"):
            key = "call_type" if base == "CDR" else "kpi"
            for implicit in (False, True):
                spec = QuerySpec(
                    table=base,
                    select=((base, key),),
                    aggs=(Agg("COUNT"),),
                    filters=(Filter("NMS", "drops", ">", 0),),
                    joins=CHAINS[base],
                    group_by=(key,),
                    implicit_join=implicit,
                )
                _two_way(db, tables, spec)

    def test_implicit_join_is_cost_reordered(self, harness):
        """The comma-form join must actually reach the cost-based
        reorder path: EXPLAIN shows the chosen order and the profile
        carries a JoinOrder note with per-step cardinalities."""
        spate, db, tables = harness
        spec = QuerySpec(
            table="CDR",
            select=(("CDR", "call_type"),),
            aggs=(Agg("COUNT"),),
            filters=(Filter("NMS", "kpi", "=", "drops"),),
            joins=CHAINS["CDR"],
            group_by=("call_type",),
            implicit_join=True,
        )
        sql = render_sql(spec)
        plan = db.explain(sql)
        assert "JoinOrder [" in plan
        assert "(cost-based)" in plan
        assert "est=~" in plan
        __, report = db.explain_analyze(sql)
        assert "plan JoinOrder" in report
        assert "cardinality" in report

    def test_order_by_limit_ties(self, harness):
        """A leading key with heavy ties plus LIMIT: the stable sort
        must break ties by pre-sort order, as the reference does."""
        spate, db, tables = harness
        spec = QuerySpec(
            table="CDR",
            select=(("CDR", "call_type"), ("CDR", "duration_s"),
                    ("CDR", "cell_id")),
            order_by=(OrderSpec("c0"),),
            limit=11,
        )
        _two_way(db, tables, spec)
        desc = dataclasses.replace(
            spec, order_by=(OrderSpec("c0", ascending=False),)
        )
        _two_way(db, tables, desc)

    def test_case_union_interaction(self, harness):
        """CASE-projected branches through UNION and UNION ALL with a
        trailing ORDER BY + LIMIT over the merged result."""
        spate, db, tables = harness
        branch = QuerySpec(
            table="NMS",
            select=(("NMS", "kpi"),),
            cases=(CaseSpec("NMS", "val", ">=", 10, "hi", "lo"),),
            filters=(Filter("NMS", "drops", ">=", 0),),
        )
        for union_all in (False, True):
            spec = QuerySpec(
                table="CDR",
                select=(("CDR", "call_type"),),
                cases=(CaseSpec("CDR", "duration_s", "<", 60, "hi", "lo"),),
                union=branch,
                union_all=union_all,
                order_by=(OrderSpec("k0"), OrderSpec("c0", ascending=False)),
                limit=17,
            )
            _two_way(db, tables, spec)

    def test_nullable_and_mixed_group_keys(self, harness):
        """GROUP BY over a column holding empty strings (storage NULLs)
        and numeric-looking strings of mixed formatting: grouping is on
        the raw cell, so "7" and "07" stay distinct groups and "" forms
        its own group."""
        spate, db, tables = harness
        db.register_table(
            "MIXED",
            ["k", "v"],
            [["7", "1"], ["07", "2"], ["", "3"], ["a", "4"],
             ["7", "5"], ["", "6"], ["a", ""]],
        )
        sql = (
            "SELECT k AS c0, COUNT(*) AS a0, SUM(v) AS a1, COUNT(v) AS a2 "
            "FROM MIXED GROUP BY k"
        )
        got = db.execute(sql)
        assert got.columns == ["c0", "a0", "a1", "a2"]
        assert got.rows == [
            ["", 2, 9, 2],
            ["07", 1, 2, 1],
            ["7", 2, 6, 2],
            ["a", 2, 4, 1],  # SUM skips the NULL v; COUNT(v) drops it
        ]

    def test_fuzz_exercises_new_shapes(self, harness):
        """The v2 seed batch must actually cover every kind — a skewed
        rng choice could silently drop a whole feature from the gate."""
        spate, db, tables = harness
        kinds = {V2_KINDS[seed % len(V2_KINDS)] for seed in self.SEEDS}
        assert kinds == set(V2_KINDS)


class TestDifferentialSqlV2TypedChannel:
    """A v2 slice through typed-channel leaves: selective channel decode
    and zone maps under multi-join / ordered / union statements."""

    SEEDS = range(400, 412)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_query_three_way(self, typed_harness, seed):
        spate, db, tables = typed_harness
        _two_way(db, tables, random_spec_v2(seed, tables))


class TestDifferentialSqlSubqueries:
    """Subqueries in all three positions through the warehouse scan
    path.  Each runs once per statement inside the one engine; the
    reference evaluates them the obvious way and must agree."""

    SEEDS = range(600, 612)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_subquery_matches_reference(self, harness, seed):
        spate, db, tables = harness
        _two_way(db, tables, random_spec_sub(seed, tables))

    def test_fuzz_covers_every_position(self):
        kinds = {SUB_KINDS[seed % len(SUB_KINDS)] for seed in self.SEEDS}
        assert kinds == set(SUB_KINDS)

    def test_null_keys_on_both_sides(self, harness):
        """IN / NOT IN with NULL cells in the probed column *and* in the
        subquery's pool, plus zero-padded numerics: membership is by
        numeric-aware key with no NULL special case, so a NULL in the
        pool matches NULL cells (and un-matches them under NOT IN)."""
        spate, db, tables = harness
        outer = (["k", "v"], [["7", "1"], ["", "2"], ["07", "3"], ["a", "4"],
                              ["9", "5"], ["", "6"]])
        with_null = (["k"], [["7.0"], [""], ["b"]])
        without_null = (["k"], [["7.0"], ["a"]])
        local = {**tables, "OUTERT": outer, "POOLN": with_null,
                 "POOLX": without_null}
        for name in ("OUTERT", "POOLN", "POOLX"):
            db.register_table(name, *local[name])
        want = {
            ("POOLN", False): [["7", "1"], ["", "2"], ["07", "3"], ["", "6"]],
            ("POOLN", True): [["a", "4"], ["9", "5"]],
            ("POOLX", False): [["7", "1"], ["07", "3"], ["a", "4"]],
            ("POOLX", True): [["", "2"], ["9", "5"], ["", "6"]],
        }
        for (pool, negated), rows in want.items():
            spec = QuerySpec(
                table="OUTERT",
                select=(("OUTERT", "k"), ("OUTERT", "v")),
                in_filters=(
                    InSubquery(
                        "OUTERT",
                        "k",
                        QuerySpec(table=pool, select=((pool, "k"),)),
                        negated=negated,
                    ),
                ),
            )
            _two_way(db, local, spec)
            assert db.execute(render_sql(spec)).rows == rows

    def test_scalar_subquery_in_having(self, harness):
        """Groups kept by comparing an aggregate with a scalar subquery
        over the same table the outer query scans."""
        spate, db, tables = harness
        spec = QuerySpec(
            table="CDR",
            select=(("CDR", "call_type"),),
            aggs=(Agg("COUNT"), Agg("AVG", "duration_s")),
            group_by=("call_type",),
            having=(
                (
                    "a1",
                    ">=",
                    QuerySpec(table="CDR", aggs=(Agg("AVG", "duration_s"),)),
                ),
            ),
        )
        _two_way(db, tables, spec)
        got = db.execute(render_sql(spec))
        everything = db.execute(
            "SELECT call_type, AVG(duration_s) FROM CDR GROUP BY call_type"
        )
        assert 0 < len(got.rows) < len(everything.rows)

    def test_subquery_scans_once_and_blocks_pushdown(self, harness):
        """A table scanned by both the outer query and a subquery gets no
        pushed predicates (one reference's filter must not prune the
        other's rows); every table reference is one framework scan, and
        the scan record describes that single scan."""
        from repro.query.sql import parse_sql

        spate, db, tables = harness
        shared = (
            "SELECT cell_id AS c0 FROM CDR WHERE duration_s >= 1000000 "
            "AND upflux <= (SELECT MAX(upflux) FROM CDR WHERE duration_s < 5)"
        )
        db._plan_scan_hints(parse_sql(shared))
        assert db._scan_hints["CDR"][0] == []
        db._scan_hints = {}

        spec = QuerySpec(
            table="CDR",
            select=(("CDR", "cell_id"), ("CDR", "duration_s")),
            in_filters=(
                InSubquery(
                    "CDR",
                    "cell_id",
                    QuerySpec(
                        table="NMS",
                        select=(("NMS", "cellid"),),
                        filters=(Filter("NMS", "drops", ">", 10**6),),
                    ),
                ),
            ),
        )
        sql = render_sql(spec)
        db._plan_scan_hints(parse_sql(sql))
        assert [p.column for p in db._scan_hints["NMS"][0]] == ["drops"]
        metrics = spate.metrics
        before = metrics.query_leaves_scanned + metrics.query_leaves_pruned
        statements = metrics.sql_queries
        _two_way(db, tables, spec)
        after = metrics.query_leaves_scanned + metrics.query_leaves_pruned
        assert after - before == 2 * 48  # 48 leaves: CDR once, NMS once
        assert metrics.sql_queries - statements == 1  # nested SELECTs ride along
        # The impossible predicate was pushed into the subquery's one
        # scan, and the record of that scan says every leaf was pruned.
        coverage = db.scan_coverage["NMS"]
        assert coverage["epochs_served"] == []
        assert len(coverage["epochs_pruned"]) == 48
        assert db.scan_stats["NMS"].leaves_scanned == 0
        assert db.scan_stats["CDR"].leaves_scanned == 48


class TestDifferentialSqlSubqueriesTypedChannel:
    """The subquery slice through typed-channel leaves: the nested
    SELECT's scan takes its own pushed predicates and projected
    channels."""

    SEEDS = range(700, 706)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_subquery_matches_reference(self, typed_harness, seed):
        spate, db, tables = typed_harness
        _two_way(db, tables, random_spec_sub(seed, tables))


class TestDifferentialSqlSchemaDrift:
    """Leaves of one table whose column order differs, or that lack a
    column: every scan form aligns them to the scan's schema (the first
    scanned leaf's) by column *name*, absent columns blank — on both
    store formats, cache on and off, single-node and 3-shard inline."""

    #: epoch -> (columns, rows) as ingested.
    SNAPSHOTS = [
        (["cell_id", "x", "y"], [["c1", "1", "10"], ["c2", "2", "20"]]),
        (["cell_id", "y", "x"], [["c1", "30", "3"]]),
        (["cell_id", "x"], [["c2", "4"]]),
    ]
    #: The same rows, aligned by name: what a scan must return.
    ALIGNED = (
        ["cell_id", "x", "y"],
        [["c1", "1", "10"], ["c2", "2", "20"], ["c1", "3", "30"], ["c2", "4", ""]],
    )

    @pytest.fixture(
        params=[
            (fmt, cache, shards)
            for fmt in (("gzip-ref", "row"), ("typedchannel", "columnar"))
            for cache in (0, 16 * 1024 * 1024)
            for shards in (1, 3)
        ],
        ids=lambda p: f"{p[0][0]}-cache{p[1]}-shards{p[2]}",
    )
    def drifted(self, request):
        from repro.core import Snapshot, Table

        (codec, layout), cache, shards = request.param
        spate = Spate.create(SpateConfig(
            codec=codec, layout=layout, leaf_cache_bytes=cache,
            sharding=ShardConfig(shards=shards),
        ))
        for epoch, (columns, rows) in enumerate(self.SNAPSHOTS):
            snapshot = Snapshot(epoch=epoch)
            snapshot.add_table(
                Table("CDR", list(columns), [list(row) for row in rows])
            )
            spate.ingest(snapshot)
        spate.finalize()
        yield spate
        if shards > 1:
            spate.close()

    def test_scans_align_leaves_by_name(self, drifted):
        columns, rows = self.ALIGNED
        for __ in range(2):  # cold, then (cache permitting) warm
            assert drifted.table_columns("CDR", 0, 2) == columns
            assert drifted.read_rows("CDR", 0, 2) == (columns, rows)
            assert drifted.read_columns("CDR", 0, 2) == (
                columns, [list(cells) for cells in zip(*rows)]
            )
            # A projected scan blanks what it was not asked for, and
            # still lines the asked-for column up under its name.
            got_columns, data = drifted.read_columns("CDR", 0, 2, columns=["x"])
            assert data[got_columns.index("x")] == ["1", "2", "3", "4"]
        # A window starting at the reordered leaf takes its schema.
        assert drifted.read_rows("CDR", 1, 2) == (
            ["cell_id", "y", "x"], [["c1", "30", "3"], ["c2", "", "4"]]
        )

    def test_sql_matches_reference(self, drifted):
        tables = {"CDR": self.ALIGNED}
        db = drifted.sql_database()
        specs = [
            QuerySpec(table="CDR", aggs=(Agg("SUM", "x"), Agg("SUM", "y"))),
            QuerySpec(
                table="CDR",
                aggs=(Agg("COUNT"), Agg("SUM", "x"), Agg("MAX", "y")),
                group_by=("cell_id",),
            ),
            QuerySpec(
                table="CDR",
                select=(("CDR", "cell_id"), ("CDR", "y"), ("CDR", "x")),
                filters=(Filter("CDR", "x", ">=", 2),),
            ),
        ]
        for __ in range(2):
            for spec in specs:
                _two_way(db, tables, spec)
        assert drifted.sql("SELECT SUM(x) AS s FROM CDR").rows == [[10]]


SHARD_EPOCHS = 16


def _build_sharded_pair(epochs: int = SHARD_EPOCHS):
    """The same trace in a 1-shard and a 3-shard warehouse.

    ``shards=1`` is the byte-identity reference: region grouping is
    fixed at 8 groups regardless of shard count, so scatter-gather over
    3 shards must merge back to exactly the single-shard answer.
    """
    trace = TraceConfig(scale=0.002, days=1, seed=99)

    def build(shards: int) -> ShardedSpate:
        generator = TelcoTraceGenerator(trace)
        spate = ShardedSpate(
            SpateConfig(
                sharding=ShardConfig(shards=shards, group_replication=2)
            )
        )
        spate.register_cells(generator.cells_table())
        for epoch in range(epochs):
            spate.ingest(generator.snapshot(epoch))
        spate.finalize()
        return spate

    return build(1), build(3)


@pytest.fixture(scope="module")
def shard_harness():
    """1-shard reference vs 3-shard scatter-gather over one trace."""
    single, sharded = _build_sharded_pair()
    tables = {
        name: single.read_rows(name, 0, SHARD_EPOCHS - 1)
        for name in ("CDR", "NMS")
    }
    cell_columns = ["cell_id", "x", "y"]
    cell_rows = [
        [cell_id, f"{p.x:.1f}", f"{p.y:.1f}"]
        for cell_id, p in single.cell_locations.items()
    ]
    tables["CELL"] = (cell_columns, cell_rows)
    dbs = {}
    for key, spate in (("single", single), ("sharded", sharded)):
        db = spate.sql_database()
        db.register_table("CELL", cell_columns, cell_rows)
        dbs[key] = db
    yield single, sharded, dbs, tables
    single.close()
    sharded.close()


class TestDifferentialSqlMultiShard:
    """Scatter-gather SQL must be byte-identical to single-shard — the
    same differential contract, now crossing the shard RPC layer with
    partial aggregation pushdown and coordinator merge in between."""

    #: Fresh seed range, disjoint from the dense (0-31) and
    #: typed-channel (100-115) batches.
    SEEDS = range(200, 216)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_query_matches_single_shard(self, shard_harness, seed):
        single, sharded, dbs, tables = shard_harness
        spec = random_spec(seed, tables)
        sql = render_sql(spec)
        got = dbs["sharded"].execute(sql)
        want = dbs["single"].execute(sql)
        assert got.columns == want.columns, sql
        assert got.rows == want.rows, sql
        # And both agree with the naive reference evaluation.
        ref_columns, ref_rows = evaluate(spec, tables)
        assert want.columns == ref_columns, sql
        assert want.rows == ref_rows, sql

    def test_identity_survives_shard_killed_mid_query(self, shard_harness):
        """Kill a shard a few RPCs into the scatter: with replication 2
        every group still has a live replica, so the SQL answer must
        stay byte-identical (failover, not degradation)."""
        single, sharded, dbs, tables = shard_harness
        spec = random_spec(201, tables)  # a grouped spec (201 % 4 == 1)
        sql = render_sql(spec)
        want = dbs["single"].execute(sql)

        state = {"rpcs": 0}

        def hook(shard_id: int, method: str) -> None:
            state["rpcs"] += 1
            if state["rpcs"] == 3 and sharded.workers[0].alive:
                sharded.kill_shard(0)

        sharded.client.before_invoke = hook
        try:
            got = dbs["sharded"].execute(sql)
        finally:
            sharded.client.before_invoke = None
        assert got.columns == want.columns
        assert got.rows == want.rows
        assert sharded.client.counters.failovers > 0
        sharded.recover_shard(0)
        again = dbs["sharded"].execute(sql)
        assert again.rows == want.rows

    V2_SEEDS = range(500, 508)

    @pytest.mark.parametrize("seed", V2_SEEDS)
    def test_v2_query_matches_single_shard(self, shard_harness, seed):
        """v2 shapes (multi-join, HAVING, ORDER BY, UNION) across the
        shard RPC layer: 3-shard scatter-gather == 1-shard == reference."""
        single, sharded, dbs, tables = shard_harness
        spec = random_spec_v2(seed, tables)
        sql = render_sql(spec)
        got = dbs["sharded"].execute(sql)
        want = dbs["single"].execute(sql)
        assert got.columns == want.columns, sql
        assert got.rows == want.rows, sql
        ref_columns, ref_rows = evaluate(spec, tables)
        assert want.columns == ref_columns, sql
        assert want.rows == ref_rows, sql

    SUB_SEEDS = range(800, 806)

    @pytest.mark.parametrize("seed", SUB_SEEDS)
    def test_subquery_matches_single_shard(self, shard_harness, seed):
        """Every subquery position across the shard RPC layer: each
        nested SELECT is its own scatter-gather, run once."""
        single, sharded, dbs, tables = shard_harness
        spec = random_spec_sub(seed, tables)
        _two_way(dbs["sharded"], tables, spec)
        _two_way(dbs["single"], tables, spec)

    def test_vectorized_identity_interleaved_with_decay(self):
        """Diff engine against reference, age the warehouse with the
        decay fungus, and diff again: at every decay state the column
        feed must see exactly the leaves a plain row scan sees, single
        and sharded alike."""
        epochs = 12
        single, sharded = _build_sharded_pair(epochs=epochs)
        specs = [
            QuerySpec(
                table="CDR",
                select=(("CDR", "call_type"),),
                aggs=(Agg("COUNT"), Agg("SUM", "duration_s")),
                group_by=("call_type",),
            ),
            QuerySpec(
                table="NMS",
                select=(("NMS", "kpi"), ("NMS", "val")),
                filters=(Filter("NMS", "drops", ">=", 0),),
                order_by=(OrderSpec("c0"),),
                limit=19,
            ),
            QuerySpec(
                table="CDR",
                select=(("CDR", "cell_id"),),
                filters=(Filter("CDR", "duration_s", ">=", 30),),
                union=QuerySpec(
                    table="NMS",
                    select=(("NMS", "cellid"),),
                    filters=(Filter("NMS", "val", ">", 5),),
                ),
            ),
            QuerySpec(
                table="CDR",
                select=(("CDR", "cell_id"), ("CDR", "duration_s")),
                in_filters=(
                    InSubquery(
                        "CDR",
                        "cell_id",
                        QuerySpec(
                            table="NMS",
                            select=(("NMS", "cellid"),),
                            filters=(Filter("NMS", "val", ">", 5),),
                        ),
                    ),
                ),
            ),
        ]
        try:
            for round_no in range(3):
                for spate in (single, sharded):
                    db = spate.sql_database()
                    tables = {
                        name: spate.read_rows(name, 0, epochs - 1)
                        for name in ("CDR", "NMS")
                    }
                    for spec in specs:
                        _two_way(db, tables, spec)
                for spec in specs:
                    sql = render_sql(spec)
                    assert single.sql(sql).rows == sharded.sql(sql).rows
                if round_no == 0:
                    for spate in (single, sharded):
                        spate.decay_groups(
                            older_than_epoch=6, keep_fraction=0.25
                        )
                elif round_no == 1:
                    for spate in (single, sharded):
                        spate.run_decay()
        finally:
            single.close()
            sharded.close()

    def test_identity_survives_decay_and_fungus(self):
        """Run the decaying fungus on both warehouses (replicas age in
        lockstep) — the degraded relations must still match exactly."""
        single, sharded = _build_sharded_pair(epochs=12)
        try:
            for spate in (single, sharded):
                spate.decay_groups(older_than_epoch=6, keep_fraction=0.25)
            queries = [
                "SELECT call_type, COUNT(*) AS n FROM CDR GROUP BY call_type",
                "SELECT kpi, COUNT(*) AS n, SUM(val) AS total "
                "FROM NMS GROUP BY kpi",
                "SELECT cell_id, duration_s FROM CDR "
                "WHERE duration_s >= 30 LIMIT 25",
            ]
            for sql in queries:
                want = single.sql(sql)
                got = sharded.sql(sql)
                assert got.columns == want.columns, sql
                assert got.rows == want.rows, sql
        finally:
            single.close()
            sharded.close()


class TestDifferentialSqlSocketTransport:
    """The socket transport must be invisible to answers: a 2-shard
    warehouse whose workers are real processes behind the JSON-lines
    RPC must match the in-process single-shard reference byte for byte
    — including after the coordinator object is discarded and a fresh
    one reattaches to the surviving worker processes."""

    SOCKET_EPOCHS = 8
    SEEDS = (200, 203, 206, 501, 603)

    @pytest.fixture(scope="class")
    def socket_harness(self):
        trace = TraceConfig(scale=0.002, days=1, seed=99)

        def build(shards: int, transport: str) -> ShardedSpate:
            generator = TelcoTraceGenerator(trace)
            spate = ShardedSpate(SpateConfig(sharding=ShardConfig(
                shards=shards, group_replication=2, transport=transport,
            )))
            spate.register_cells(generator.cells_table())
            for epoch in range(self.SOCKET_EPOCHS):
                spate.ingest(generator.snapshot(epoch))
            return spate

        single = build(1, "inline")
        socketed = build(2, "socket")
        tables = {
            name: single.read_rows(name, 0, self.SOCKET_EPOCHS - 1)
            for name in ("CDR", "NMS")
        }
        cell_columns = ["cell_id", "x", "y"]
        cell_rows = [
            [cell_id, f"{p.x:.1f}", f"{p.y:.1f}"]
            for cell_id, p in single.cell_locations.items()
        ]
        tables["CELL"] = (cell_columns, cell_rows)
        dbs = {}
        for key, spate in (("single", single), ("socket", socketed)):
            db = spate.sql_database()
            db.register_table("CELL", cell_columns, cell_rows)
            dbs[key] = db
        yield single, socketed, dbs, tables
        single.close()
        socketed.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_query_matches_inline_reference(self, socket_harness, seed):
        single, socketed, dbs, tables = socket_harness
        generator = (
            random_spec_sub
            if seed >= 600
            else random_spec_v2 if seed >= 500 else random_spec
        )
        spec = generator(seed, tables)
        sql = render_sql(spec)
        got = dbs["socket"].execute(sql)
        want = dbs["single"].execute(sql)
        assert got.columns == want.columns, sql
        assert got.rows == want.rows, sql
        ref_columns, ref_rows = evaluate(spec, tables)
        assert want.columns == ref_columns, sql
        assert want.rows == ref_rows, sql

    def test_coordinator_restart_keeps_answering(self, socket_harness):
        """Throw the coordinator object away mid-session, attach a new
        one to the live worker endpoints, resync, and re-run the
        differential: the answers must not move."""
        single, socketed, dbs, tables = socket_harness
        sql = (
            "SELECT call_type AS c0, COUNT(*) AS a0, SUM(duration_s) AS a1 "
            "FROM CDR GROUP BY call_type"
        )
        want = single.sql(sql)
        revived = ShardedSpate(
            socketed.config, worker_endpoints=socketed.worker_endpoints
        )
        try:
            summary = revived.resync()
            assert summary["frontier"] == self.SOCKET_EPOCHS - 1
            got = revived.sql(sql)
            assert got.columns == want.columns
            assert got.rows == want.rows
        finally:
            revived.close()
        # The original coordinator keeps working after the attacher
        # closed — close() only terminates processes it spawned.
        assert socketed.sql(sql).rows == want.rows
