"""Property tests: the column-batch engine is indistinguishable from
the naive reference.

Hypothesis drives random predicates/aggregates/orderings/subqueries
over both a randomly drawn materialized table (adversarial cell values:
empty strings, zero-padded numbers, floats, text) and a real ingested
telco warehouse (scan path with pushdown and projection active).  For
every statement the engine must return exactly what
:mod:`tests.sql_reference` computes.  Degraded modes ride along:
deadline truncation trips at the first stage check, nested SELECTs
included, ``partial_ok`` scans answer from the survivors and itemise
what they skipped, and the column scan gatekeeps exactly like the row
scan.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Spate, SpateConfig
from repro.errors import QueryDeadlineError
from repro.query.sql import Database, parse_sql
from repro.telco import TelcoTraceGenerator, TraceConfig

from tests.sql_reference import (
    Agg,
    CaseSpec,
    Filter,
    InSubquery,
    OrderSpec,
    QuerySpec,
    ScalarCompare,
    evaluate,
    render_sql,
)

# ----------------------------------------------------------------------
# Materialized-table property: adversarial cell values
# ----------------------------------------------------------------------

#: Cell pool mixing NULLs, ints, zero-padded ints, floats, and text —
#: every coercion edge in the values truth table.
CELL_POOL = ["", "0", "1", "7", "07", "7.5", "-3", "10", "2", "a", "b", "x"]
T_COLUMNS = ["k", "v", "w"]
OPS = ["=", "!=", "<", "<=", ">", ">="]
AGG_FUNCS = ["COUNT", "SUM", "AVG", "MIN", "MAX"]


def random_local_spec(rng: random.Random) -> QuerySpec:
    """A spec over the three-column table T, weighted toward shapes
    that stress coercion: filters on mixed cells, grouping on nullable
    keys, ordering with ties, CASE, UNION, and subqueries whose pools
    and scalars are drawn from the same adversarial cells (NULL keys on
    both sides of IN)."""
    kind = rng.choice(
        ["plain", "grouped", "order", "case", "union", "having",
         "in", "scalar", "from_sub"]
    )
    filters = tuple(
        Filter("T", rng.choice(T_COLUMNS), rng.choice(OPS),
               rng.choice(CELL_POOL + [rng.randint(-2, 12)]))
        for __ in range(rng.randint(0, 2))
    )
    if kind == "grouped" or kind == "having":
        key = rng.choice(T_COLUMNS)
        return QuerySpec(
            table="T",
            select=(("T", key),),
            aggs=(Agg("COUNT"),
                  Agg(rng.choice(AGG_FUNCS), rng.choice(T_COLUMNS))),
            filters=filters,
            group_by=(key,),
            having=((("a0", rng.choice(OPS), rng.randint(0, 5)),)
                    if kind == "having" else ()),
        )
    if kind == "order":
        return QuerySpec(
            table="T",
            select=(("T", "k"), ("T", "v")),
            filters=filters,
            order_by=(OrderSpec("c0", ascending=rng.random() < 0.5),
                      OrderSpec("c1"),),
            limit=rng.randint(1, 10) if rng.random() < 0.5 else None,
        )
    if kind == "case":
        return QuerySpec(
            table="T",
            select=(("T", rng.choice(T_COLUMNS)),),
            cases=(CaseSpec("T", rng.choice(T_COLUMNS), rng.choice(OPS),
                            rng.choice(CELL_POOL), "hi", "lo"),),
            filters=filters,
        )
    if kind == "union":
        branch = QuerySpec(
            table="T",
            select=(("T", rng.choice(T_COLUMNS)),),
            filters=tuple(
                Filter("T", rng.choice(T_COLUMNS), rng.choice(OPS),
                       rng.choice(CELL_POOL))
                for __ in range(rng.randint(0, 1))
            ),
        )
        return QuerySpec(
            table="T",
            select=(("T", rng.choice(T_COLUMNS)),),
            filters=filters,
            union=branch,
            union_all=rng.random() < 0.5,
            limit=rng.randint(1, 20) if rng.random() < 0.5 else None,
        )
    if kind == "in":
        pool = QuerySpec(
            table="T",
            select=(("T", rng.choice(T_COLUMNS)),),
            filters=(Filter("T", rng.choice(T_COLUMNS), rng.choice(OPS),
                            rng.choice(CELL_POOL)),),
        )
        return QuerySpec(
            table="T",
            select=(("T", "k"), ("T", "v")),
            filters=filters,
            in_filters=(InSubquery("T", rng.choice(T_COLUMNS), pool,
                                   negated=rng.random() < 0.5),),
        )
    if kind == "scalar":
        bound = QuerySpec(
            table="T",
            aggs=(Agg(rng.choice(AGG_FUNCS), rng.choice(T_COLUMNS)),),
            filters=filters[:1],
        )
        return QuerySpec(
            table="T",
            select=(("T", "k"), ("T", "w")),
            scalar_filters=(ScalarCompare("T", rng.choice(T_COLUMNS),
                                          rng.choice(OPS), bound),),
        )
    if kind == "from_sub":
        key = rng.choice(T_COLUMNS)
        inner = QuerySpec(
            table="T",
            select=(("T", key),),
            aggs=(Agg("COUNT"),
                  Agg(rng.choice(AGG_FUNCS), rng.choice(T_COLUMNS))),
            filters=filters,
            group_by=(key,),
        )
        return QuerySpec(
            table="S",
            source=inner,
            select=(("S", "c0"), ("S", "a1")),
            filters=(Filter("S", "a0", rng.choice(OPS), rng.randint(0, 3)),),
            order_by=(OrderSpec("c1", ascending=rng.random() < 0.5),
                      OrderSpec("c0"),),
        )
    return QuerySpec(
        table="T",
        select=tuple(("T", c) for c in
                     rng.sample(T_COLUMNS, rng.randint(1, 3))),
        filters=filters,
        limit=rng.randint(1, 15) if rng.random() < 0.5 else None,
    )


@given(
    rows=st.lists(
        st.tuples(*[st.sampled_from(CELL_POOL)] * len(T_COLUMNS)),
        max_size=24,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=90, deadline=None)
def test_engines_agree_on_random_tables(rows, seed):
    """Engine == reference on every generated statement (they are all
    well-formed, so neither side may raise)."""
    db = Database()
    db.register_table("T", list(T_COLUMNS), [list(r) for r in rows])
    spec = random_local_spec(random.Random(seed))
    sql = render_sql(spec)
    got = db.execute(sql)
    ref_columns, ref_rows = evaluate(
        spec, {"T": (list(T_COLUMNS), [list(r) for r in rows])}
    )
    assert got.columns == ref_columns, sql
    assert got.rows == ref_rows, sql


# ----------------------------------------------------------------------
# Warehouse property: real scan path, pushdown + projection active
# ----------------------------------------------------------------------

EPOCHS = 12


@pytest.fixture(scope="module")
def warehouse():
    trace = TraceConfig(scale=0.002, days=1, seed=41)
    generator = TelcoTraceGenerator(trace)
    spate = Spate(SpateConfig(query_pruning=True))
    spate.register_cells(generator.cells_table())
    for epoch in range(EPOCHS):
        spate.ingest(generator.snapshot(epoch))
    spate.finalize()
    tables = {
        name: spate.read_rows(name, 0, EPOCHS - 1) for name in ("CDR", "NMS")
    }
    return spate, spate.sql_database(), tables


WAREHOUSE_COLUMNS = {
    "CDR": ["duration_s", "upflux", "downflux", "call_type", "result"],
    "NMS": ["val", "drops", "kpi"],
}


def random_warehouse_spec(rng: random.Random, tables) -> QuerySpec:
    table = rng.choice(["CDR", "NMS"])
    columns, rows = tables[table]
    pool = WAREHOUSE_COLUMNS[table]
    filters = []
    for __ in range(rng.randint(0, 2)):
        column = rng.choice(pool)
        idx = columns.index(column)
        values = [r[idx] for r in rows if r[idx] != ""] or ["0"]
        value = rng.choice(values)
        literal = int(value) if value.lstrip("-").isdigit() else value
        filters.append(Filter(table, column, rng.choice(OPS), literal))
    if rng.random() < 0.5:
        key = "call_type" if table == "CDR" else "kpi"
        return QuerySpec(
            table=table,
            select=((table, key),),
            aggs=(Agg("COUNT"),
                  Agg(rng.choice(AGG_FUNCS), rng.choice(pool[:2]))),
            filters=tuple(filters),
            group_by=(key,),
        )
    return QuerySpec(
        table=table,
        select=tuple((table, c) for c in rng.sample(pool, 2)),
        filters=tuple(filters),
        limit=rng.randint(1, 30) if rng.random() < 0.5 else None,
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_engines_agree_on_warehouse_scans(warehouse, seed):
    spate, db, tables = warehouse
    spec = random_warehouse_spec(random.Random(seed), tables)
    sql = render_sql(spec)
    got = db.execute(sql)
    ref_columns, ref_rows = evaluate(spec, tables)
    assert got.columns == ref_columns, sql
    assert got.rows == ref_rows, sql


def _coverage(spate) -> dict:
    return {
        k: dict(v) if isinstance(v, dict) else list(v)
        for k, v in spate.last_scan_coverage.items()
    }


@given(seed=st.integers(0, 2**32 - 1))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_scan_coverage_parity(warehouse, seed):
    """The column scan that feeds SQL and the row scan (still the
    ``Framework`` contract) drive the same gatekeeping: identical epochs
    served/pruned for the same pushed predicates and projection."""
    spate, db, tables = warehouse
    spec = random_warehouse_spec(random.Random(seed), tables)
    sql = render_sql(spec)
    db.execute(sql)
    column_coverage = _coverage(spate)
    db._plan_scan_hints(parse_sql(sql))
    predicates, projected = db._scan_hints[spec.table]
    db._scan_hints = {}
    spate.read_rows(
        spec.table, 0, EPOCHS - 1, predicates=predicates, columns=projected
    )
    assert column_coverage == _coverage(spate), sql


# ----------------------------------------------------------------------
# Degraded modes: deadline truncation and partial_ok parity
# ----------------------------------------------------------------------


class TestDegradedParity:
    def _ticking_clock(self, monkeypatch):
        import repro.query.sql.executor as executor_module

        ticks = iter(range(0, 10_000_000, 100))  # each call jumps 100 s
        monkeypatch.setattr(
            executor_module.time, "monotonic", lambda: float(next(ticks))
        )

    @pytest.mark.parametrize("subquery", [True, False])
    def test_deadline_trips_at_the_same_stage(
        self, warehouse, monkeypatch, subquery
    ):
        """With a clock that jumps 100 s per reading the deadline blows
        on the first stage check, and the error names that stage.  A
        nested SELECT runs inside the same executor, so it shares the
        budget: its own first stage check is the one that trips."""
        spate, __, tables = warehouse
        db = spate.sql_database()
        sql = "SELECT call_type AS c0, COUNT(*) AS a0 FROM CDR GROUP BY call_type"
        if subquery:
            sql = f"SELECT s.c0, s.a0 FROM ({sql}) s WHERE s.a0 > 0"
        self._ticking_clock(monkeypatch)
        with pytest.raises(QueryDeadlineError) as excinfo:
            db.execute(sql, deadline_ms=1000)
        assert "scan/join" in str(excinfo.value)

    def test_partial_ok_coverage_parity_with_dead_leaf(self):
        """Destroy one leaf's every replica: with ``partial_ok`` the
        engine answers from the survivors — exactly the reference's
        answer over the surviving epochs' rows — and reports the skipped
        epoch."""
        from tests.test_degraded_queries import destroy_leaf

        trace = TraceConfig(scale=0.002, days=1, seed=41)
        generator = TelcoTraceGenerator(trace)
        spate = Spate(SpateConfig(leaf_cache_bytes=0))
        spate.register_cells(generator.cells_table())
        for epoch in range(10):
            spate.ingest(generator.snapshot(epoch))
        spate.finalize()
        columns, early = spate.read_rows("CDR", 0, 3)
        __, late = spate.read_rows("CDR", 5, 9)
        destroy_leaf(spate, 4)

        db = spate.sql_database(0, 9, partial_ok=True)
        spec = QuerySpec(
            table="CDR",
            select=(("CDR", "call_type"),),
            aggs=(Agg("COUNT"),),
            group_by=("call_type",),
        )
        got = db.execute(render_sql(spec))
        coverage = spate.last_scan_coverage
        want_columns, want_rows = evaluate(
            spec, {"CDR": (columns, early + late)}
        )
        assert got.columns == want_columns
        assert got.rows == want_rows
        assert list(coverage["epochs_skipped"]) == [4]
        assert 4 not in coverage["epochs_served"]
        assert db.scan_coverage["CDR"]["epochs_skipped"] == coverage[
            "epochs_skipped"
        ]
