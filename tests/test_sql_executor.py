"""Tests for SQL execution semantics."""

import pytest

from repro.errors import QueryError, SqlPlanError, SqlSyntaxError
from repro.query.sql import Database


def sample_rows(n: int = 50) -> tuple[list[str], list[list[str]]]:
    """Deterministic relational sample."""
    columns = ["ts", "user", "cell", "plan", "bytes"]
    rows = []
    for i in range(n):
        rows.append([
            f"2016011{i % 9}",
            f"u{i % 7}",
            f"C{i % 5:03d}",
            ["prepaid", "postpaid", "business"][i % 3],
            str((i * 37) % 500),
        ])
    return columns, rows


@pytest.fixture()
def db():
    database = Database()
    columns, rows = sample_rows(30)
    database.register_table("T", columns, rows)
    database.register_table(
        "CELLS",
        ["cell", "region"],
        [["C000", "north"], ["C001", "north"], ["C002", "south"],
         ["C003", "south"], ["C004", "west"]],
    )
    return database


class TestProjectionAndFilter:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM T")
        assert len(result) == 30
        assert result.columns == ["ts", "user", "cell", "plan", "bytes"]

    def test_projection_order_and_alias(self, db):
        result = db.execute("SELECT bytes AS b, user FROM T LIMIT 1")
        assert result.columns == ["b", "user"]

    def test_where_equality(self, db):
        result = db.execute("SELECT user FROM T WHERE cell = 'C001'")
        assert len(result) == 6

    def test_numeric_comparison_coerces_strings(self, db):
        result = db.execute("SELECT bytes FROM T WHERE bytes > 400")
        assert all(int(b) > 400 for b in result.column("bytes"))

    def test_arithmetic_projection(self, db):
        result = db.execute("SELECT bytes + 1 AS b1 FROM T WHERE bytes = 0")
        assert result.rows[0][0] == 1

    def test_division_by_zero_yields_null(self, db):
        result = db.execute("SELECT 1 / 0 AS x FROM T LIMIT 1")
        assert result.rows[0][0] is None

    def test_between_inclusive(self, db):
        result = db.execute("SELECT bytes FROM T WHERE bytes BETWEEN 0 AND 37")
        values = sorted(int(v) for v in result.column("bytes"))
        assert values[0] == 0 and values[-1] == 37

    def test_in_list(self, db):
        result = db.execute("SELECT user FROM T WHERE user IN ('u0', 'u1')")
        assert set(result.column("user")) == {"u0", "u1"}

    def test_not_in(self, db):
        result = db.execute("SELECT DISTINCT user FROM T WHERE user NOT IN ('u0')")
        assert "u0" not in result.column("user")

    def test_like(self, db):
        result = db.execute("SELECT DISTINCT cell FROM T WHERE cell LIKE 'C00_'")
        assert len(result) == 5

    def test_comparison_with_null_is_false(self, db):
        database = Database()
        database.register_table("N", ["a"], [[""], ["5"]])
        result = database.execute("SELECT a FROM N WHERE a > 0")
        assert result.rows == [["5"]]

    def test_is_null_on_empty_string(self, db):
        database = Database()
        database.register_table("N", ["a"], [[""], ["x"]])
        assert len(database.execute("SELECT a FROM N WHERE a IS NULL")) == 1
        assert len(database.execute("SELECT a FROM N WHERE a IS NOT NULL")) == 1


class TestAggregation:
    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM T").rows == [[30]]

    def test_aggregates_ignore_nulls(self):
        database = Database()
        database.register_table("N", ["v"], [["1"], [""], ["3"]])
        result = database.execute("SELECT COUNT(v), SUM(v), AVG(v) FROM N")
        assert result.rows == [[2, 4, 2.0]]

    def test_group_by_with_having(self, db):
        result = db.execute(
            "SELECT cell, COUNT(*) AS n FROM T GROUP BY cell HAVING n >= 6"
        )
        assert all(n >= 6 for __, n in result.rows)

    def test_group_by_sum(self, db):
        result = db.execute("SELECT plan, SUM(bytes) AS total FROM T GROUP BY plan")
        assert len(result) == 3
        grand = sum(int(r[-1]) for __, rows in [(0, sample_rows(30)[1])] for r in rows)
        assert sum(r[1] for r in result.rows) == grand

    def test_min_max(self, db):
        result = db.execute("SELECT MIN(bytes), MAX(bytes) FROM T")
        __, rows = sample_rows(30)
        values = [int(r[4]) for r in rows]
        assert result.rows == [[str(min(values)), str(max(values))]] or result.rows == [[min(values), max(values)]]

    def test_count_distinct(self, db):
        result = db.execute("SELECT COUNT(DISTINCT user) FROM T")
        assert result.rows == [[7]]

    def test_aggregate_without_group_on_empty(self):
        database = Database()
        database.register_table("E", ["v"], [])
        result = database.execute("SELECT COUNT(*), SUM(v) FROM E")
        assert result.rows == [[0, None]]

    def test_aggregate_outside_group_context_raises(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("SELECT user FROM T WHERE SUM(bytes) > 5")

    def test_star_with_group_by_rejected(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("SELECT * FROM T GROUP BY cell")

    def test_group_key_projection(self, db):
        result = db.execute("SELECT plan FROM T GROUP BY plan ORDER BY plan")
        assert result.column("plan") == ["business", "postpaid", "prepaid"]


class TestJoins:
    def test_inner_join(self, db):
        result = db.execute(
            "SELECT t.user, c.region FROM T t JOIN CELLS c ON t.cell = c.cell"
        )
        assert len(result) == 30
        assert set(result.column("c.region")) == {"north", "south", "west"}

    def test_left_join_preserves_unmatched(self):
        database = Database()
        database.register_table("L", ["k"], [["a"], ["b"]])
        database.register_table("R", ["k", "v"], [["a", "1"]])
        result = database.execute(
            "SELECT L.k, R.v FROM L LEFT JOIN R ON L.k = R.k"
        )
        assert sorted(result.rows) == [["a", "1"], ["b", None]]

    def test_cross_join_cardinality(self):
        database = Database()
        database.register_table("A", ["x"], [["1"], ["2"]])
        database.register_table("B", ["y"], [["p"], ["q"], ["r"]])
        assert len(database.execute("SELECT * FROM A, B")) == 6

    def test_self_join_with_aliases(self, db):
        result = db.execute(
            "SELECT a.user FROM T a JOIN T b ON a.user = b.user "
            "WHERE a.cell != b.cell LIMIT 5"
        )
        assert len(result) == 5

    def test_non_equi_join_condition(self):
        database = Database()
        database.register_table("A", ["x"], [["1"], ["5"]])
        database.register_table("B", ["y"], [["3"]])
        result = database.execute("SELECT * FROM A JOIN B ON A.x < B.y")
        assert result.rows == [["1", "3"]]

    def test_ambiguous_column_raises(self, db):
        with pytest.raises(SqlPlanError, match="ambiguous"):
            db.execute("SELECT cell FROM T a JOIN T b ON a.user = b.user")

    def test_unknown_table_raises(self, db):
        with pytest.raises(SqlPlanError, match="unknown table"):
            db.execute("SELECT * FROM GHOST")

    def test_unknown_column_raises(self, db):
        with pytest.raises(SqlPlanError, match="unknown column"):
            db.execute("SELECT nope FROM T")


class TestSubqueries:
    def test_from_subquery(self, db):
        result = db.execute(
            "SELECT sub.user FROM (SELECT user, bytes FROM T WHERE bytes > 300) sub"
        )
        __, rows = sample_rows(30)
        assert result.columns == ["sub.user"]
        assert result.rows == [[r[1]] for r in rows if int(r[4]) > 300]

    def test_in_subquery(self, db):
        result = db.execute(
            "SELECT DISTINCT user FROM T "
            "WHERE cell IN (SELECT cell FROM CELLS WHERE region = 'north')"
        )
        __, rows = sample_rows(30)
        want = list(dict.fromkeys(
            r[1] for r in rows if r[2] in ("C000", "C001")
        ))
        assert result.rows == [[user] for user in want]

    def test_scalar_subquery_comparison(self, db):
        result = db.execute(
            "SELECT bytes FROM T WHERE bytes = (SELECT MAX(bytes) FROM T)"
        )
        __, rows = sample_rows(30)
        top = max(int(r[4]) for r in rows)
        assert result.rows == [[r[4]] for r in rows if int(r[4]) == top]

    def test_scalar_subquery_multiple_rows_raises(self, db):
        with pytest.raises(
            QueryError, match="scalar subquery returned more than one row"
        ):
            db.execute("SELECT user FROM T WHERE bytes = (SELECT bytes FROM T)")

    def test_scalar_subquery_multi_column_raises(self, db):
        with pytest.raises(
            SqlPlanError, match="scalar subquery must yield one column"
        ):
            db.execute(
                "SELECT user FROM T WHERE bytes = (SELECT bytes, user FROM T)"
            )

    def test_in_subquery_multi_column_raises(self, db):
        with pytest.raises(
            SqlPlanError, match="IN subquery must yield one column"
        ):
            db.execute("SELECT user FROM T WHERE cell IN (SELECT cell, region FROM CELLS)")

    def test_empty_scalar_subquery_is_null(self, db):
        result = db.execute(
            "SELECT user FROM T "
            "WHERE bytes > (SELECT bytes FROM T WHERE bytes > 100000)"
        )
        assert result.rows == []

    @pytest.mark.parametrize(
        "where",
        [
            "cell IN (SELECT cell, region FROM CELLS)",
            "bytes = (SELECT bytes, user FROM T)",
            "bytes = (SELECT bytes FROM T)",
        ],
    )
    def test_zero_row_outer_never_runs_a_failing_subquery(self, db, where):
        """No outer row reaches the subquery, so its error never
        surfaces — under a filter that empties the scan, and over a
        table that was empty to begin with."""
        assert db.execute(f"SELECT user FROM T WHERE bytes < 0 AND {where}").rows == []
        db.register_table("EMPTY", ["user", "cell", "bytes"], [])
        assert db.execute(f"SELECT user FROM EMPTY WHERE {where}").rows == []

    def test_short_circuit_skips_a_failing_subquery(self, db):
        bad = "(SELECT bytes FROM T)"  # more than one row
        everyone = [[r[1]] for r in sample_rows(30)[1]]
        assert db.execute(
            f"SELECT user FROM T WHERE bytes < 0 AND bytes > {bad}"
        ).rows == []
        assert db.execute(
            f"SELECT user FROM T WHERE bytes >= 0 OR bytes > {bad}"
        ).rows == everyone
        assert db.execute(
            f"SELECT CASE WHEN bytes >= 0 THEN user ELSE {bad} END AS u FROM T"
        ).rows == everyone
        # ... and a branch some row does take runs it.
        with pytest.raises(QueryError):
            db.execute(
                f"SELECT CASE WHEN bytes > 200 THEN user ELSE {bad} END FROM T"
            )
        assert db.execute(
            "SELECT plan, COUNT(*) AS n FROM T GROUP BY plan "
            f"HAVING COUNT(*) > 1000 AND COUNT(*) > {bad}"
        ).rows == []

    def test_scalar_subquery_in_having(self, db):
        result = db.execute(
            "SELECT cell, SUM(bytes) AS total FROM T GROUP BY cell "
            "HAVING SUM(bytes) >= (SELECT AVG(bytes) * 6 FROM T)"
        )
        __, rows = sample_rows(30)
        floor = sum(int(r[4]) for r in rows) / len(rows) * 6
        totals: dict[str, int] = {}
        for r in rows:
            totals[r[2]] = totals.get(r[2], 0) + int(r[4])
        want = [[c, t] for c, t in sorted(totals.items()) if t >= floor]
        assert 0 < len(want) < len(totals)
        assert result.rows == want

    def test_scalar_subquery_without_from_and_in_projection(self, db):
        values = [int(r[4]) for r in sample_rows(30)[1]]
        assert db.execute("SELECT (SELECT MAX(bytes) FROM T) AS top").rows == [
            [str(max(values))]
        ]
        result = db.execute(
            "SELECT (SELECT MIN(bytes) FROM T) AS low, COUNT(*) AS n "
            "FROM T WHERE bytes < 0"
        )
        assert result.rows == [[str(min(values)), 0]]

    @pytest.mark.parametrize(
        ("where", "count"),
        [("k IN (SELECT k FROM B)", 1000), ("v > (SELECT MAX(k) FROM B)", 1951)],
    )
    def test_subquery_runs_once_per_statement(self, where, count):
        """A subquery takes nothing from the outer row, so one run serves
        every outer row: B's loader fires once, not once per row of A."""
        loads = []

        def load_b():
            loads.append(1)
            return [[str(i)] for i in range(0, 50, 2)]

        database = Database()
        database.register_table(
            "A", ["k", "v"], [[str(i % 50), str(i)] for i in range(2000)]
        )
        database.register_lazy_table("B", ["k"], load_b)
        result = database.execute(f"SELECT COUNT(*) FROM A WHERE {where}")
        assert result.rows == [[count]]
        assert len(loads) == 1

    def test_nested_subqueries_share_one_profile(self, db):
        """Nested SELECTs run inside the same executor: their scans land
        in the one EXPLAIN ANALYZE profile, each once."""
        __, report = db.explain_analyze(
            "SELECT s.cell FROM (SELECT cell FROM CELLS WHERE region = 'north') s "
            "WHERE s.cell IN (SELECT cell FROM T WHERE bytes > 400)"
        )
        assert report.count("cardinality Scan CELLS") == 1
        assert report.count("cardinality Scan T") == 1
        assert "engine:" not in report


class TestPinnedEvaluationRules:
    """Behaviours no rule book gives but every answer depends on —
    captured value for value from the last commit that still had a
    second (row-at-a-time) interpreter defining them."""

    @pytest.fixture()
    def pinned(self):
        database = Database()
        database.register_table("M", ["k", "v"], [["7", "1"], ["a", "2"], ["7", "3"]])
        database.register_table("E", ["k", "v"], [])
        database.register_table(
            "T", ["k", "v"],
            [["b", "1"], ["a", "2"], ["b", "3"], ["c", "4"], ["a", "5"]],
        )
        return database

    def test_mixed_type_group_keys_raise_type_error(self, pinned):
        # Group output is sorted by raw signature; int and str (or int
        # and NULL) signatures do not order.
        with pytest.raises(TypeError, match="'str' and 'int'"):
            pinned.execute(
                "SELECT COUNT(*) FROM M "
                "GROUP BY CASE WHEN k = 7 THEN 7 ELSE k END"
            )
        with pytest.raises(TypeError, match="'NoneType' and 'int'"):
            pinned.execute("SELECT COUNT(*) FROM M GROUP BY k + 0")

    def test_distinct_before_order_by_base_row_alignment(self, pinned):
        # ORDER BY over a base expression ranks output row i by base row
        # i — after DISTINCT shrank the output to [b, a, c] those are
        # base rows 0..2 (v = 1, 2, 3), not the rows the survivors came
        # from.
        assert pinned.execute("SELECT DISTINCT k FROM T ORDER BY v").rows == [
            ["b"], ["a"], ["c"]
        ]
        assert pinned.execute(
            "SELECT DISTINCT k FROM T ORDER BY v DESC"
        ).rows == [["c"], ["a"], ["b"]]

    def test_empty_implicit_group(self, pinned):
        # The single implicit group of an aggregate over zero rows has a
        # representative with no cells: literals and subqueries
        # evaluate, a column reference has nothing to index.
        assert pinned.execute("SELECT 1 AS one, COUNT(*) AS n FROM E").rows == [[1, 0]]
        assert pinned.execute(
            "SELECT 'total' AS label, COUNT(*) AS n FROM T WHERE v > 100"
        ).rows == [["total", 0]]
        assert pinned.execute(
            "SELECT (SELECT MAX(k) FROM T) AS m, COUNT(*) AS n FROM E"
        ).rows == [["c", 0]]
        assert pinned.execute(
            "SELECT COUNT(*) AS n FROM E HAVING COUNT(*) >= (SELECT MIN(v) FROM T)"
        ).rows == []
        for select in ("k", "UPPER(k)", "k + 1"):
            with pytest.raises(IndexError):
                pinned.execute(f"SELECT {select}, COUNT(*) FROM E")
        with pytest.raises(SqlPlanError, match="unknown column bogus"):
            pinned.execute("SELECT bogus, COUNT(*) FROM E")

    def test_lazy_and_or_case_error_visibility(self, pinned):
        # An erroring operand surfaces only when some row reaches it.
        everyone = [["b"], ["a"], ["b"], ["c"], ["a"]]
        assert pinned.execute(
            "SELECT k FROM T WHERE v > 100 AND NOSUCH(k) = 1"
        ).rows == []
        assert pinned.execute(
            "SELECT k FROM T WHERE v > 0 OR NOSUCH(k) = 1"
        ).rows == everyone
        assert pinned.execute(
            "SELECT CASE WHEN v > 0 THEN k ELSE NOSUCH(k) END AS c FROM T"
        ).rows == everyone
        for sql in (
            "SELECT k FROM T WHERE v > 3 AND NOSUCH(k) = 1",
            "SELECT CASE WHEN v > 4 THEN k ELSE NOSUCH(k) END AS c FROM T",
        ):
            with pytest.raises(SqlPlanError, match="unknown function 'NOSUCH'"):
                pinned.execute(sql)
        # Nothing is resolved against a zero-row relation at all.
        assert pinned.execute("SELECT bogus FROM E").rows == []
        assert pinned.execute("SELECT k FROM E WHERE NOSUCH(k) = 1").rows == []


class TestNestingLimit:
    """Nesting is bounded by a fixed depth with a typed error — never a
    RecursionError from the parser or the walkers behind it."""

    def test_deep_parentheses_rejected(self, db):
        with pytest.raises(SqlSyntaxError, match="nests deeper than"):
            db.execute("SELECT " + "(" * 400 + "1" + ")" * 400)

    def test_deep_from_subqueries_rejected(self, db):
        sql = "SELECT user FROM T"
        for __ in range(300):
            sql = f"SELECT user FROM ({sql}) s"
        with pytest.raises(SqlSyntaxError, match="nests deeper than"):
            db.execute(sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT " + "NOT " * 3000 + "1",
            "SELECT " + "- " * 3000 + "1",
            "SELECT " + "ABS(" * 300 + "1" + ")" * 300,
            "SELECT " + "CASE WHEN 1 THEN " * 300 + "1" + " END" * 300,
            "SELECT user FROM T WHERE "
            + "cell IN (SELECT cell FROM T WHERE " * 200 + "1" + ")" * 200,
        ],
        ids=["not", "minus", "function", "case", "in-subquery"],
    )
    def test_every_recursive_rule_is_bounded(self, db, sql):
        with pytest.raises(SqlSyntaxError, match="nests deeper than"):
            db.execute(sql)

    def test_reasonable_nesting_still_runs(self, db):
        sql = "SELECT user FROM T WHERE bytes > 400"
        for __ in range(12):
            sql = f"SELECT user FROM ({sql}) s"
        direct = db.execute("SELECT user FROM T WHERE bytes > 400")
        assert db.execute(sql).rows == direct.rows
        assert db.execute("SELECT " + "(" * 30 + "1" + ")" * 30).rows == [[1]]


class TestOrderingAndLimits:
    def test_order_by_numeric(self, db):
        result = db.execute("SELECT bytes FROM T ORDER BY bytes")
        values = [int(v) for v in result.column("bytes")]
        assert values == sorted(values)

    def test_order_by_desc(self, db):
        result = db.execute("SELECT bytes FROM T ORDER BY bytes DESC LIMIT 3")
        values = [int(v) for v in result.column("bytes")]
        assert values == sorted(values, reverse=True)

    def test_order_by_ordinal(self, db):
        result = db.execute("SELECT user, bytes FROM T ORDER BY 2 DESC LIMIT 1")
        __, rows = sample_rows(30)
        assert int(result.rows[0][1]) == max(int(r[4]) for r in rows)

    def test_order_by_alias(self, db):
        result = db.execute(
            "SELECT cell, COUNT(*) AS n FROM T GROUP BY cell ORDER BY n DESC"
        )
        counts = [r[1] for r in result.rows]
        assert counts == sorted(counts, reverse=True)

    def test_order_by_expression_over_base(self, db):
        result = db.execute("SELECT user FROM T ORDER BY bytes DESC LIMIT 1")
        assert len(result) == 1

    def test_limit_zero(self, db):
        assert len(db.execute("SELECT * FROM T LIMIT 0")) == 0

    def test_distinct_then_order(self, db):
        result = db.execute("SELECT DISTINCT plan FROM T ORDER BY plan")
        assert result.column("plan") == ["business", "postpaid", "prepaid"]

    def test_order_by_ordinal_out_of_range(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("SELECT user FROM T ORDER BY 5")


class TestScalarFunctions:
    def test_upper_lower_length(self, db):
        result = db.execute(
            "SELECT UPPER(plan), LOWER(plan), LENGTH(plan) FROM T LIMIT 1"
        )
        plan = db.execute("SELECT plan FROM T LIMIT 1").rows[0][0]
        assert result.rows[0] == [plan.upper(), plan.lower(), len(plan)]

    def test_substr(self, db):
        result = db.execute("SELECT SUBSTR(cell, 1, 1) AS c FROM T LIMIT 1")
        assert result.rows[0][0] == "C"

    def test_abs_round(self, db):
        result = db.execute("SELECT ABS(0 - 5), ROUND(3.7) FROM T LIMIT 1")
        assert result.rows[0] == [5, 4]

    def test_coalesce(self):
        database = Database()
        database.register_table("N", ["a", "b"], [["", "fallback"]])
        result = database.execute("SELECT COALESCE(a, b) FROM N")
        assert result.rows == [["fallback"]]

    def test_unknown_function_raises(self, db):
        with pytest.raises(SqlPlanError, match="unknown function"):
            db.execute("SELECT FROBNICATE(user) FROM T")


class TestResultApi:
    def test_to_dicts(self, db):
        dicts = db.execute("SELECT user, bytes FROM T LIMIT 2").to_dicts()
        assert set(dicts[0]) == {"user", "bytes"}

    def test_missing_column_raises(self, db):
        result = db.execute("SELECT user FROM T LIMIT 1")
        with pytest.raises(QueryError):
            result.column("ghost")

    def test_lazy_table_loader_called(self):
        calls = []

        def loader():
            calls.append(1)
            return [["1"]]

        database = Database()
        database.register_lazy_table("L", ["v"], loader)
        database.execute("SELECT v FROM L")
        database.execute("SELECT v FROM L")
        assert len(calls) == 2  # reloaded per scan, like real storage

    def test_table_names(self, db):
        assert db.table_names() == ["CELLS", "T"]
