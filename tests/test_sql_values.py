"""Pins the SQL value-semantics truth table in ``repro.query.sql.values``.

Every comparison, coercion, hashing, and ordering rule the SQL kernels
and zone-map pruning share lives in one module;
these tests pin the documented truth table so a change there is a
deliberate decision, not an accident that silently diverges a prune
from a filter.
"""

from __future__ import annotations

import pytest

from repro.query.sql.executor import Database
from repro.query.sql.values import (
    as_number,
    compare_values,
    hashable_key,
    is_null,
    is_truthy,
    null_safe_key,
    ordering_key,
    predicate_passes,
    sort_key,
)


class TestNullness:
    @pytest.mark.parametrize("value", [None, ""])
    def test_null_values(self, value):
        assert is_null(value)

    @pytest.mark.parametrize("value", [0, "0", 0.0, False, " ", "None", "x"])
    def test_non_null_values(self, value):
        assert not is_null(value)


class TestNumericView:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (True, 1),
            (False, 0),
            (7, 7),
            (7.5, 7.5),
            ("7", 7),
            ("007", 7),
            ("-3", -3),
            ("7.5", 7.5),
            ("1e3", 1000.0),
        ],
    )
    def test_parses(self, value, expected):
        assert as_number(value) == expected

    @pytest.mark.parametrize("value", ["", "7a", "x", None, " "])
    def test_no_numeric_view(self, value):
        assert as_number(value) is None

    def test_string_int_stays_int(self):
        # "007" parses as the int 7, not the float 7.0 — GROUP BY
        # signatures and arithmetic depend on the type surviving.
        assert isinstance(as_number("007"), int)


class TestCompare:
    def test_numeric_when_both_sides_numeric(self):
        assert compare_values(7, "007") == 0
        assert compare_values(2, "10") < 0
        assert compare_values(1, 1.0) == 0
        assert compare_values("2.5", 2) > 0

    def test_lexicographic_when_either_side_is_not(self):
        # Classic trap: "2" > "10" under string order, and one
        # non-numeric operand forces string order for both.
        assert compare_values("2", "10x") > 0
        assert compare_values("abc", "abd") < 0

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_null_fails_every_comparison(self, op):
        assert predicate_passes(None, op, 1) is False
        assert predicate_passes("", op, "x") is False
        assert predicate_passes(1, op, None) is False

    def test_predicate_ops(self):
        assert predicate_passes(7, "=", "007")
        assert predicate_passes(7, "!=", 8)
        assert predicate_passes(2, "<", "10")
        # Both sides numeric, so "2" > "10" is the numeric comparison
        # (false), not the lexicographic one (true).
        assert not predicate_passes("2", ">", "10")

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            predicate_passes(1, "~", 1)


class TestTruthiness:
    @pytest.mark.parametrize("value", [None, "", 0, "0", 0.0, False])
    def test_falsy(self, value):
        assert not is_truthy(value)

    @pytest.mark.parametrize("value", [1, "1", -1, "x", True, "0.5"])
    def test_truthy(self, value):
        assert is_truthy(value)


class TestHashKeys:
    def test_null_safe_key_unifies_numeric_equals(self):
        # Hash joins / IN pools / UNION dedup: numeric-equal values must
        # land in the same bucket.
        assert null_safe_key("007") == null_safe_key(7) == null_safe_key(7.0)
        assert null_safe_key("x") == "x"
        assert null_safe_key(None) is None

    def test_hashable_key_keeps_raw_values_distinct(self):
        # GROUP BY signatures keep 7 and "07" in different groups.
        assert hashable_key(7) == 7
        assert hashable_key("07") == "07"
        assert hashable_key(7) != hashable_key("07")
        assert hashable_key(["a"]) == str(["a"])  # unhashable -> str


class TestOrdering:
    def test_ascending_order_classes(self):
        # numbers < strings < NULLs, numbers by value, strings lexically.
        values = [None, "b", 3, "", "a", "10", 2]
        ranked = sorted(values, key=ordering_key)
        assert ranked == [2, 3, "10", "a", "b", "", None]

    def test_empty_string_before_none_within_nulls(self):
        # Long-standing engine quirk, kept for byte-identity.
        assert ordering_key("") < ordering_key(None)

    def test_sort_key_direction(self):
        values = [3, "a", None, 1]
        asc = sorted(values, key=lambda v: sort_key(v, True))
        desc = sorted(values, key=lambda v: sort_key(v, False))
        assert asc == [1, 3, "a", None]
        assert desc == list(reversed(asc))


class TestExecutorBetweenNulls:
    """The PR-9 audit fix: BETWEEN with NULL on any side is false, like
    every other comparison (it previously compared ``str(None)``).

    Both table ingresses feed the kernels: a materialized table (its
    column transpose and numeric views cached across statements) and a
    lazy row loader (transposed afresh per statement)."""

    @staticmethod
    def _db(lazy: bool, name: str, columns, rows) -> Database:
        db = Database()
        if lazy:
            db.register_lazy_table(name, columns, lambda: rows)
        else:
            db.register_table(name, columns, rows)
        return db

    def _bounds_db(self, lazy: bool) -> Database:
        return self._db(
            lazy,
            "T",
            ["v", "lo", "hi"],
            [
                ["5", "1", "9"],   # plainly inside
                ["", "1", "9"],    # NULL value
                ["5", "", "9"],    # NULL low bound
                ["5", "1", ""],    # NULL high bound
                ["0", "1", "9"],   # outside
            ],
        )

    @pytest.mark.parametrize("lazy", [True, False])
    def test_between_null_is_false(self, lazy):
        db = self._bounds_db(lazy)
        for __ in range(2):  # second pass reads the cached views
            got = db.execute("SELECT v FROM T WHERE v BETWEEN lo AND hi")
            assert got.rows == [["5"]]

    @pytest.mark.parametrize("lazy", [True, False])
    def test_not_between_null_is_false_too(self, lazy):
        # NOT BETWEEN is also a comparison: NULL rows fail it rather
        # than passing by double negation.
        got = self._bounds_db(lazy).execute(
            "SELECT v FROM T WHERE v NOT BETWEEN lo AND hi"
        )
        assert got.rows == [["0"]]

    @pytest.mark.parametrize("lazy", [True, False])
    def test_mixed_numeric_comparison_in_where(self, lazy):
        # "007"-style coercion through a real statement: int literal vs
        # string cells compares numerically.
        db = self._db(lazy, "U", ["n"], [["007"], ["7.0"], ["8"], ["x"]])
        for __ in range(2):
            got = db.execute("SELECT n FROM U WHERE n = 7")
            assert got.rows == [["007"], ["7.0"]]
