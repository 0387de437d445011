"""Vectorized kernels over column vectors.

Each kernel is a tight loop over Python lists; every null check,
coercion, and comparison routes through :mod:`repro.query.sql.values`,
the same single source of truth zone-map pruning uses.
The speedup comes from hoisting per-row costs out of the loop: scope
resolution happens once per column instead of once per cell, numeric
views are computed once per base column and shared across predicates
and aggregates, and literal operands are coerced once per kernel call.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import SqlPlanError
from repro.query.sql.values import (
    as_number,
    compare_values,
    is_null,
    is_truthy,
    null_safe_key,
)

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _cmp_test(op: str):
    if op == "=":
        return lambda c: c == 0
    if op == "!=":
        return lambda c: c != 0
    if op == "<":
        return lambda c: c < 0
    if op == "<=":
        return lambda c: c <= 0
    if op == ">":
        return lambda c: c > 0
    if op == ">=":
        return lambda c: c >= 0
    raise SqlPlanError(f"unsupported operator {op!r}")


def compare_columns(
    left: list,
    left_num: list,
    right: list,
    right_num: list,
    op: str,
) -> list[bool]:
    """``left op right`` element-wise: False when either side is NULL,
    numeric compare when both sides coerce, else string compare."""
    test = _cmp_test(op)
    out = []
    append = out.append
    for lv, ln, rv, rn in zip(left, left_num, right, right_num):
        if lv is None or lv == "" or rv is None or rv == "":
            append(False)
        elif ln is not None and rn is not None:
            append(test((ln > rn) - (ln < rn)))
        else:
            ls, rs = str(lv), str(rv)
            append(test((ls > rs) - (ls < rs)))
    return out


def compare_literal(
    col: list, col_num: list, op: str, literal: Any
) -> list[bool]:
    """``col op literal`` with the literal's coercions hoisted out of
    the loop — the hot shape for pushed WHERE predicates."""
    if is_null(literal):
        return [False] * len(col)
    test = _cmp_test(op)
    lit_num = as_number(literal)
    lit_str = str(literal)
    out = []
    append = out.append
    if lit_num is not None:
        for v, n in zip(col, col_num):
            if v is None or v == "":
                append(False)
            elif n is not None:
                append(test((n > lit_num) - (n < lit_num)))
            else:
                s = str(v)
                append(test((s > lit_str) - (s < lit_str)))
    else:
        for v in col:
            if v is None or v == "":
                append(False)
            else:
                s = str(v)
                append(test((s > lit_str) - (s < lit_str)))
    return out


def truthy_mask(col: list) -> list[bool]:
    """SQL boolean coercion of a whole column (bools stay, NULL is
    false, numerics test non-zero, other strings by truthiness)."""
    out = []
    append = out.append
    for v in col:
        if isinstance(v, bool):
            append(v)
        else:
            append(is_truthy(v))
    return out


def arithmetic(left_num: list, right_num: list, op: str) -> list:
    """Arithmetic over numeric views; NULL when either side has no
    numeric view, and on division/modulo by zero."""
    out = []
    append = out.append
    if op == "+":
        for ln, rn in zip(left_num, right_num):
            append(None if ln is None or rn is None else ln + rn)
    elif op == "-":
        for ln, rn in zip(left_num, right_num):
            append(None if ln is None or rn is None else ln - rn)
    elif op == "*":
        for ln, rn in zip(left_num, right_num):
            append(None if ln is None or rn is None else ln * rn)
    elif op == "/":
        for ln, rn in zip(left_num, right_num):
            append(None if ln is None or rn is None or rn == 0 else ln / rn)
    elif op == "%":
        for ln, rn in zip(left_num, right_num):
            append(None if ln is None or rn is None or rn == 0 else ln % rn)
    else:
        raise SqlPlanError(f"unsupported operator {op!r}")
    return out


def negate(col_num: list) -> list:
    """Unary minus over a numeric view (NULL stays NULL)."""
    return [None if n is None else -n for n in col_num]


def between_mask(
    value: list, low: list, high: list, negated: bool
) -> list[bool]:
    """``value BETWEEN low AND high`` element-wise.

    NULL on any operand fails both BETWEEN and NOT BETWEEN (the PR-9
    values audit).
    """
    out = []
    append = out.append
    for v, lo, hi in zip(value, low, high):
        if is_null(v) or is_null(lo) or is_null(hi):
            append(False)
            continue
        hit = compare_values(v, lo) >= 0 and compare_values(v, hi) <= 0
        append(hit != negated)
    return out


def in_mask(col: list, pool: set, negated: bool) -> list[bool]:
    """``col IN pool`` where ``pool`` holds null-safe keys (numbers for
    numeric-viewed values).  No null check: a NULL in the list or the
    subquery's pool genuinely matches NULL cells."""
    out = []
    append = out.append
    for v in col:
        append((null_safe_key(v) in pool) != negated)
    return out


def like_mask(col: list, regex, negated: bool) -> list[bool]:
    """``col LIKE pattern``: Python-``None`` operands are False
    regardless of negation (empty strings still match the pattern)."""
    out = []
    append = out.append
    fullmatch = regex.fullmatch
    for v in col:
        if v is None:
            append(False)
        else:
            append(bool(fullmatch(str(v))) != negated)
    return out


def isnull_mask(col: list, negated: bool) -> list[bool]:
    out = []
    append = out.append
    for v in col:
        null = v is None or v == ""
        append(null != negated)
    return out


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def aggregate(
    name: str,
    col: list,
    col_num: Optional[list],
    indices: list[int],
    distinct: bool,
) -> Any:
    """One aggregate over the group at ``indices`` (ascending row
    positions): NULLs dropped, DISTINCT by first occurrence, SUM/AVG
    over numeric views in row order (float summation order preserved),
    MIN/MAX by SQL comparison."""
    kept = [i for i in indices if not (col[i] is None or col[i] == "")]
    values = (
        list(dict.fromkeys(col[i] for i in kept)) if distinct else None
    )
    if name == "COUNT":
        return len(values) if distinct else len(kept)
    if not kept:
        return None
    if name in ("SUM", "AVG"):
        if distinct or col_num is None:
            source = values if distinct else (col[i] for i in kept)
            numbers = [
                n for n in (as_number(v) for v in source) if n is not None
            ]
        else:
            # Positions with non-null cells and numeric views — the
            # same multiset, in the same order, as the generic path,
            # read off the precomputed numeric view.
            numbers = [col_num[i] for i in kept if col_num[i] is not None]
        if not numbers:
            return None
        total = sum(numbers)
        return total if name == "SUM" else total / len(numbers)
    if (
        not distinct
        and col_num is not None
        and all(col_num[i] is not None for i in kept)
    ):
        # Every kept cell has a numeric view, so SQL comparison is the
        # numeric one and min()/max() over the view replaces a
        # compare_values loop.  Both keep the first occurrence on ties:
        # the generic loop replaces only on strict inequality, and
        # min/max return the earliest extremal element.
        pick = min if name == "MIN" else max
        return col[pick(kept, key=col_num.__getitem__)]
    if values is None:
        values = [col[i] for i in kept]
    best = values[0]
    for value in values[1:]:
        cmp = compare_values(value, best)
        if (name == "MIN" and cmp < 0) or (name == "MAX" and cmp > 0):
            best = value
    return best


__all__ = [
    "aggregate",
    "arithmetic",
    "between_mask",
    "compare_columns",
    "compare_literal",
    "in_mask",
    "isnull_mask",
    "like_mask",
    "negate",
    "truthy_mask",
]
