"""SQL value semantics shared by the batch kernels and scan pruning.

The executor compares cell strings with numeric coercion ("007" equals
7, mixed types fall back to string order) and treats empty strings as
NULL.  Zone-map disproof (:func:`repro.query.leafscan.zone_map_prunes`)
and the vectorized kernels (:mod:`repro.query.sql.kernels`) must agree
with those semantics *exactly* — a prune or a batch filter decided
under even slightly different coercion rules silently drops rows.
Keeping the single implementation here, imported by all sides, makes
divergence a merge conflict instead of a wrong answer.

Truth table (pinned by ``tests/test_sql_values.py``)
----------------------------------------------------

Nullness:
    ``None`` and ``""`` are NULL; everything else is not (including
    ``0``, ``"0"``, and ``False``).

Numeric view (:func:`as_number`):
    ``bool -> 0/1``; ``int``/``float`` pass through; strings parse as
    int first, then float ("7", "007", "7.5", "-3" all parse; "7a",
    "", "nan-like garbage" do not — but note ``float("nan")`` *does*
    parse, and NaN then poisons comparisons the way Python floats do).

Comparison (:func:`compare_values`):
    numeric three-way compare when **both** sides have a numeric view
    (so ``7 == "007"`` and ``2 < "10"``), else lexicographic over
    ``str()`` forms (so ``"2" > "10"`` when either side is
    non-numeric).  Mixed int/float compares exactly as Python numbers
    do (``1 == 1.0``).

Predicates (:func:`predicate_passes` and the executor's binary
comparisons):
    NULL on either side fails *every* comparison, including ``!=`` and
    — after the PR-9 audit — ``BETWEEN``/``NOT BETWEEN``, which
    previously compared ``str(None)`` lexicographically.

Ordering (:func:`ordering_key`):
    ascending sorts place non-NULLs first (numbers before strings,
    numbers among themselves by value, strings lexicographically),
    NULLs last; descending reverses the whole order, so NULLs come
    first.  Within the NULL class, ``""`` orders before ``None``
    (their ``str()`` forms ``"" < "None"``) — a quirk kept because
    answers have always been ordered this way and byte-identity wins.

Hashing (:func:`null_safe_key`):
    values that compare numerically-equal must hash equal, so the hash
    key is the numeric view when one exists, else the raw value.  Used
    by hash joins, IN pools, and UNION dedup; GROUP BY keys instead use
    :func:`hashable_key` (raw value, stringified only when unhashable),
    which distinguishes ``7`` from ``"07"`` — also long-standing
    engine behaviour the batch kernels must reproduce.
"""

from __future__ import annotations

from typing import Any

#: Comparison operators :func:`predicate_passes` understands — the same
#: set the executor's binary-comparison evaluator handles.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


def is_null(value: Any) -> bool:
    """SQL NULL: Python ``None`` or the empty string (the storage layer
    has no NULL marker; absent cells are empty strings)."""
    return value is None or value == ""


def as_number(value: Any) -> float | int | None:
    """Numeric view of a value, or None when it has none.

    Booleans coerce to 0/1; strings parse as int first, then float.
    """
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


def compare_values(left: Any, right: Any) -> int:
    """Three-way compare: numeric when both sides have a numeric view,
    else lexicographic over the string forms."""
    ln = as_number(left)
    rn = as_number(right)
    if ln is not None and rn is not None:
        return (ln > rn) - (ln < rn)
    ls, rs = str(left), str(right)
    return (ls > rs) - (ls < rs)


def predicate_passes(cell: Any, op: str, value: Any) -> bool:
    """Whether one cell satisfies ``cell op value`` under executor
    semantics (NULL on either side fails every comparison)."""
    if is_null(cell) or is_null(value):
        return False
    cmp = compare_values(cell, value)
    if op == "=":
        return cmp == 0
    if op == "!=":
        return cmp != 0
    if op == "<":
        return cmp < 0
    if op == "<=":
        return cmp <= 0
    if op == ">":
        return cmp > 0
    if op == ">=":
        return cmp >= 0
    raise ValueError(f"unsupported comparison operator {op!r}")


def is_truthy(value: Any) -> bool:
    """SQL boolean coercion: NULL is false, numbers are ``!= 0``,
    other values fall back to Python truthiness."""
    if is_null(value):
        return False
    if isinstance(value, bool):
        return value
    number = as_number(value)
    if number is not None:
        return number != 0
    return bool(value)


def null_safe_key(value: Any) -> Any:
    """Normalize for hashing where numeric-equal must mean hash-equal:
    hash joins, IN pools, and UNION dedup key on this."""
    number = as_number(value)
    return number if number is not None else value


def hashable_key(value: Any) -> Any:
    """GROUP BY signature element: the raw value, stringified only when
    it is not a hashable primitive.  Unlike :func:`null_safe_key` this
    keeps ``7`` and ``"07"`` in distinct groups."""
    return (
        value
        if isinstance(value, (str, int, float, bool, type(None)))
        else str(value)
    )


def ordering_key(value: Any) -> tuple:
    """Ascending total-order rank: non-NULLs first (numbers before
    strings), NULLs last.  See the module truth table."""
    null = is_null(value)
    number = as_number(value)
    if number is not None:
        key = (0, number, "")
    else:
        key = (1, 0.0, str(value))
    return (1 if null else 0, key)


class _AscendingKey:
    __slots__ = ("rank",)

    def __init__(self, rank):
        self.rank = rank

    def __lt__(self, other):
        return self.rank < other.rank

    def __eq__(self, other):
        return self.rank == other.rank


class _DescendingKey:
    __slots__ = ("rank",)

    def __init__(self, rank):
        self.rank = rank

    def __lt__(self, other):
        return self.rank > other.rank

    def __eq__(self, other):
        return self.rank == other.rank


def sort_key(value: Any, ascending: bool):
    """A sortable wrapper over :func:`ordering_key` honouring the sort
    direction — what every ORDER BY in the engine ranks by."""
    rank = ordering_key(value)
    return _AscendingKey(rank) if ascending else _DescendingKey(rank)


__all__ = [
    "COMPARISON_OPS",
    "as_number",
    "compare_values",
    "hashable_key",
    "is_null",
    "is_truthy",
    "null_safe_key",
    "ordering_key",
    "predicate_passes",
    "sort_key",
]
