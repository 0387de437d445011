"""Columnar pre-encodings: RLE, delta, and dictionary encoding.

The telco schema is "mostly nominal text and interval-scaled discrete
numerical values" (paper §II-B) with many near-constant columns
(Figure 4 shows entropies below 1 bit).  Encoding each column with a
type-appropriate transform before the general-purpose codec exploits
that structure; the layout ablation bench measures the gain.

All encoders operate on a list of string cells (one column) and return
``bytes``; decoders invert exactly.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby, islice
from operator import ne, sub
from typing import Iterable

from repro.compression.varint import (
    decode_str,
    decode_varint,
    encode_str,
    encode_varint,
    unzigzag,
    varint_len,
    zigzag,
)
from repro.errors import CorruptStreamError

_SEP = b"\x00"

#: Declared-cell-count ceiling: far above any 30-minute snapshot, low
#: enough that a corrupt header cannot drive a multi-GB allocation.
MAX_COLUMN_CELLS = 1 << 27


def _check_total(total: int, expected_cells: int | None = None) -> int:
    if total > MAX_COLUMN_CELLS:
        raise CorruptStreamError(
            f"column declares {total} cells (cap {MAX_COLUMN_CELLS})"
        )
    if expected_cells is not None and total != expected_cells:
        raise CorruptStreamError(
            f"column declares {total} cells, expected {expected_cells}"
        )
    return total


def _check_consumed(data: bytes, pos: int, name: str) -> None:
    if pos != len(data):
        raise CorruptStreamError(
            f"{name} column has {len(data) - pos} trailing bytes"
        )


#: ``(cell -> occurrences in first-seen order, runs of equal cells)``.
ColumnProfile = tuple[Counter, int]


def profile_column(cells: list[str]) -> ColumnProfile:
    """One counted pass over a column (at C speed): what the encoding
    choice and the typed-channel zone map both need to know about it."""
    counts = Counter(cells)
    if len(counts) <= 1:
        return counts, len(counts)
    return counts, sum(map(ne, cells, islice(cells, 1, None))) + 1


def rle_encode(cells: list[str]) -> bytes:
    """Run-length encode: ``(run_length, value)`` pairs."""
    out = bytearray(encode_varint(len(cells)))
    for value, run in groupby(cells):
        out += encode_varint(len(list(run)))
        out += encode_str(value)
    return bytes(out)


def rle_decode(data: bytes, expected_cells: int | None = None) -> list[str]:
    """Invert :func:`rle_encode`.

    Every decoder in this module enforces the same contract: the
    declared cell count must match ``expected_cells`` when given, and
    the payload must be consumed exactly — trailing bytes mean a
    corrupt (or maliciously padded) stream, not slack to ignore.
    """
    total, pos = decode_varint(data, 0)
    _check_total(total, expected_cells)
    cells: list[str] = []
    while len(cells) < total:
        run, pos = decode_varint(data, pos)
        if run == 0:
            # A zero-length run makes no progress; accepting it lets a
            # corrupt stream smuggle arbitrarily many no-op pairs.
            raise CorruptStreamError("zero-length RLE run")
        if run > total - len(cells):
            # Checked before the allocation so a corrupt run length can
            # never materialise more cells than the header declared.
            raise CorruptStreamError("RLE runs exceed declared cell count")
        value, pos = decode_str(data, pos)
        cells.extend([value] * run)
    _check_consumed(data, pos, "rle")
    return cells


def delta_encode(cells: list[str]) -> bytes:
    """Delta encode an integer column (zigzag varints of differences).

    Raises:
        ValueError: if any cell is not an integer literal.
    """
    values = list(map(int, cells))
    folded = list(map(zigzag, map(sub, values, [0] + values)))
    if max(folded, default=0) < 128:  # each is its own one-byte varint
        return encode_varint(len(cells)) + bytes(folded)
    return encode_varint(len(cells)) + b"".join(map(encode_varint, folded))


def delta_decode(data: bytes, expected_cells: int | None = None) -> list[str]:
    """Invert :func:`delta_encode`."""
    total, pos = decode_varint(data, 0)
    _check_total(total, expected_cells)
    cells: list[str] = []
    prev = 0
    for __ in range(total):
        encoded, pos = decode_varint(data, pos)
        prev += unzigzag(encoded)
        cells.append(str(prev))
    _check_consumed(data, pos, "delta")
    return cells


def dictionary_encode(cells: list[str]) -> bytes:
    """Dictionary encode: value table + per-cell code varints."""
    # First-seen order == code order.
    table = {value: code for code, value in enumerate(dict.fromkeys(cells))}
    codes = map(table.__getitem__, cells)
    return b"".join(
        (
            encode_varint(len(cells)),
            encode_varint(len(table)),
            *map(encode_str, table),
            # Codes below 128 are their own one-byte varints.
            bytes(codes) if len(table) <= 128 else b"".join(map(encode_varint, codes)),
        )
    )


def dictionary_decode(data: bytes, expected_cells: int | None = None) -> list[str]:
    """Invert :func:`dictionary_encode`."""
    total, pos = decode_varint(data, 0)
    _check_total(total, expected_cells)
    table_size, pos = decode_varint(data, pos)
    _check_total(table_size)
    table: list[str] = []
    for __ in range(table_size):
        value, pos = decode_str(data, pos)
        table.append(value)
    cells: list[str] = []
    for __ in range(total):
        code, pos = decode_varint(data, pos)
        if code >= len(table):
            raise CorruptStreamError(f"dictionary code {code} out of range")
        cells.append(table[code])
    _check_consumed(data, pos, "dict")
    return cells


def plain_encode(cells: list[str]) -> bytes:
    """Length-prefixed plain encoding (fallback for high-entropy columns)."""
    return encode_varint(len(cells)) + b"".join(map(encode_str, cells))


def plain_decode(data: bytes, expected_cells: int | None = None) -> list[str]:
    """Invert :func:`plain_encode`."""
    total, pos = decode_varint(data, 0)
    _check_total(total, expected_cells)
    cells: list[str] = []
    for __ in range(total):
        value, pos = decode_str(data, pos)
        cells.append(value)
    _check_consumed(data, pos, "plain")
    return cells


_ENCODINGS = {
    "rle": (rle_encode, rle_decode),
    "delta": (delta_encode, delta_decode),
    "dict": (dictionary_encode, dictionary_decode),
    "plain": (plain_encode, plain_decode),
}
_ENCODING_IDS = {name: i for i, name in enumerate(sorted(_ENCODINGS))}
_ID_ENCODINGS = {i: name for name, i in _ENCODING_IDS.items()}


def choose_encoding(cells: list[str], profile: ColumnProfile | None = None) -> str:
    """Pick the cheapest encoding for a column by simple heuristics.

    Long runs favour RLE; small distinct sets favour dictionary;
    integer columns favour delta; everything else stays plain.  The
    heuristics only *nominate*; :func:`encode_column` still falls back
    to plain whenever the nominated transform comes out larger.
    """
    if not cells:
        return "plain"
    counts, runs = profile_column(cells) if profile is None else profile
    if len(counts) == 1 or runs <= len(cells) // 4:
        return "rle"
    if _all_ints(counts):
        return "delta"
    if len(counts) <= max(16, len(cells) // 8):
        return "dict"
    return "plain"


def _plain_size(cells: list[str]) -> int:
    """Encoded size of the plain transform, without building it."""
    joined = "".join(cells)
    if joined.isascii() and max(map(len, cells), default=0) < 128:
        # One length byte per cell, one byte per character.
        return varint_len(len(cells)) + len(cells) + len(joined)
    size = varint_len(len(cells))
    for cell in cells:
        raw_len = len(cell.encode("utf-8"))
        size += varint_len(raw_len) + raw_len
    return size


def encode_column(
    cells: list[str],
    encoding: str | None = None,
    profile: ColumnProfile | None = None,
) -> bytes:
    """Encode one column, auto-selecting the transform unless given.

    ``profile`` is the column's :func:`profile_column` when the caller
    already holds it (the typed-channel writer shares one with its zone
    map); it only saves the recount.

    The chosen encoding id is stored in the first byte so decoding is
    self-describing.  Auto-selection never returns a transform larger
    than plain: heuristic mis-picks (tiny columns where the dictionary
    table overhead dominates, alternating values, adversarial runs) are
    re-encoded plain.
    """
    name = encoding or choose_encoding(cells, profile)
    encode, __ = _ENCODINGS[name]
    out = bytes([_ENCODING_IDS[name]]) + encode(cells)
    if encoding is None and name != "plain" and len(out) - 1 > _plain_size(cells):
        out = bytes([_ENCODING_IDS["plain"]]) + plain_encode(cells)
    return out


def decode_column(data: bytes, expected_cells: int | None = None) -> list[str]:
    """Invert :func:`encode_column`.

    Args:
        expected_cells: when the caller knows the row count (the
            columnar layout header does), a mismatching declared cell
            count is rejected up front — before a corrupt header can
            drive a huge allocation.

    Raises:
        CorruptStreamError: on any truncated or malformed payload; no
            other exception type escapes.
    """
    if not data:
        raise CorruptStreamError("empty column payload")
    name = _ID_ENCODINGS.get(data[0])
    if name is None:
        raise CorruptStreamError(f"unknown column encoding id {data[0]}")
    __, decode = _ENCODINGS[name]
    body = data[1:]
    try:
        return decode(body, expected_cells)
    except CorruptStreamError:
        raise
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        # Decoders work on attacker-controllable bytes; whatever slips
        # past the explicit checks (bad UTF-8, malformed ints, slice
        # misses) must still surface as a corrupt stream, never as a
        # stray stdlib exception inside the query engine.
        raise CorruptStreamError(f"malformed {name} column: {exc}") from exc


#: Delta encoding must survive the 64-bit zigzag varint round trip;
#: bounding cell magnitude keeps every diff within it.
_DELTA_BOUND = 1 << 62


def _all_ints(cells: Iterable[str]) -> bool:
    """True when every cell is a *canonical* bounded integer literal
    (a column's distinct values decide it for the whole column).

    Canonical matters: delta round-trips through ``int``, so "007",
    "-0" or non-ASCII digits would come back re-normalised — silent
    corruption, not compression.
    """
    for cell in cells:
        if not cell:
            return False
        body = cell[1:] if cell[0] == "-" else cell
        if not (body.isdigit() and body.isascii()):
            return False
        value = int(cell)
        if str(value) != cell or not -_DELTA_BOUND < value < _DELTA_BOUND:
            return False
    return True
