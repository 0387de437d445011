"""Physical table layouts for the storage layer.

Two layouts before the general-purpose codec:

- ``row``: the paper's text files (``Table.serialize``) — one escaped
  record per line.
- ``columnar``: per-column typed encodings (RLE / delta / dictionary,
  see :mod:`repro.compression.columnar`) concatenated into one blob.
  The telco schema's low per-attribute entropy makes this ~1.3x denser
  after compression (measured by the layout ablation bench).

Both round-trip exactly; the layout ablation bench and the
``SpateConfig.layout`` option let the two be compared end to end.
"""

from __future__ import annotations

from repro.compression.columnar import MAX_COLUMN_CELLS, decode_column, encode_column
from repro.compression.varint import (
    decode_str,
    decode_varint,
    encode_str,
    encode_varint,
    varint_len,
)
from repro.core.snapshot import Table
from repro.errors import ConfigError, CorruptStreamError

ROW_LAYOUT = "row"
COLUMNAR_LAYOUT = "columnar"
LAYOUTS = (ROW_LAYOUT, COLUMNAR_LAYOUT)

_COLUMNAR_MAGIC = b"COL1"


def validate_layout(layout: str) -> str:
    """Return ``layout`` or raise for unknown names."""
    if layout not in LAYOUTS:
        raise ConfigError(f"unknown layout {layout!r}; choose from {LAYOUTS}")
    return layout


def serialize_table(table: Table, layout: str = ROW_LAYOUT) -> bytes:
    """Serialize a table in the requested physical layout."""
    if layout == ROW_LAYOUT:
        return table.serialize()
    if layout == COLUMNAR_LAYOUT:
        return _serialize_columnar(table)
    raise ConfigError(f"unknown layout {layout!r}")


def deserialize_table(
    name: str,
    data: bytes,
    layout: str = ROW_LAYOUT,
    columns: tuple[str, ...] | None = None,
) -> Table:
    """Invert :func:`serialize_table`.

    Args:
        columns: optional projection — decode only these columns.  The
            returned table keeps the *full* stored schema and row width
            (unselected cells are empty strings), so projected and full
            decodes are interchangeable for readers that only touch the
            selected columns.  Only the columnar layout can skip work;
            the row layout always parses everything.
    """
    try:
        if layout == ROW_LAYOUT:
            return Table.deserialize(name, data)
        if layout == COLUMNAR_LAYOUT:
            return _deserialize_columnar(name, data, columns)
    except CorruptStreamError:
        raise
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        # The payload came off storage and through a codec; whatever is
        # malformed about it is a corrupt stream to the query engine,
        # not a stray stdlib exception.
        raise CorruptStreamError(
            f"malformed {layout} payload for table {name!r}: {exc}"
        ) from exc
    raise ConfigError(f"unknown layout {layout!r}")


def columnar_column_cells(table: Table) -> list[list[str]]:
    """Per-column cell lists in column order — the independent encode
    units the parallel ingest pipeline fans out."""
    return [
        [row[position] for row in table.rows]
        for position in range(len(table.columns))
    ]


def assemble_columnar(table: Table, encoded_columns: list[bytes]) -> bytes:
    """Join pre-encoded columns (from :func:`repro.compression.columnar.
    encode_column`, in column order) into the columnar blob.

    ``assemble_columnar(t, [encode_column(c) for c in
    columnar_column_cells(t)])`` is byte-identical to the serial
    serializer, whatever executor produced the encoded columns.
    """
    out = bytearray(_COLUMNAR_MAGIC)
    out += encode_varint(len(table.columns))
    out += encode_varint(len(table.rows))
    for column in table.columns:
        out += encode_str(column)
    for encoded in encoded_columns:
        out += encode_varint(len(encoded))
        out += encoded
    return bytes(out)


def columnar_size(table: Table, encoded_lengths: list[int]) -> int:
    """``len(assemble_columnar(table, encoded_columns))`` from the
    encoded columns' lengths alone — the layout-serialised size of a
    table whose columnar blob is never materialised."""
    return (
        len(_COLUMNAR_MAGIC)
        + varint_len(len(table.columns))
        + varint_len(len(table.rows))
        + sum(len(encode_str(column)) for column in table.columns)
        + sum(varint_len(length) + length for length in encoded_lengths)
    )


def _serialize_columnar(table: Table) -> bytes:
    return assemble_columnar(
        table, [encode_column(cells) for cells in columnar_column_cells(table)]
    )


def deserialize_table_columns(
    name: str,
    data: bytes,
    layout: str = ROW_LAYOUT,
    columns: tuple[str, ...] | None = None,
) -> tuple[list[str], list[list[str]]]:
    """Like :func:`deserialize_table`, but column-major: returns
    ``(column_names, per-column cell lists)``.  The columnar layout
    never materializes rows; the row layout parses them once and
    transposes — every column with one ``zip``, or only the selected
    ones when ``columns`` is given (its parse cannot skip a cell, its
    transpose can).  Projection semantics match
    :func:`deserialize_table` (full schema, unselected columns are
    blank)."""
    try:
        if layout == ROW_LAYOUT:
            table = Table.deserialize(name, data)
            rows = table.rows
            if columns is None:
                cells = list(map(list, zip(*rows))) if rows else [
                    [] for __ in table.columns
                ]
                return table.columns, cells
            blanks = [""] * len(rows)
            return table.columns, [
                [row[c] for row in rows] if column in columns else blanks
                for c, column in enumerate(table.columns)
            ]
        if layout == COLUMNAR_LAYOUT:
            return _decode_columnar_columns(data, columns)
    except CorruptStreamError:
        raise
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        raise CorruptStreamError(
            f"malformed {layout} payload for table {name!r}: {exc}"
        ) from exc
    raise ConfigError(f"unknown layout {layout!r}")


def _decode_columnar_columns(
    data: bytes, projection: tuple[str, ...] | None = None
) -> tuple[list[str], list[list[str]]]:
    if data[: len(_COLUMNAR_MAGIC)] != _COLUMNAR_MAGIC:
        raise CorruptStreamError("bad columnar table magic")
    pos = len(_COLUMNAR_MAGIC)
    n_columns, pos = decode_varint(data, pos)
    n_rows, pos = decode_varint(data, pos)
    if n_columns > len(data) - pos:
        # Every column costs at least one header byte.
        raise CorruptStreamError(f"columnar header declares {n_columns} columns")
    if n_rows > MAX_COLUMN_CELLS:
        raise CorruptStreamError(
            f"columnar header declares {n_rows} rows (cap {MAX_COLUMN_CELLS})"
        )
    columns: list[str] = []
    for __ in range(n_columns):
        name, pos = decode_str(data, pos)
        columns.append(name)
    wanted = None if projection is None else set(projection)
    column_values: list[list[str]] = []
    blanks = [""] * n_rows
    for position in range(n_columns):
        length, pos = decode_varint(data, pos)
        if length > len(data) - pos:
            raise CorruptStreamError("truncated columnar column payload")
        if wanted is not None and columns[position] not in wanted:
            # Projection pushdown: the varint length lets the decoder
            # hop over unselected columns without decoding their cells.
            pos += length
            column_values.append(blanks)
            continue
        cells = decode_column(data[pos : pos + length], expected_cells=n_rows)
        pos += length
        if len(cells) != n_rows:
            raise CorruptStreamError(
                f"column has {len(cells)} cells, header promised {n_rows}"
            )
        column_values.append(cells)
    return columns, column_values


def _deserialize_columnar(
    name: str, data: bytes, projection: tuple[str, ...] | None = None
) -> Table:
    columns, column_values = _decode_columnar_columns(data, projection)
    n_columns = len(columns)
    n_rows = len(column_values[0]) if column_values else 0
    rows = [
        [column_values[c][r] for c in range(n_columns)] for r in range(n_rows)
    ]
    return Table(name=name, columns=columns, rows=rows)
