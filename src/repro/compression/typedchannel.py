"""Typed-channel columnar leaf codec with per-channel zone maps.

The codecs in this package treat a leaf as an opaque byte string; this
one understands it.  A serialized table payload (either physical
layout) is re-expressed as one *typed channel* per column — the column
cells run through the :mod:`repro.compression.columnar` transforms
(RLE / delta / dictionary / plain) and a DEFLATE stage — prefixed by a
**zone map** header describing every channel without touching its body:

- declared encoding and stored/encoded byte lengths,
- null (empty-cell) count,
- integer statistics: how many cells parse as integers, and the
  min/max over those that do,
- the channel's complete distinct-value set, when it is small enough
  (≤ :data:`DISTINCT_CAP` values).

The header is the point.  A scan holding pushed predicates can read it
with :func:`read_header` — a few hundred bytes, no decompression — and
either *disprove* the leaf entirely (zone-map pruning) or decode only
the channels the query projects (:func:`decode_table`), skipping the
rest.  This is the WarpFlow / UnifiedStateCodec idea applied to the
paper's warehouse: evaluate queries against the compressed
representation and pay decompression only for survivors.

Correctness contract:

- ``decompress(compress(data)) == data`` for **every** byte string.
  Payloads that don't parse as a canonical table in either layout (or
  whose table form doesn't round-trip exactly) are stored in a *raw*
  mode — plain DEFLATE, no channels — so the codec stays total and
  :meth:`~repro.compression.base.Codec.measure` never lies.
- Zone maps are descriptive only; *interpreting* them (which predicate
  semantics make a prune sound) is the query layer's job
  (:func:`repro.query.leafscan.zone_map_prunes`).

Container format (all integers LEB128 varints)::

    b"TCH1"  mode
    mode 0 (raw):       zlib(payload)
    mode 1 (row)  /  mode 2 (columnar):
        n_columns  n_rows
        n_columns x (len, utf8 column name)
        n_columns x zone map:
            body_len   -- stored (zlib) channel bytes
            raw_len    -- encoded channel bytes before zlib
            null_count int_count zigzag(int_min) zigzag(int_max)
            flags      -- bit0: complete distinct set follows
            [n_distinct, n x (len, utf8 value)]
        n_columns x zlib(encoded channel)

Writing is one counted pass per column (:func:`build_channel`): the
cells are profiled once, and that profile picks the transform, builds
the zone map and is then dropped — nothing is decoded back.  Ingest
hands the cells over directly (:func:`pack_cells` and its two halves);
``compress(bytes)`` is an adapter that recovers the cells from a
serialized payload first.  The columnar mode keeps each column's
``encode_column`` bytes exactly as they appear inside the ``COL1``
container, so decompression is a pure reassembly — byte identity by
construction.  The row mode builds its channels from the parsed table,
after checking that the table's text form is exactly the payload.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping, NamedTuple

from repro.compression.base import Codec, register_codec
from repro.compression.columnar import (
    MAX_COLUMN_CELLS,
    decode_column,
    encode_column,
    profile_column,
)
from repro.compression.varint import (
    decode_str,
    decode_varint,
    encode_str,
    encode_varint,
    unzigzag,
    zigzag,
)
from repro.core.snapshot import Table
from repro.errors import CorruptStreamError

#: Registry name — also the leaf file extension for tagged leaves.
TYPEDCHANNEL_NAME = "typedchannel"

_MAGIC = b"TCH1"
_MODE_RAW = 0
_MODE_ROW = 1
_MODE_COLUMNAR = 2

#: Matches repro.core.layout's columnar container (kept local so the
#: compression package stays import-independent of the core layer; the
#: layout round-trip tests pin the two against drift).
_COLUMNAR_MAGIC = b"COL1"

#: A channel's complete distinct-value set is stored in the zone map
#: only up to this many values — enough for the telco schema's nominal
#: columns (call types, cell ids of one epoch) without letting
#: high-cardinality columns bloat the header.
DISTINCT_CAP = 64

_ZLIB_LEVEL = 6


@dataclass(frozen=True)
class ChannelZoneMap:
    """Per-channel statistics readable without decoding the body."""

    name: str
    #: Stored (zlib-compressed) body bytes.
    body_len: int
    #: Encoded channel bytes before the zlib stage — the decompression
    #: work a reader skips by not decoding this channel.
    raw_len: int
    #: Cells that are the empty string (SQL NULL).
    null_count: int
    #: Cells with an integer view; min/max are over exactly those.
    int_count: int
    int_min: int
    int_max: int
    #: The channel's complete distinct-value set, or None when it
    #: exceeded :data:`DISTINCT_CAP` and was dropped.
    distinct: tuple[str, ...] | None
    #: ``distinct`` as a set, built once per parse: a resident header
    #: answers the explore cell filter without re-hashing per query.
    distinct_set: frozenset[str] | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "distinct_set",
            None if self.distinct is None else frozenset(self.distinct),
        )


@dataclass(frozen=True)
class TypedChannelHeader:
    """Parsed zone-map header of a table-mode typed-channel blob.

    Immutable and a pure function of the blob's bytes, so one parse can
    be shared by every scan of the leaf (the leaf cache keeps it
    resident until the leaf's bytes change).
    """

    mode: int
    columns: tuple[str, ...]
    n_rows: int
    zones: tuple[ChannelZoneMap, ...]
    #: Offset of the first channel body within the blob — also the
    #: header's own encoded size, which is what the leaf cache charges.
    body_start: int
    _by_name: dict[str, ChannelZoneMap] = field(
        init=False, repr=False, compare=False
    )
    #: Decompression work a full decode of this leaf would cost.
    total_raw_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name: dict[str, ChannelZoneMap] = {}
        for zone in self.zones:
            by_name.setdefault(zone.name, zone)  # first wins, as a scan would
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(
            self, "total_raw_bytes", sum(zone.raw_len for zone in self.zones)
        )

    def zone(self, column: str) -> ChannelZoneMap | None:
        """Zone map for a column name, or None when absent."""
        return self._by_name.get(column)

    @property
    def unique_names(self) -> bool:
        """False for a blob whose channels repeat a name (only a
        hand-built ``COL1`` payload can) — its channels cannot be
        addressed by column, so they are never cached."""
        return len(self._by_name) == len(self.zones)


@dataclass(frozen=True)
class ChannelReadStats:
    """What one selective decode actually paid for."""

    channels_decoded: int
    bytes_decoded: int
    bytes_skipped: int


@dataclass
class _ZoneBuild:
    null_count: int
    int_count: int
    int_min: int
    int_max: int
    distinct: tuple[str, ...] | None


def _zone_map_for(counts: Mapping[str, int]) -> _ZoneBuild:
    """Zone map of a column from its value counts — the only place one
    is built.  A cell's integer view is SQL coercion (``int(str)``,
    mirroring how the executor numeric-compares cell strings) and
    depends on the value alone, so it is evaluated per distinct value
    and weighted by the value's count."""
    int_count = 0
    int_min = 0
    int_max = 0
    for cell, count in counts.items():
        try:
            value = int(cell)
        except ValueError:
            continue
        if int_count == 0:
            int_min = int_max = value
        else:
            int_min = min(int_min, value)
            int_max = max(int_max, value)
        int_count += count
    return _ZoneBuild(
        null_count=counts.get("", 0),
        int_count=int_count,
        int_min=int_min,
        int_max=int_max,
        distinct=tuple(sorted(counts)) if len(counts) <= DISTINCT_CAP else None,
    )


# ----------------------------------------------------------------------
# Container assembly / parsing
# ----------------------------------------------------------------------


class Channel(NamedTuple):
    """One column ready for the container (picklable: process backends
    return it from :func:`build_channel`)."""

    zone: _ZoneBuild
    #: ``encode_column`` bytes before the zlib stage.
    raw_len: int
    packed: bytes


def build_channel(cells: list[str], encoded: bytes | None = None) -> Channel:
    """The per-column write unit: profile → ``encode_column`` → zone
    map → DEFLATE, one counted pass over the cells.

    Args:
        encoded: the column's ``encode_column`` bytes when the caller
            already holds them (a ``COL1`` payload being re-expressed);
            kept verbatim, so only the zone map and DEFLATE remain.
    """
    profile = profile_column(cells)
    if encoded is None:
        encoded = encode_column(cells, profile=profile)
    return Channel(
        _zone_map_for(profile[0]),
        len(encoded),
        zlib.compress(encoded, _ZLIB_LEVEL),
    )


def assemble_channels(
    columns: list[str],
    n_rows: int,
    channels: list[Channel],
    mode: int = _MODE_COLUMNAR,
) -> bytes:
    """Join built channels (in column order) into the ``TCH1`` blob."""
    parts = [_MAGIC, bytes([mode]), encode_varint(len(columns)), encode_varint(n_rows)]
    parts += map(encode_str, columns)
    for zone, raw_len, packed in channels:
        parts += (
            encode_varint(len(packed)),
            encode_varint(raw_len),
            encode_varint(zone.null_count),
            encode_varint(zone.int_count),
            encode_varint(zigzag(zone.int_min)),
            encode_varint(zigzag(zone.int_max)),
        )
        if zone.distinct is not None:
            parts += (b"\x01", encode_varint(len(zone.distinct)))
            parts += map(encode_str, zone.distinct)
        else:
            parts.append(b"\x00")
    parts += [channel.packed for channel in channels]
    return b"".join(parts)


def pack_cells(
    columns: list[str],
    n_rows: int,
    cell_lists: list[list[str]],
    encoded: list[bytes] | None = None,
    mode: int = _MODE_COLUMNAR,
) -> bytes:
    """The cells entry: per-column cell lists (each ``n_rows`` long) in,
    ``TCH1`` blob out.  Ingest runs its two halves around the executor
    (:func:`build_channel` fanned out, :func:`assemble_channels` per
    table); ``encoded`` is passed through to :func:`build_channel`."""
    channels = map(build_channel, cell_lists, encoded or repeat(None))
    return assemble_channels(columns, n_rows, list(channels), mode)


def read_header(blob: bytes) -> TypedChannelHeader | None:
    """Parse a typed-channel blob's zone-map header, body bytes untouched.

    Returns None for raw-mode blobs (no channels to reason about).

    Raises:
        CorruptStreamError: when the blob is not a typed-channel stream
            or its header is malformed.
    """
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CorruptStreamError("bad typed-channel magic")
    pos = len(_MAGIC)
    if pos >= len(blob):
        raise CorruptStreamError("typed-channel blob missing mode byte")
    mode = blob[pos]
    pos += 1
    if mode == _MODE_RAW:
        return None
    if mode not in (_MODE_ROW, _MODE_COLUMNAR):
        raise CorruptStreamError(f"unknown typed-channel mode {mode}")
    n_columns, pos = decode_varint(blob, pos)
    n_rows, pos = decode_varint(blob, pos)
    if n_columns > len(blob) - pos:
        raise CorruptStreamError(
            f"typed-channel header declares {n_columns} channels"
        )
    if n_rows > MAX_COLUMN_CELLS:
        raise CorruptStreamError(
            f"typed-channel header declares {n_rows} rows "
            f"(cap {MAX_COLUMN_CELLS})"
        )
    columns: list[str] = []
    for __ in range(n_columns):
        name, pos = decode_str(blob, pos)
        columns.append(name)
    zones: list[ChannelZoneMap] = []
    for name in columns:
        body_len, pos = decode_varint(blob, pos)
        raw_len, pos = decode_varint(blob, pos)
        null_count, pos = decode_varint(blob, pos)
        int_count, pos = decode_varint(blob, pos)
        zz_min, pos = decode_varint(blob, pos)
        zz_max, pos = decode_varint(blob, pos)
        if pos >= len(blob):
            raise CorruptStreamError("truncated typed-channel zone map")
        flags = blob[pos]
        pos += 1
        distinct: tuple[str, ...] | None = None
        if flags & 1:
            n_distinct, pos = decode_varint(blob, pos)
            if n_distinct > DISTINCT_CAP:
                raise CorruptStreamError(
                    f"typed-channel zone map declares {n_distinct} "
                    f"distinct values (cap {DISTINCT_CAP})"
                )
            values = []
            for __ in range(n_distinct):
                value, pos = decode_str(blob, pos)
                values.append(value)
            distinct = tuple(values)
        zones.append(
            ChannelZoneMap(
                name=name,
                body_len=body_len,
                raw_len=raw_len,
                null_count=null_count,
                int_count=int_count,
                int_min=unzigzag(zz_min),
                int_max=unzigzag(zz_max),
                distinct=distinct,
            )
        )
    if sum(zone.body_len for zone in zones) != len(blob) - pos:
        raise CorruptStreamError("typed-channel bodies do not fill the blob")
    return TypedChannelHeader(
        mode=mode,
        columns=tuple(columns),
        n_rows=n_rows,
        zones=tuple(zones),
        body_start=pos,
    )


# ----------------------------------------------------------------------
# Selective decode
# ----------------------------------------------------------------------


def decode_columns(
    blob: bytes,
    columns: tuple[str, ...] | None = None,
    header: TypedChannelHeader | None = None,
) -> tuple[list[str], list[list[str]], ChannelReadStats]:
    """Decode a table-mode blob column-major, touching only the
    selected channels — the zero-transpose feed for the vectorized SQL
    engine's column batches.

    Returns ``(column_names, per-column cell lists, stats)``.  The
    projection contract matches :func:`decode_table`: the full stored
    schema comes back, with unselected columns as blank cell lists.

    Raises:
        CorruptStreamError: on malformed blobs, including raw-mode ones
            (callers route those through the generic decompress path).
    """
    if header is None:
        header = read_header(blob)
    if header is None:
        raise CorruptStreamError("raw-mode typed-channel blob has no channels")
    wanted = None if columns is None else set(columns)
    pos = header.body_start
    column_values: list[list[str]] = []
    blanks = [""] * header.n_rows
    decoded = 0
    bytes_decoded = 0
    bytes_skipped = 0
    for zone in header.zones:
        body = blob[pos : pos + zone.body_len]
        if len(body) != zone.body_len:
            raise CorruptStreamError("truncated typed-channel body")
        pos += zone.body_len
        if wanted is not None and zone.name not in wanted:
            bytes_skipped += zone.raw_len
            column_values.append(blanks)
            continue
        try:
            encoded = zlib.decompress(body)
        except zlib.error as exc:
            raise CorruptStreamError(
                f"typed-channel body for {zone.name!r} is not DEFLATE: {exc}"
            ) from exc
        if len(encoded) != zone.raw_len:
            raise CorruptStreamError(
                f"typed-channel body for {zone.name!r} inflated to "
                f"{len(encoded)} bytes, zone map promised {zone.raw_len}"
            )
        cells = decode_column(encoded, expected_cells=header.n_rows)
        decoded += 1
        bytes_decoded += zone.raw_len
        column_values.append(cells)
    return (
        list(header.columns),
        column_values,
        ChannelReadStats(
            channels_decoded=decoded,
            bytes_decoded=bytes_decoded,
            bytes_skipped=bytes_skipped,
        ),
    )


def decode_table(
    name: str,
    blob: bytes,
    columns: tuple[str, ...] | None = None,
    header: TypedChannelHeader | None = None,
) -> tuple[Table, ChannelReadStats]:
    """Decode a table-mode blob, touching only the selected channels.

    Mirrors the columnar layout's projection contract: the returned
    table keeps the full stored schema and row width, with unselected
    cells left as empty strings.  ``columns=None`` decodes everything.

    Raises:
        CorruptStreamError: on malformed blobs, including raw-mode ones
            (callers route those through the generic decompress path).
    """
    if header is None:
        header = read_header(blob)
    if header is None:
        raise CorruptStreamError("raw-mode typed-channel blob has no channels")
    names, column_values, stats = decode_columns(blob, columns, header)
    return table_from_columns(name, names, column_values, header.n_rows), stats


def table_from_columns(
    name: str, names: list[str], column_values: list[list[str]], n_rows: int
) -> Table:
    """Transpose per-column cell lists (each ``n_rows`` long) into a
    :class:`Table` — the row form of a :func:`decode_columns` result or
    of channels served from the leaf cache.

    Raises:
        CorruptStreamError: when the names cannot form a table.
    """
    if names:
        rows = [list(row) for row in zip(*column_values)]
    else:
        rows = [[] for __ in range(n_rows)]
    try:
        return Table(name=name, columns=list(names), rows=rows)
    except ValueError as exc:  # e.g. duplicate column names
        raise CorruptStreamError(f"malformed typed-channel table: {exc}") from exc


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------


def _parse_columnar(data: bytes) -> tuple[list[str], int, list[bytes]] | None:
    """Split a canonical ``COL1`` payload into (columns, n_rows, encoded
    column bodies) — None when the payload isn't exactly that shape."""
    if data[: len(_COLUMNAR_MAGIC)] != _COLUMNAR_MAGIC:
        return None
    try:
        pos = len(_COLUMNAR_MAGIC)
        n_columns, pos = decode_varint(data, pos)
        n_rows, pos = decode_varint(data, pos)
        if n_columns > len(data) - pos or n_rows > MAX_COLUMN_CELLS:
            return None
        columns: list[str] = []
        for __ in range(n_columns):
            name, pos = decode_str(data, pos)
            columns.append(name)
        bodies: list[bytes] = []
        for __ in range(n_columns):
            length, pos = decode_varint(data, pos)
            body = data[pos : pos + length]
            if len(body) != length:
                return None
            bodies.append(body)
            pos += length
        if pos != len(data):
            return None  # trailing bytes: reassembly would drop them
        return columns, n_rows, bodies
    except CorruptStreamError:
        return None


def _reassemble_columnar(
    columns: list[str], n_rows: int, bodies: list[bytes]
) -> bytes:
    out = bytearray(_COLUMNAR_MAGIC)
    out += encode_varint(len(columns))
    out += encode_varint(n_rows)
    for column in columns:
        out += encode_str(column)
    for body in bodies:
        out += encode_varint(len(body))
        out += body
    return bytes(out)


@register_codec
class TypedChannelCodec(Codec):
    """Leaf codec storing one zone-mapped typed channel per column."""

    name = TYPEDCHANNEL_NAME

    def compress(self, data: bytes) -> bytes:
        packed = self._pack_columnar(data)
        if packed is None:
            packed = self._pack_row(data)
        if packed is None:
            packed = _MAGIC + bytes([_MODE_RAW]) + zlib.compress(data, _ZLIB_LEVEL)
        return packed

    def decompress(self, data: bytes) -> bytes:
        header = read_header(data)
        if header is None:
            body = data[len(_MAGIC) + 1 :]
            try:
                return zlib.decompress(body)
            except zlib.error as exc:
                raise CorruptStreamError(
                    f"corrupt raw typed-channel stream: {exc}"
                ) from exc
        bodies: list[bytes] = []
        pos = header.body_start
        for zone in header.zones:
            packed = data[pos : pos + zone.body_len]
            pos += zone.body_len
            try:
                encoded = zlib.decompress(packed)
            except zlib.error as exc:
                raise CorruptStreamError(
                    f"typed-channel body for {zone.name!r} is not DEFLATE: "
                    f"{exc}"
                ) from exc
            if len(encoded) != zone.raw_len:
                raise CorruptStreamError(
                    f"typed-channel body for {zone.name!r} inflated to "
                    f"{len(encoded)} bytes, zone map promised {zone.raw_len}"
                )
            bodies.append(encoded)
        if header.mode == _MODE_COLUMNAR:
            return _reassemble_columnar(
                list(header.columns), header.n_rows, bodies
            )
        cells_per_column = [
            decode_column(body, expected_cells=header.n_rows)
            for body in bodies
        ]
        rows = [
            [cells_per_column[c][r] for c in range(len(header.columns))]
            for r in range(header.n_rows)
        ]
        try:
            table = Table(
                name="typedchannel", columns=list(header.columns), rows=rows
            )
        except ValueError as exc:
            raise CorruptStreamError(
                f"malformed typed-channel table: {exc}"
            ) from exc
        return table.serialize()

    # ------------------------------------------------------------------

    def _pack_columnar(self, data: bytes) -> bytes | None:
        parsed = _parse_columnar(data)
        if parsed is None:
            return None
        columns, n_rows, bodies = parsed
        try:
            cell_lists = [
                decode_column(body, expected_cells=n_rows) for body in bodies
            ]
        except CorruptStreamError:
            return None
        # The original encode_column bytes are kept verbatim, so
        # decompression is reassembly: byte identity by construction.
        return pack_cells(columns, n_rows, cell_lists, encoded=bodies)

    def _pack_row(self, data: bytes) -> bytes | None:
        try:
            table = Table.deserialize("typedchannel", data)
        except (CorruptStreamError, ValueError, IndexError):
            return None
        if table.serialize() != data:
            return None  # non-canonical text: raw mode keeps losslessness
        columns = list(table.columns)
        cell_lists = [
            [row[position] for row in table.rows]
            for position in range(len(columns))
        ]
        return pack_cells(columns, len(table.rows), cell_lists, mode=_MODE_ROW)


__all__ = [
    "ChannelReadStats",
    "ChannelZoneMap",
    "DISTINCT_CAP",
    "TYPEDCHANNEL_NAME",
    "TypedChannelCodec",
    "TypedChannelHeader",
    "assemble_channels",
    "build_channel",
    "decode_columns",
    "decode_table",
    "pack_cells",
    "read_header",
    "table_from_columns",
]
