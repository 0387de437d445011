"""Typed-channel codec: containers, zone maps, and selective decode.

The codec's contract has three load-bearing parts:

- **totality** — ``decompress(compress(data)) == data`` for every byte
  string, table-shaped or not (raw fallback);
- **honest zone maps** — the header statistics describe the channel
  cells exactly, under the same ``int()`` coercion the SQL executor
  applies to cell strings;
- **selective decode** — :func:`decode_table` touches only the
  requested channels and reports what it paid for, while preserving
  the columnar layout's projection contract (full schema, blank cells).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import get_codec
from repro.compression import typedchannel
from repro.compression.columnar import encode_column
from repro.compression.typedchannel import (
    DISTINCT_CAP,
    _zone_map_for,
    assemble_channels,
    build_channel,
    decode_table,
    pack_cells,
    read_header,
)
from repro.core.layout import (
    assemble_columnar,
    columnar_column_cells,
    columnar_size,
    deserialize_table,
    serialize_table,
)
from repro.core.snapshot import Table
from repro.errors import CorruptStreamError


def sample_table(rows: int = 30) -> Table:
    return Table(
        name="CDR",
        columns=["cell_id", "call_type", "duration_s", "note"],
        rows=[
            [
                f"c{i % 5}",
                ("voice", "sms", "data")[i % 3],
                str(i * 7 - 20),
                "" if i % 4 == 0 else f"n{i}",
            ]
            for i in range(rows)
        ],
    )


@pytest.fixture()
def codec():
    return get_codec("typedchannel")


class TestRoundTrip:
    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_table_payloads(self, codec, layout):
        payload = serialize_table(sample_table(), layout)
        blob = codec.compress(payload)
        assert codec.decompress(blob) == payload

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_compresses_realistic_leaf_sizes(self, codec, layout):
        # Zone-map headers cost a few hundred bytes; on anything but a
        # toy leaf the channel compression wins them back.
        payload = serialize_table(sample_table(500), layout)
        blob = codec.compress(payload)
        assert codec.decompress(blob) == payload
        assert len(blob) < len(payload)

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_empty_table(self, codec, layout):
        table = Table(name="T", columns=["a", "b"], rows=[])
        payload = serialize_table(table, layout)
        assert codec.decompress(codec.compress(payload)) == payload

    def test_non_table_payloads_fall_back_to_raw(self, codec):
        for payload in (b"", b"not a table", b"COL1broken", bytes(range(256))):
            blob = codec.compress(payload)
            assert read_header(blob) is None, "raw mode must carry no header"
            assert codec.decompress(blob) == payload

    def test_non_canonical_row_text_falls_back_to_raw(self, codec):
        # Deserializes as a table but does not re-serialize identically
        # (trailing newline variance); committing to row mode would
        # silently rewrite the payload.
        canonical = serialize_table(sample_table(5), "row")
        mutated = canonical + b"\n"
        blob = codec.compress(mutated)
        assert codec.decompress(blob) == mutated

    def test_measure_reports_true_sizes(self, codec):
        payload = serialize_table(sample_table(), "columnar")
        report = codec.measure(payload)
        assert report.compressed_bytes == len(codec.compress(payload))
        assert report.raw_bytes == len(payload)


class TestZoneMaps:
    def _header(self, codec, layout="columnar"):
        payload = serialize_table(sample_table(), layout)
        blob = codec.compress(payload)
        header = read_header(blob)
        assert header is not None
        return header

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_header_matches_table_shape(self, codec, layout):
        header = self._header(codec, layout)
        table = sample_table()
        assert list(header.columns) == table.columns
        assert header.n_rows == len(table.rows)
        assert len(header.zones) == len(table.columns)

    def test_integer_stats_use_executor_coercion(self, codec):
        header = self._header(codec)
        table = sample_table()
        durations = [int(row[2]) for row in table.rows]
        zone = header.zone("duration_s")
        assert zone.int_count == len(durations)
        assert zone.int_min == min(durations)
        assert zone.int_max == max(durations)

    def test_null_counts(self, codec):
        header = self._header(codec)
        table = sample_table()
        blanks = sum(1 for row in table.rows if row[3] == "")
        assert header.zone("note").null_count == blanks
        assert header.zone("cell_id").null_count == 0

    def test_distinct_sets_complete_and_sorted(self, codec):
        header = self._header(codec)
        table = sample_table()
        zone = header.zone("call_type")
        assert zone.distinct == tuple(
            sorted({row[1] for row in table.rows})
        )

    def test_distinct_set_dropped_past_cap(self, codec):
        table = Table(
            name="T",
            columns=["wide"],
            rows=[[f"v{i}"] for i in range(DISTINCT_CAP + 1)],
        )
        blob = codec.compress(serialize_table(table, "columnar"))
        header = read_header(blob)
        assert header.zone("wide").distinct is None

    def test_total_raw_bytes_covers_all_channels(self, codec):
        header = self._header(codec)
        assert header.total_raw_bytes == sum(z.raw_len for z in header.zones)
        assert header.total_raw_bytes > 0

    def test_unknown_column_has_no_zone(self, codec):
        assert self._header(codec).zone("nope") is None

    def test_header_is_shareable_across_scans_and_processes(self, codec):
        """One parse serves every scan of a leaf: lookups are by name,
        the distinct set is a ready frozenset, and the header survives
        the pickle a process-backend decode task puts it through."""
        import pickle

        import repro.compression.typedchannel as module

        header = self._header(codec)
        for zone in header.zones:
            assert header.zone(zone.name) is zone
            assert zone.distinct_set == (
                None if zone.distinct is None else frozenset(zone.distinct)
            )
        assert header.unique_names
        clone = pickle.loads(pickle.dumps(header))
        assert clone == header
        assert clone.zone("call_type").distinct_set == header.zone(
            "call_type"
        ).distinct_set
        assert clone.total_raw_bytes == header.total_raw_bytes
        assert "decode_columns" in module.__all__


class TestSelectiveDecode:
    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_projection_contract(self, codec, layout):
        table = sample_table()
        blob = codec.compress(serialize_table(table, layout))
        loaded, stats = decode_table("CDR", blob, columns=("duration_s",))
        assert loaded.columns == table.columns
        duration = table.columns.index("duration_s")
        for got, want in zip(loaded.rows, table.rows):
            assert got[duration] == want[duration]
            for idx, cell in enumerate(got):
                if idx != duration:
                    assert cell == ""
        assert stats.channels_decoded == 1
        header = read_header(blob)
        assert stats.bytes_decoded == header.zone("duration_s").raw_len
        assert stats.bytes_skipped == header.total_raw_bytes - stats.bytes_decoded

    def test_full_decode_equals_stored_table(self, codec):
        table = sample_table()
        payload = serialize_table(table, "columnar")
        blob = codec.compress(payload)
        loaded, stats = decode_table("CDR", blob)
        assert loaded == deserialize_table("CDR", payload, "columnar")
        assert stats.channels_decoded == len(table.columns)
        assert stats.bytes_skipped == 0

    def test_selecting_unknown_column_decodes_nothing(self, codec):
        blob = codec.compress(serialize_table(sample_table(), "columnar"))
        loaded, stats = decode_table("CDR", blob, columns=("ghost",))
        assert stats.channels_decoded == 0
        assert stats.bytes_decoded == 0
        assert all(cell == "" for row in loaded.rows for cell in row)

    def test_raw_mode_blob_is_rejected(self, codec):
        blob = codec.compress(b"not a table")
        with pytest.raises(CorruptStreamError):
            decode_table("CDR", blob)


class TestProperties:
    @given(
        n_rows=st.integers(0, 25),
        n_cols=st.integers(1, 5),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip_random_tables(self, n_rows, n_cols, seed):
        import random

        rng = random.Random(seed)
        pools = [
            lambda: str(rng.randrange(-500, 500)),
            lambda: rng.choice(["voice", "sms", "data", ""]),
            lambda: f"cell-{rng.randrange(8)}",
            lambda: "x" * rng.randrange(6),
        ]
        columns = [f"col{i}" for i in range(n_cols)]
        makers = [rng.choice(pools) for __ in range(n_cols)]
        table = Table(
            name="T",
            columns=columns,
            rows=[[makers[c]() for c in range(n_cols)] for __ in range(n_rows)],
        )
        codec = get_codec("typedchannel")
        for layout in ("row", "columnar"):
            payload = serialize_table(table, layout)
            assert codec.decompress(codec.compress(payload)) == payload

    @given(data=st.binary(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_property_total_on_arbitrary_bytes(self, data):
        codec = get_codec("typedchannel")
        assert codec.decompress(codec.compress(data)) == data


# ----------------------------------------------------------------------
# The cells entry (PR 15): cells -> channels without the COL1 round trip
# ----------------------------------------------------------------------


def _reference_zone_map(cells):
    """The per-cell zone-map loop the counted pass replaced, verbatim:
    ``int()`` once per cell, distinct set dropped past the cap."""
    null_count = 0
    int_count = 0
    int_min = 0
    int_max = 0
    distinct = set()
    for cell in cells:
        if cell == "":
            null_count += 1
        try:
            value = int(cell)
        except ValueError:
            value = None
        if value is not None:
            if int_count == 0:
                int_min = int_max = value
            else:
                int_min = min(int_min, value)
                int_max = max(int_max, value)
            int_count += 1
        if distinct is not None:
            distinct.add(cell)
            if len(distinct) > DISTINCT_CAP:
                distinct = None
    return (
        null_count, int_count, int_min, int_max,
        None if distinct is None else tuple(sorted(distinct)),
    )


#: Every way a cell can look like (or almost like) an integer to
#: ``int(str)``, plus nulls, non-ASCII and cells past one length byte.
_AWKWARD = ["", "0", "7", "-3", "007", "-0", "+5", " 7 ", "1_0", "١٢", "1e3",
            "0x10", "٣", "a", "é", "x" * 127, "y" * 128, "ü" * 70, "-", "+"]
_CELL = st.one_of(
    st.sampled_from(_AWKWARD),
    st.integers(-(2**66), 2**66).map(str),
    st.text(max_size=5),
)


@st.composite
def _tables(draw):
    n_cols = draw(st.integers(0, 5))
    n_rows = draw(st.integers(0, 90))
    columns = []
    for position in range(n_cols):
        kind = draw(st.sampled_from(["mixed", "null", "wide", "constant", "ints"]))
        if kind == "null":
            cells = [""] * n_rows
        elif kind == "wide":  # more distinct values than the zone map keeps
            cells = [f"v{(i * 7) % (DISTINCT_CAP + 9)}" for i in range(n_rows)]
        elif kind == "constant":
            cells = [draw(_CELL)] * n_rows
        elif kind == "ints":
            cells = draw(st.lists(st.integers(-500, 500).map(str),
                                  min_size=n_rows, max_size=n_rows))
        else:
            cells = draw(st.lists(_CELL, min_size=n_rows, max_size=n_rows))
        columns.append(cells)
    names = [f"c{i}·{'é' * (i % 2)}" for i in range(n_cols)]
    rows = [list(row) for row in zip(*columns)] if n_cols else [[] for __ in range(n_rows)]
    return Table(name="T", columns=names, rows=rows)


class TestCellsEntry:
    @given(table=_tables())
    @settings(max_examples=150, deadline=None)
    def test_property_cells_entry_equals_the_bytes_adapter(self, table):
        codec = get_codec("typedchannel")
        payload = serialize_table(table, "columnar")
        cell_lists = columnar_column_cells(table)
        blob = pack_cells(table.columns, len(table.rows), cell_lists)
        assert blob == codec.compress(payload)
        assert codec.decompress(blob) == payload
        # ... and so do the two halves ingest runs around its executor.
        channels = [build_channel(cells) for cells in cell_lists]
        assert assemble_channels(table.columns, len(table.rows), channels) == blob
        assert columnar_size(table, [c.raw_len for c in channels]) == len(payload)

    @given(table=_tables())
    @settings(max_examples=60, deadline=None)
    def test_property_row_payloads_run_the_same_implementation(self, table):
        codec = get_codec("typedchannel")
        payload = serialize_table(table, "row")
        blob = codec.compress(payload)
        assert codec.decompress(blob) == payload
        header = read_header(blob)
        if header is not None:  # canonical text: channels, not raw mode
            # (the text form of a 0-column table parses back as one
            # unnamed column, so compare against what the text holds)
            parsed = deserialize_table("T", payload, "row")
            assert blob == pack_cells(
                parsed.columns, len(parsed.rows), columnar_column_cells(parsed),
                mode=typedchannel._MODE_ROW,
            )

    @given(cells=st.lists(_CELL, max_size=150))
    @settings(max_examples=200, deadline=None)
    def test_property_zone_map_equals_the_per_cell_reference(self, cells):
        from collections import Counter

        zone = _zone_map_for(Counter(cells))
        assert (
            zone.null_count, zone.int_count, zone.int_min, zone.int_max,
            zone.distinct,
        ) == _reference_zone_map(cells)

    def test_zone_map_at_the_distinct_cap(self):
        from collections import Counter

        for n in (DISTINCT_CAP - 1, DISTINCT_CAP, DISTINCT_CAP + 1):
            cells = [str(i) for i in range(n)] * 2
            zone = _zone_map_for(Counter(cells))
            assert (zone.distinct is None) == (n > DISTINCT_CAP)
            assert zone.int_count == 2 * n
            assert (zone.int_min, zone.int_max) == (0, n - 1)

    def test_int_is_attempted_once_per_distinct_value(self, monkeypatch):
        calls = []

        def counting_int(value):
            calls.append(value)
            return int(value)

        monkeypatch.setattr(typedchannel, "int", counting_int, raising=False)
        cells = ["5", "x", "5", "", "x", "5"] * 50
        zone = build_channel(cells).zone
        assert sorted(calls) == ["", "5", "x"]
        assert (zone.int_count, zone.null_count) == (150, 50)

    def test_hand_built_payload_keeps_its_column_bytes_verbatim(self, codec):
        # Not the encoding the writer would pick (rle) — the adapter
        # must store the bytes it was given, or decompress would not
        # return the payload.
        table = Table(name="T", columns=["a"], rows=[["7"]] * 40)
        payload = assemble_columnar(table, [encode_column(["7"] * 40, "plain")])
        assert payload != serialize_table(table, "columnar")
        blob = codec.compress(payload)
        assert read_header(blob).zone("a").int_count == 40
        assert codec.decompress(blob) == payload

    def test_adapter_is_the_only_decoder_in_the_write_path(self, codec, monkeypatch):
        decoded = []
        real = typedchannel.decode_column

        def counting_decode(body, expected_cells=None):
            decoded.append(len(body))
            return real(body, expected_cells=expected_cells)

        monkeypatch.setattr(typedchannel, "decode_column", counting_decode)
        table = sample_table()
        pack_cells(table.columns, len(table.rows), columnar_column_cells(table))
        codec.compress(serialize_table(table, "row"))
        assert decoded == []
        codec.compress(serialize_table(table, "columnar"))
        assert len(decoded) == len(table.columns)
