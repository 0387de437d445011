"""Tests for the columnar pre-encodings (RLE / delta / dictionary)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.columnar import (
    _all_ints,
    _plain_size,
    choose_encoding,
    decode_column,
    delta_decode,
    delta_encode,
    dictionary_decode,
    dictionary_encode,
    encode_column,
    plain_decode,
    plain_encode,
    profile_column,
    rle_decode,
    rle_encode,
)
from repro.compression.varint import encode_varint, zigzag
from repro.errors import CorruptStreamError


class TestRle:
    def test_round_trip(self):
        cells = ["a"] * 10 + ["b"] * 3 + ["a"] * 2
        assert rle_decode(rle_encode(cells)) == cells

    def test_empty(self):
        assert rle_decode(rle_encode([])) == []

    def test_compresses_constant_column(self):
        cells = ["OK"] * 10_000
        assert len(rle_encode(cells)) < 32

    @given(st.lists(st.sampled_from(["x", "y", "zz", ""]), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_property_round_trip(self, cells):
        assert rle_decode(rle_encode(cells)) == cells


class TestDelta:
    def test_round_trip(self):
        cells = ["100", "105", "103", "200", "-5"]
        assert delta_decode(delta_encode(cells)) == cells

    def test_monotonic_timestamps_compress_well(self):
        cells = [str(1600000000 + i * 30) for i in range(1000)]
        assert len(delta_encode(cells)) < 6 * len(cells)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            delta_encode(["1", "x"])

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_property_round_trip(self, numbers):
        cells = [str(n) for n in numbers]
        assert delta_decode(delta_encode(cells)) == cells


class TestDictionary:
    def test_round_trip(self):
        cells = ["voice", "data", "voice", "sms", "data", "voice"]
        assert dictionary_decode(dictionary_encode(cells)) == cells

    def test_low_cardinality_compresses(self):
        cells = (["GSM"] * 5 + ["LTE"] * 3) * 500
        assert len(dictionary_encode(cells)) < 6 * len(cells)

    @given(st.lists(st.text(max_size=8), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_property_round_trip(self, cells):
        assert dictionary_decode(dictionary_encode(cells)) == cells


class TestPlain:
    @given(st.lists(st.text(max_size=20), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_property_round_trip(self, cells):
        assert plain_decode(plain_encode(cells)) == cells


class TestAutoSelection:
    def test_constant_column_picks_rle(self):
        assert choose_encoding(["x"] * 100) == "rle"

    def test_integers_pick_delta(self):
        assert choose_encoding([str(i) for i in range(100)]) == "delta"

    def test_low_cardinality_text_picks_dict(self):
        cells = ["voice", "data", "sms"] * 100
        assert choose_encoding(cells) in ("dict", "rle")

    def test_high_entropy_text_stays_plain(self):
        cells = [f"user-{i}-{i**2}" for i in range(200)]
        assert choose_encoding(cells) == "plain"

    def test_empty_column(self):
        assert choose_encoding([]) == "plain"

    def test_self_describing_round_trip(self):
        for cells in (
            ["a"] * 50,
            [str(i * 3) for i in range(50)],
            ["p", "q"] * 40,
            [f"blob{i}{i}" for i in range(50)],
            [],
        ):
            assert decode_column(encode_column(cells)) == cells

    def test_explicit_encoding_honored(self):
        cells = ["1", "2", "3"]
        blob = encode_column(cells, encoding="plain")
        assert decode_column(blob) == cells

    def test_unknown_encoding_id_rejected(self):
        with pytest.raises(CorruptStreamError):
            decode_column(bytes([250]) + b"junk")

    def test_empty_payload_rejected(self):
        with pytest.raises(CorruptStreamError):
            decode_column(b"")

    @given(st.lists(st.one_of(
        st.text(max_size=10),
        st.integers(-1000, 1000).map(str),
    ), max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_property_auto_round_trip(self, cells):
        assert decode_column(encode_column(cells)) == cells


# ----------------------------------------------------------------------
# Byte identity of the counted-pass encoders (PR 15)
# ----------------------------------------------------------------------
#
# The encoders were rewritten around C-speed primitives (Counter,
# groupby, bytes(codes)) and one shared column profile.  The per-cell
# loops they replaced are kept here, verbatim, as the reference: stored
# leaves must not change by a byte.


def _ref_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return encode_varint(len(raw)) + raw


def _ref_rle(cells):
    out = bytearray(encode_varint(len(cells)))
    i = 0
    n = len(cells)
    while i < n:
        j = i
        while j < n and cells[j] == cells[i]:
            j += 1
        out += encode_varint(j - i)
        out += _ref_str(cells[i])
        i = j
    return bytes(out)


def _ref_delta(cells):
    out = bytearray(encode_varint(len(cells)))
    prev = 0
    for cell in cells:
        value = int(cell)
        out += encode_varint(zigzag(value - prev))
        prev = value
    return bytes(out)


def _ref_dictionary(cells):
    table = {}
    codes = []
    for cell in cells:
        code = table.get(cell)
        if code is None:
            code = len(table)
            table[cell] = code
        codes.append(code)
    out = bytearray(encode_varint(len(cells)))
    out += encode_varint(len(table))
    for value in table:
        out += _ref_str(value)
    for code in codes:
        out += encode_varint(code)
    return bytes(out)


def _ref_plain(cells):
    out = bytearray(encode_varint(len(cells)))
    for cell in cells:
        out += _ref_str(cell)
    return bytes(out)


def _ref_choose(cells):
    if not cells:
        return "plain"
    distinct = set(cells)
    if len(distinct) == 1:
        return "rle"
    runs = sum(1 for a, b in zip(cells, cells[1:]) if a != b) + 1
    if runs <= len(cells) // 4:
        return "rle"
    if _all_ints(cells):
        return "delta"
    if len(distinct) <= max(16, len(cells) // 8):
        return "dict"
    return "plain"


#: Cells that stress every branch: runs, canonical and non-canonical
#: integers, nulls, non-ASCII, and one cell past the 127-byte length.
_CELLS = st.lists(
    st.one_of(
        st.sampled_from(
            ["", "0", "7", "-3", "007", "-0", "+5", " 7 ", "1_0", "١٢",
             "a", "b", "é", "x" * 127, "y" * 128, "ü" * 64]
        ),
        st.integers(-(2**70), 2**70).map(str),
        st.text(max_size=6),
    ),
    max_size=120,
)


class TestCountedPassIsByteIdentical:
    @given(_CELLS)
    @settings(max_examples=150, deadline=None)
    def test_property_encoders_equal_their_reference_loops(self, cells):
        assert rle_encode(cells) == _ref_rle(cells)
        assert dictionary_encode(cells) == _ref_dictionary(cells)
        assert plain_encode(cells) == _ref_plain(cells)
        assert _plain_size(cells) == len(_ref_plain(cells))

    @given(st.lists(st.integers(-(2**70), 2**70), max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_property_delta_equals_its_reference_loop(self, numbers):
        cells = [str(n) for n in numbers]
        assert delta_encode(cells) == _ref_delta(cells)

    def test_delta_small_and_wide_differences(self):
        for cells in (["5", "6", "5", "68"], ["0", "64"], ["0", "-64"], ["0", "65"], []):
            assert delta_encode(cells) == _ref_delta(cells)

    @given(_CELLS)
    @settings(max_examples=150, deadline=None)
    def test_property_choice_and_column_bytes_with_and_without_profile(self, cells):
        profile = profile_column(cells)
        assert choose_encoding(cells) == _ref_choose(cells)
        assert choose_encoding(cells, profile) == _ref_choose(cells)
        assert encode_column(cells, profile=profile) == encode_column(cells)
        assert decode_column(encode_column(cells)) == cells

    @given(_CELLS)
    @settings(max_examples=60, deadline=None)
    def test_property_profile_counts_values_and_runs(self, cells):
        counts, runs = profile_column(cells)
        assert list(counts) == list(dict.fromkeys(cells))  # first-seen order
        assert all(counts[cell] == cells.count(cell) for cell in counts)
        assert runs == sum(1 for a, b in zip(cells, cells[1:]) if a != b) + bool(cells)

    @pytest.mark.parametrize("size", [1, 127, 128, 129, 300])
    def test_dictionary_round_trips_around_the_one_byte_code_limit(self, size):
        cells = [f"v{i}" for i in range(size)] * 2 + ["v0", f"v{size - 1}"]
        encoded = dictionary_encode(cells)
        assert encoded == _ref_dictionary(cells)
        assert dictionary_decode(encoded) == cells

    def test_plain_size_of_long_and_non_ascii_cells(self):
        for cells in ([], [""], ["x" * 127], ["x" * 128], ["é"], ["a", "ü" * 70], ["a"] * 200):
            assert _plain_size(cells) == len(plain_encode(cells))
