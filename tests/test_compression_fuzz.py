"""Adversarial decoder tests: corrupt streams must raise
CorruptStreamError (or round-trip if the corruption missed anything
load-bearing) — never escape with IndexError/KeyError/etc."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import get_codec
from repro.errors import CompressionError

CODECS = ["gzip", "7z", "snappy", "zstd", "gzip-ref", "typedchannel"]

#: Valid magics so fuzz inputs reach the real decoder paths.
MAGICS = {
    "gzip": b"\x1f\x9d",
    "7z": b"LZM",
    "snappy": b"SNP",
    "zstd": b"ZST",
    "gzip-ref": b"",
    "typedchannel": b"TCH1",
}


def _attempt(codec, payload: bytes) -> None:
    """Decompress must either succeed or raise a CompressionError."""
    try:
        codec.decompress(payload)
    except CompressionError:
        pass  # CorruptStreamError included — the contract
    # Any other exception type propagates and fails the test.


@pytest.mark.parametrize("name", CODECS)
class TestGarbageStreams:
    def test_random_bytes_with_magic(self, name):
        codec = get_codec(name)
        rng = random.Random(7)
        for trial in range(25):
            garbage = MAGICS[name] + bytes(
                rng.randrange(256) for __ in range(rng.randrange(1, 200))
            )
            _attempt(codec, garbage)

    def test_bit_flips_in_valid_stream(self, name):
        codec = get_codec(name)
        payload = b"telco snapshot data " * 40
        compressed = bytearray(codec.compress(payload))
        rng = random.Random(13)
        for trial in range(30):
            mutated = bytearray(compressed)
            pos = rng.randrange(len(mutated))
            mutated[pos] ^= 1 << rng.randrange(8)
            _attempt(codec, bytes(mutated))

    def test_truncations(self, name):
        codec = get_codec(name)
        compressed = codec.compress(b"abcdefgh" * 100)
        for cut in range(0, len(compressed), max(1, len(compressed) // 20)):
            _attempt(codec, compressed[:cut])

    @given(data=st.binary(min_size=0, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_property_arbitrary_prefixed_garbage(self, name, data):
        codec = get_codec(name)
        _attempt(codec, MAGICS[name] + data)


class TestLengthBombs:
    """Headers claiming absurd lengths must not hang or allocate wildly."""

    def test_gzip_like_huge_declared_length(self):
        from repro.compression.varint import encode_varint

        codec = get_codec("gzip")
        # magic + huge raw_len + empty-ish body -> must fail fast.
        bomb = b"\x1f\x9d" + encode_varint(2**40) + b"\x00\x00\x00"
        _attempt(codec, bomb)

    def test_lzma_like_huge_declared_length_fails_fast(self):
        from repro.compression.varint import encode_varint

        codec = get_codec("7z")
        bomb = b"LZM" + encode_varint(2**40) + bytes(16)
        with pytest.raises(CompressionError):
            codec.decompress(bomb)

    def test_snappy_literal_overrun(self):
        from repro.compression.varint import encode_varint

        codec = get_codec("snappy")
        bomb = (
            b"SNP" + encode_varint(10)
            + b"\x00" + encode_varint(2**30) + b"xx"
        )
        with pytest.raises(CompressionError):
            codec.decompress(bomb)


class TestColumnarStreams:
    """Columnar transform decoders under the same contract: corrupt
    inputs raise CorruptStreamError, never IndexError/ValueError/etc."""

    def _attempt_column(self, payload: bytes, expected=None) -> None:
        from repro.compression.columnar import decode_column

        try:
            decode_column(payload, expected_cells=expected)
        except CompressionError:
            pass

    def test_random_garbage(self):
        rng = random.Random(29)
        for trial in range(60):
            garbage = bytes(
                rng.randrange(256) for __ in range(rng.randrange(0, 80))
            )
            self._attempt_column(garbage)

    def test_bit_flips_in_valid_columns(self):
        from repro.compression.columnar import encode_column

        columns = [
            ["voice"] * 40 + ["sms"] * 20,          # rle/dict
            [str(i * 7) for i in range(60)],        # delta
            [f"cell-{i}" for i in range(60)],       # plain-ish
        ]
        rng = random.Random(31)
        for cells in columns:
            blob = bytearray(encode_column(cells))
            for trial in range(40):
                mutated = bytearray(blob)
                pos = rng.randrange(len(mutated))
                mutated[pos] ^= 1 << rng.randrange(8)
                self._attempt_column(bytes(mutated), expected=len(cells))

    def test_truncations(self):
        from repro.compression.columnar import encode_column

        blob = encode_column([str(i % 9) for i in range(200)])
        for cut in range(len(blob)):
            self._attempt_column(blob[:cut], expected=200)

    def test_cell_count_mismatch_rejected(self):
        from repro.compression.columnar import encode_column

        blob = encode_column(["a", "b", "c"])
        with pytest.raises(CompressionError):
            from repro.compression.columnar import decode_column

            decode_column(blob, expected_cells=4)

    def test_declared_cell_bomb(self):
        from repro.compression.varint import encode_varint

        # plain encoding id 0 + absurd cell count, then nothing.
        self._attempt_column(b"\x00" + encode_varint(2**40))

    def test_per_encoding_cell_count_mismatch_rejected(self):
        from repro.compression.columnar import decode_column, encode_column

        columns = {
            "plain": ["x", "y", "z"],
            "rle": ["a"] * 10,
            "dict": ["p", "q", "p", "q"],
            "delta": ["1", "4", "9"],
        }
        for encoding, cells in columns.items():
            blob = encode_column(cells, encoding=encoding)
            for wrong in (len(cells) - 1, len(cells) + 1, 0):
                if wrong == len(cells):
                    continue
                with pytest.raises(CompressionError):
                    decode_column(blob, expected_cells=wrong)

    def test_per_encoding_trailing_garbage_rejected(self):
        from repro.compression.columnar import decode_column, encode_column

        columns = {
            "plain": ["x", "y", "z"],
            "rle": ["a"] * 10 + ["b"] * 3,
            "dict": ["p", "q", "p", "q"],
            "delta": ["1", "4", "9", "-2"],
        }
        for encoding, cells in columns.items():
            blob = encode_column(cells, encoding=encoding)
            with pytest.raises(CompressionError):
                decode_column(blob + b"\x00", expected_cells=len(cells))
            with pytest.raises(CompressionError):
                decode_column(blob + b"junk", expected_cells=len(cells))

    def test_per_encoding_truncation_never_escapes(self):
        from repro.compression.columnar import encode_column

        columns = {
            "plain": [f"cell-{i}" for i in range(40)],
            "rle": ["on"] * 25 + ["off"] * 15,
            "dict": [str(i % 4) for i in range(40)],
            "delta": [str(i * 13) for i in range(40)],
        }
        for encoding, cells in columns.items():
            blob = encode_column(cells, encoding=encoding)
            for cut in range(len(blob)):
                self._attempt_column(blob[:cut], expected=len(cells))

    def test_rle_zero_length_run_rejected(self):
        from repro.compression.columnar import decode_column, encode_column
        from repro.compression.varint import decode_varint, encode_varint

        # Splice a zero-length run in front of a valid RLE stream: the
        # declared total still matches, so only an explicit run-length
        # check catches it (a naive decoder would loop forever on a
        # stream of zero-runs).
        blob = encode_column(["v"] * 6, encoding="rle")
        encoding_id = blob[:1]
        rest = blob[1:]
        total, pos = decode_varint(rest, 0)
        spliced = (
            encoding_id
            + encode_varint(total)
            + encode_varint(0)  # run length 0
            + encode_varint(1)  # value byte-length
            + b"z"
            + rest[pos:]
        )
        with pytest.raises(CompressionError):
            decode_column(spliced, expected_cells=6)

    def test_rle_overrun_rejected(self):
        from repro.compression.columnar import decode_column, encode_column
        from repro.compression.varint import decode_varint, encode_varint

        # Declared total smaller than the runs actually supply.
        blob = encode_column(["v"] * 6 + ["w"] * 2, encoding="rle")
        encoding_id = blob[:1]
        rest = blob[1:]
        __, pos = decode_varint(rest, 0)
        understated = encoding_id + encode_varint(3) + rest[pos:]
        with pytest.raises(CompressionError):
            decode_column(understated, expected_cells=3)

    @given(
        cells=st.lists(
            st.text(
                alphabet=st.characters(codec="utf-8", max_codepoint=0x2FF),
                max_size=12,
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip_and_never_larger_than_plain(self, cells):
        from repro.compression.columnar import (
            decode_column,
            encode_column,
        )

        auto = encode_column(cells)
        assert decode_column(auto, expected_cells=len(cells)) == cells
        plain = encode_column(cells, encoding="plain")
        assert len(auto) <= len(plain)
        for encoding in ("plain", "rle", "dict", "delta"):
            if encoding == "delta" and not all(
                c.lstrip("-").isdigit() and str(int(c)) == c for c in cells if True
            ):
                continue
            forced = encode_column(cells, encoding=encoding)
            assert decode_column(forced, expected_cells=len(cells)) == cells

    def test_choose_encoding_adversarial_columns(self):
        from repro.compression.columnar import choose_encoding, encode_column

        adversarial = [
            ["a", "b"] * 50,                  # alternating: RLE would lose
            ["x"],                            # single cell
            ["1", "", "3"],                   # empty cell breaks int runs
            ["9" * 400, "1"],                 # huge ints
            [str(2**80), str(-(2**80))],      # beyond any fixed-width delta
            ["00", "0", "-0"],                # non-canonical integers
            ["same"] * 3 + ["diff"] * 97,     # run then churn
        ]
        for cells in adversarial:
            name = choose_encoding(cells)
            auto = encode_column(cells)
            plain = encode_column(cells, encoding="plain")
            assert len(auto) <= len(plain), (cells, name)
            from repro.compression.columnar import decode_column

            assert decode_column(auto, expected_cells=len(cells)) == cells


class TestColumnarTables:
    """Whole-table columnar payloads through deserialize_table."""

    def _table(self):
        from repro.core.snapshot import Table

        return Table(
            name="CDR",
            columns=["caller", "callee", "duration_s"],
            rows=[[f"u{i % 5}", f"u{(i + 1) % 7}", str(i * 3)] for i in range(50)],
        )

    def _attempt_table(self, payload: bytes) -> None:
        from repro.core.layout import deserialize_table
        from repro.errors import SpateError

        try:
            deserialize_table("CDR", payload, "columnar")
        except SpateError:
            pass

    def test_bit_flips(self):
        from repro.core.layout import serialize_table

        blob = bytearray(serialize_table(self._table(), "columnar"))
        rng = random.Random(37)
        for trial in range(80):
            mutated = bytearray(blob)
            pos = rng.randrange(len(mutated))
            mutated[pos] ^= 1 << rng.randrange(8)
            self._attempt_table(bytes(mutated))

    def test_truncations(self):
        from repro.core.layout import serialize_table

        blob = serialize_table(self._table(), "columnar")
        for cut in range(0, len(blob), max(1, len(blob) // 50)):
            self._attempt_table(blob[:cut])

    @given(data=st.binary(min_size=0, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_property_garbage_tables(self, data):
        self._attempt_table(data)


class TestTypedChannelStreams:
    """Typed-channel blobs: header parsing and selective decode must
    uphold the corrupt-stream contract on table-mode payloads too."""

    def _blobs(self):
        from repro.core.layout import serialize_table
        from repro.core.snapshot import Table
        from repro.compression import get_codec

        table = Table(
            name="CDR",
            columns=["cell_id", "call_type", "duration_s"],
            rows=[
                [f"c{i % 6}", ("voice", "sms", "data")[i % 3], str(i * 11)]
                for i in range(40)
            ],
        )
        codec = get_codec("typedchannel")
        return (
            codec,
            codec.compress(serialize_table(table, "columnar")),
            codec.compress(serialize_table(table, "row")),
        )

    def _attempt_header(self, blob: bytes) -> None:
        from repro.compression.typedchannel import read_header

        try:
            read_header(blob)
        except CompressionError:
            pass

    def _attempt_decode_table(self, blob: bytes) -> None:
        from repro.compression.typedchannel import decode_table

        try:
            decode_table("CDR", blob, columns=("duration_s",))
        except CompressionError:
            pass

    def test_bit_flips_both_modes(self):
        codec, columnar, row = self._blobs()
        rng = random.Random(43)
        for blob in (columnar, row):
            for trial in range(60):
                mutated = bytearray(blob)
                pos = rng.randrange(len(mutated))
                mutated[pos] ^= 1 << rng.randrange(8)
                corrupted = bytes(mutated)
                _attempt(codec, corrupted)
                self._attempt_header(corrupted)
                self._attempt_decode_table(corrupted)

    def test_truncations_both_modes(self):
        codec, columnar, row = self._blobs()
        for blob in (columnar, row):
            for cut in range(len(blob)):
                _attempt(codec, blob[:cut])
                self._attempt_header(blob[:cut])
                self._attempt_decode_table(blob[:cut])

    def test_zone_map_distinct_bomb(self):
        from repro.compression.varint import encode_varint

        codec, __, __unused = self._blobs()
        # mode 1, one column, absurd distinct count in the zone map.
        bomb = (
            b"TCH1\x01"
            + encode_varint(1)  # n_columns
            + encode_varint(3)  # n_rows
            + encode_varint(1) + b"c"  # column name
            + encode_varint(0) * 4  # body_len raw_len null_count int_count
            + encode_varint(0) * 2  # zigzag min/max
            + b"\x01" + encode_varint(2**40)  # distinct set bomb
        )
        with pytest.raises(CompressionError):
            codec.decompress(bomb)

    def test_zone_map_distinct_count_bound_is_the_writers(self):
        """The writer drops a distinct set larger than DISTINCT_CAP, so a
        header declaring CAP + 1 values was not written by it — rejected,
        while exactly CAP values (the writer's maximum) still parse."""
        import dataclasses

        from repro.compression.typedchannel import (
            DISTINCT_CAP,
            assemble_channels,
            build_channel,
            read_header,
        )

        def blob_with(n_distinct: int) -> bytes:
            # Forge the zone map: the writer's own would drop an
            # over-cap distinct set.
            cells = [f"v{i:03d}" for i in range(n_distinct)]
            channel = build_channel(cells)
            forged = dataclasses.replace(channel.zone, distinct=tuple(cells))
            return assemble_channels(
                ["c"], len(cells), [channel._replace(zone=forged)], mode=1
            )

        codec, __, __unused = self._blobs()
        at_cap = blob_with(DISTINCT_CAP)
        assert len(read_header(at_cap).zone("c").distinct) == DISTINCT_CAP
        assert codec.compress(codec.decompress(at_cap)) == at_cap
        over = blob_with(DISTINCT_CAP + 1)
        with pytest.raises(CompressionError, match="distinct values"):
            read_header(over)
        with pytest.raises(CompressionError):
            codec.decompress(over)
        # ... and the writer itself never emits the over-cap form: one
        # more distinct value and the set is dropped, not stored.
        from repro.core.snapshot import Table

        wide = Table(
            name="T", columns=["c"],
            rows=[[f"v{i:03d}"] for i in range(DISTINCT_CAP + 1)],
        )
        assert read_header(codec.compress(wide.serialize())).zone("c").distinct is None

    def test_body_length_sum_mismatch(self):
        codec, columnar, __ = self._blobs()
        with pytest.raises(CompressionError):
            codec.decompress(columnar + b"extra")

    @given(data=st.binary(min_size=0, max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_property_garbage_headers(self, data):
        codec, __, __unused = self._blobs()
        for mode in (b"\x00", b"\x01", b"\x02", b"\x7f"):
            blob = b"TCH1" + mode + data
            _attempt(codec, blob)
            self._attempt_header(blob)


class TestDictionaryStreams:
    """zstd streams compressed against a trained shared dictionary."""

    def _codecs(self):
        from repro.compression.zstd import ZstdCodec, ZstdDictionary

        samples = [b"telco-shared-preamble|%d|" % i * 30 for i in range(6)]
        trained = ZstdDictionary.train(samples)
        other = ZstdDictionary.train([b"completely different corpus " * 40])
        return (
            ZstdCodec(dictionary=trained),
            ZstdCodec(dictionary=other),
            ZstdCodec(),
        )

    def test_round_trip_and_wrong_dictionary_rejected(self):
        with_dict, wrong_dict, plain = self._codecs()
        payload = b"telco-shared-preamble|42|" * 50
        blob = with_dict.compress(payload)
        assert with_dict.decompress(blob) == payload
        with pytest.raises(CompressionError):
            wrong_dict.decompress(blob)
        with pytest.raises(CompressionError):
            plain.decompress(blob)
        # The reverse is fine: the stream's flag byte says no dictionary
        # is needed, so a dict-configured codec decodes it without one.
        assert with_dict.decompress(plain.compress(payload)) == payload

    def test_bit_flips(self):
        with_dict, __, __unused = self._codecs()
        blob = bytearray(with_dict.compress(b"shared window data " * 60))
        rng = random.Random(41)
        for trial in range(40):
            mutated = bytearray(blob)
            pos = rng.randrange(len(mutated))
            mutated[pos] ^= 1 << rng.randrange(8)
            _attempt(with_dict, bytes(mutated))

    def test_truncations(self):
        with_dict, __, __unused = self._codecs()
        blob = with_dict.compress(b"truncate me " * 80)
        for cut in range(0, len(blob), max(1, len(blob) // 30)):
            _attempt(with_dict, blob[:cut])

    @given(data=st.binary(min_size=0, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_property_garbage_dict_streams(self, data):
        with_dict, __, __unused = self._codecs()
        _attempt(with_dict, b"ZST" + data)
