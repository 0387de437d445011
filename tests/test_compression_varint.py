"""Unit tests for the varint codec."""

import pytest
from hypothesis import given, strategies as st

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


class TestEncode:
    def test_small_values_are_one_byte(self):
        for value in (0, 1, 127):
            assert len(encode_varint(value)) == 1

    def test_128_needs_two_bytes(self):
        assert len(encode_varint(128)) == 2

    def test_specific_encoding(self):
        assert encode_varint(300) == bytes([0xAC, 0x02])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)


class TestDecode:
    def test_round_trip_with_offset(self):
        data = b"xx" + encode_varint(12345) + b"tail"
        value, pos = decode_varint(data, 2)
        assert value == 12345
        assert data[pos:] == b"tail"

    def test_truncated_raises(self):
        with pytest.raises(CorruptStreamError):
            decode_varint(bytes([0x80]))

    def test_empty_raises(self):
        with pytest.raises(CorruptStreamError):
            decode_varint(b"")

    def test_overlong_raises(self):
        with pytest.raises(CorruptStreamError):
            decode_varint(bytes([0x80] * 10 + [0x01]))

    @given(st.integers(0, 2**63 - 1))
    def test_property_round_trip(self, value):
        encoded = encode_varint(value)
        decoded, pos = decode_varint(encoded)
        assert decoded == value
        assert pos == len(encoded)

    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=20))
    def test_property_concatenated_stream(self, values):
        blob = b"".join(encode_varint(v) for v in values)
        pos = 0
        out = []
        for _ in values:
            value, pos = decode_varint(blob, pos)
            out.append(value)
        assert out == values
        assert pos == len(blob)


def _loop_varint(value: int) -> bytes:
    """The general LEB128 loop, kept here as the reference for the
    one-byte table and the arithmetic length."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


class TestFastPaths:
    EDGES = [*range(301), 2**14 - 1, 2**14, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70]

    def test_table_equals_loop(self):
        for value in self.EDGES:
            assert encode_varint(value) == _loop_varint(value), value

    def test_small_values_are_immutable_bytes(self):
        # The table hands out shared objects; bytes cannot be mutated.
        assert type(encode_varint(5)) is bytes
        assert encode_varint(5) is encode_varint(5)

    def test_varint_len_is_the_encoded_length(self):
        for value in self.EDGES:
            assert varint_len(value) == len(_loop_varint(value)), value

    @given(st.integers(0, 2**80))
    def test_property_len(self, value):
        assert varint_len(value) == len(encode_varint(value))


class TestZigzag:
    def test_small_values_interleave(self):
        assert [zigzag(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]

    @given(st.integers(-(2**80), 2**80))
    def test_property_round_trip(self, value):
        assert zigzag(value) >= 0
        assert unzigzag(zigzag(value)) == value


class TestStrings:
    @given(st.text(max_size=300), st.binary(max_size=4))
    def test_property_round_trip_with_offset(self, value, prefix):
        data = prefix + encode_str(value) + b"tail"
        decoded, pos = decode_str(data, len(prefix))
        assert decoded == value
        assert data[pos:] == b"tail"

    def test_truncated_string_is_corrupt(self):
        with pytest.raises(CorruptStreamError):
            decode_str(encode_str("hello")[:-1], 0)

    def test_invalid_utf8_is_corrupt_not_a_unicode_error(self):
        with pytest.raises(CorruptStreamError):
            decode_str(encode_varint(2) + b"\xff\xfe", 0)
