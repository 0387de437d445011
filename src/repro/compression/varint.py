"""LEB128-style unsigned varints, and the zigzag / length-prefixed
string forms the codec containers build from them."""

from __future__ import annotations

from repro.errors import CorruptStreamError

#: Lengths, run counts and dictionary codes are almost all below 128.
_ONE_BYTE = tuple(bytes([value]) for value in range(128))


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a little-endian base-128 varint."""
    if value < 128:
        if value < 0:
            raise ValueError("varints encode non-negative integers only")
        return _ONE_BYTE[value]
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def varint_len(value: int) -> int:
    """``len(encode_varint(value))`` without building it."""
    return 1 if value < 128 else (value.bit_length() + 6) // 7


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint starting at ``offset``.

    Returns:
        ``(value, next_offset)``.

    Raises:
        CorruptStreamError: on truncated input or absurd length.
    """
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise CorruptStreamError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CorruptStreamError("varint longer than 64 bits")


def zigzag(value: int) -> int:
    """Fold a signed integer onto the non-negative ones (0, -1, 1, -2…)."""
    # Arbitrary-precision form: Python ints are unbounded, so the
    # C-style ``(v << 1) ^ (v >> 63)`` trick mis-folds values beyond 64
    # bits instead of wrapping like it would in C.
    return ((-value) << 1) - 1 if value < 0 else value << 1


def unzigzag(value: int) -> int:
    """Invert :func:`zigzag`."""
    return (value >> 1) ^ -(value & 1)


def encode_str(value: str) -> bytes:
    """UTF-8 bytes behind their varint length."""
    raw = value.encode("utf-8")
    return encode_varint(len(raw)) + raw


def decode_str(data: bytes, pos: int) -> tuple[str, int]:
    """Invert :func:`encode_str` at ``pos``; returns ``(value, next_pos)``.

    Raises:
        CorruptStreamError: on a truncated or non-UTF-8 string.
    """
    length, pos = decode_varint(data, pos)
    raw = data[pos : pos + length]
    if len(raw) != length:
        raise CorruptStreamError("truncated length-prefixed string")
    try:
        return raw.decode("utf-8"), pos + length
    except UnicodeDecodeError as exc:
        raise CorruptStreamError(f"string is not UTF-8: {exc}") from exc
