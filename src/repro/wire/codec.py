"""Deterministic tag-length-value codec.

The format is intentionally small.  Seven type tags cover everything the
blockchain needs; integers use unsigned LEB128 varints with a zigzag
transform for signed values; maps sort their keys by encoded bytes so that
any two structurally equal values produce identical byte strings.

Canonicity is enforced in both directions:

* ``encode`` produces the unique canonical byte string for a value;
* ``decode`` rejects any byte string that ``encode`` could not have
  produced (overlong varints, unsorted or duplicate map keys, trailing
  garbage), so ``encode(decode(b)) == b`` for every accepted ``b``.

Supported Python types: ``None``, ``bool``, ``int``, ``bytes``, ``str``,
``list``/``tuple`` (decoded as ``list``), and ``dict`` with ``str`` keys.
``encode`` also accepts :class:`Encoded` — a value this process has
already encoded — anywhere a value may stand, and splices its bytes in
verbatim; ``decode`` never produces one.
Floats are deliberately unsupported: they have no canonical total order
across platforms and the protocol never needs them (fixed-point integers
are used for locations and energy accounting instead).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.wire.errors import DecodeError, EncodeError

TAG_NULL = 0x00
TAG_FALSE = 0x01
TAG_TRUE = 0x02
TAG_INT = 0x03
TAG_BYTES = 0x04
TAG_STR = 0x05
TAG_LIST = 0x06
TAG_MAP = 0x07

#: How deep ``decode`` reads: the top-level value is at depth 0, and a
#: value inside a list or map one deeper than the container.
MAX_DEPTH = 64

_TAG_NAMES = {
    TAG_NULL: "null",
    TAG_FALSE: "false",
    TAG_TRUE: "true",
    TAG_INT: "int",
    TAG_BYTES: "bytes",
    TAG_STR: "str",
    TAG_LIST: "list",
    TAG_MAP: "map",
}


class Encoded:
    """A value already in canonical wire form, spliced in by ``encode``.

    ``encode([Encoded(encode(v))]) == encode([v])``: an immutable value
    that travels in many messages (a block) is walked once and its
    bytes reused.  Only for bytes this process produced with
    :func:`encode` — nothing here re-checks them, so wrapping received
    bytes would forward whatever a peer sent.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        if not isinstance(data, bytes):
            raise EncodeError(
                f"Encoded wraps bytes, got {type(data).__name__}"
            )
        self.data = data

    def __repr__(self) -> str:
        return f"Encoded({len(self.data)} B)"


def _write_uvarint(out: bytearray, value: int) -> None:
    """Append the LEB128 encoding of a non-negative integer."""
    if value < 0:
        raise EncodeError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(TAG_NULL)
    elif value is True:
        out.append(TAG_TRUE)
    elif value is False:
        out.append(TAG_FALSE)
    elif isinstance(value, int):
        out.append(TAG_INT)
        _write_uvarint(out, _zigzag_signed(value))
    elif isinstance(value, bytes):
        out.append(TAG_BYTES)
        _write_uvarint(out, len(value))
        out += value
    elif isinstance(value, (bytearray, memoryview)):
        data = bytes(value)
        out.append(TAG_BYTES)
        _write_uvarint(out, len(data))
        out += data
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(TAG_STR)
        _write_uvarint(out, len(data))
        out.extend(data)
    elif isinstance(value, (list, tuple)):
        out.append(TAG_LIST)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        _encode_map_into(out, value)
    elif isinstance(value, Encoded):
        out += value.data
    else:
        raise EncodeError(f"type {type(value).__name__} is not wire-encodable")


def _zigzag_signed(value: int) -> int:
    """Zigzag-encode using arbitrary-precision arithmetic."""
    if value >= 0:
        return value << 1
    return ((-value) << 1) - 1


def _unzigzag_signed(value: int) -> int:
    if value & 1:
        return -((value + 1) >> 1)
    return value >> 1


def _encode_map_into(out: bytearray, mapping: dict) -> None:
    # Keys first — the entries go out in the order of their encoded
    # keys — then each value straight into *out*.
    entries = []
    for key, item in mapping.items():
        if not isinstance(key, str):
            raise EncodeError(
                f"map keys must be str, got {type(key).__name__}"
            )
        data = key.encode("utf-8")
        if len(data) < 0x80:  # one length byte: every key in use
            key_bytes = b"%c%c%b" % (TAG_STR, len(data), data)
        else:
            head = bytearray((TAG_STR,))
            _write_uvarint(head, len(data))
            key_bytes = bytes(head) + data
        entries.append((key_bytes, item))
    entries.sort(key=itemgetter(0))
    for i in range(1, len(entries)):
        if entries[i][0] == entries[i - 1][0]:
            raise EncodeError("duplicate map key after canonicalization")
    out.append(TAG_MAP)
    _write_uvarint(out, len(entries))
    for key_bytes, item in entries:
        out += key_bytes
        _encode_into(out, item)


def encode(value: Any) -> bytes:
    """Serialize *value* to its unique canonical byte string.

    Raises :class:`EncodeError` for unsupported types (notably ``float``)
    and for maps with non-string keys.
    """
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def encoded_size(value: Any) -> int:
    """Number of bytes :func:`encode` would produce for *value*."""
    return len(encode(value))


class _Reader:
    """Cursor over an immutable byte string with canonicity checks.

    The varint loop reads through local variables and writes the cursor
    back once — decoding is dominated by varints (every length, every
    int), and attribute traffic per byte is what made it slow.
    """

    __slots__ = ("data", "pos", "_end")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self._end = len(data)

    def u8(self) -> int:
        pos = self.pos
        if pos >= self._end:
            raise DecodeError("unexpected end of input")
        byte = self.data[pos]
        self.pos = pos + 1
        return byte

    def take(self, count: int) -> bytes:
        pos = self.pos
        end = pos + count
        if end > self._end:
            raise DecodeError("unexpected end of input")
        chunk = self.data[pos:end]
        self.pos = end
        return chunk

    def uvarint(self) -> int:
        data = self.data
        pos = self.pos
        limit = self._end
        result = 0
        shift = 0
        while True:
            if pos >= limit:
                raise DecodeError("unexpected end of input")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if byte == 0 and shift != 0:
                    raise DecodeError("overlong varint encoding")
                self.pos = pos
                return result
            shift += 7
            if shift > 1022:
                raise DecodeError("varint too long")


def _decode_value(reader: _Reader, depth: int) -> Any:
    if depth > MAX_DEPTH:
        raise DecodeError(f"nesting depth exceeds limit of {MAX_DEPTH}")
    tag = reader.u8()
    if tag == TAG_NULL:
        return None
    if tag == TAG_TRUE:
        return True
    if tag == TAG_FALSE:
        return False
    if tag == TAG_INT:
        return _unzigzag_signed(reader.uvarint())
    if tag == TAG_BYTES:
        return reader.take(reader.uvarint())
    if tag == TAG_STR:
        raw = reader.take(reader.uvarint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid utf-8 in string") from exc
    if tag == TAG_LIST:
        count = reader.uvarint()
        return [_decode_value(reader, depth + 1) for _ in range(count)]
    if tag == TAG_MAP:
        count = reader.uvarint()
        result: dict = {}
        previous_key_bytes = None
        for _ in range(count):
            key_start = reader.pos
            key = _decode_value(reader, depth + 1)
            key_bytes = reader.data[key_start:reader.pos]
            if not isinstance(key, str):
                raise DecodeError("map key is not a string")
            if previous_key_bytes is not None and key_bytes <= previous_key_bytes:
                raise DecodeError("map keys not in canonical order")
            previous_key_bytes = key_bytes
            result[key] = _decode_value(reader, depth + 1)
        return result
    raise DecodeError(f"unknown type tag 0x{tag:02x}")


def decode(data: bytes) -> Any:
    """Parse a canonical byte string back into a Python value.

    Rejects non-canonical input: overlong varints, unsorted or duplicate
    map keys, invalid UTF-8, unknown tags, and trailing bytes.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    reader = _Reader(data)
    value = _decode_value(reader, 0)
    if reader.pos != len(data):
        raise DecodeError(
            f"{len(data) - reader.pos} trailing bytes after value"
        )
    return value
