"""Property-based tests for the wire codec.

Two invariants define canonicity:

1. ``decode(encode(v)) == v`` for every encodable value (round trip);
2. ``encode(decode(b)) == b`` for every accepted byte string (uniqueness).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import wire

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**128), max_value=2**128),
    st.binary(max_size=64),
    st.text(max_size=64),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=8), children, max_size=6),
    ),
    max_leaves=25,
)


@given(_values)
@settings(max_examples=300)
def test_roundtrip(value):
    assert wire.decode(wire.encode(value)) == value


@given(_values)
@settings(max_examples=300)
def test_encoding_is_unique(value):
    encoded = wire.encode(value)
    assert wire.encode(wire.decode(encoded)) == encoded


@given(_values, _values)
def test_distinct_values_have_distinct_encodings(a, b):
    if a != b:
        assert wire.encode(a) != wire.encode(b)


@given(st.binary(max_size=128))
def test_decode_never_crashes_uncontrolled(data):
    try:
        value = wire.decode(data)
    except wire.DecodeError:
        return
    # Anything accepted must re-encode to exactly the same bytes.
    assert wire.encode(value) == data


# ----------------------------------------------------------------------
# Pre-encoded values: spliced by encode, never produced by decode.

def _holds_encoded(value) -> bool:
    if isinstance(value, wire.Encoded):
        return True
    if isinstance(value, list):
        return any(_holds_encoded(item) for item in value)
    if isinstance(value, dict):
        return any(_holds_encoded(item) for item in value.values())
    return False


@given(_values, _values)
def test_encoded_splices_in_lists_and_maps(a, b):
    spliced = [
        wire.Encoded(wire.encode(a)),
        {"k": wire.Encoded(wire.encode(b)), "z": a},
        [wire.Encoded(wire.encode([a, b]))],
    ]
    plain = [a, {"k": b, "z": a}, [[a, b]]]
    encoded = wire.encode(spliced)
    assert encoded == wire.encode(plain)
    assert wire.encode(wire.Encoded(encoded)) == encoded
    decoded = wire.decode(encoded)
    assert decoded == plain and not _holds_encoded(decoded)


@pytest.mark.parametrize(
    "not_bytes", ["text", bytearray(b"\x00"), None, 7, [b"\x00"]]
)
def test_encoded_wraps_bytes_only(not_bytes):
    with pytest.raises(wire.EncodeError):
        wire.Encoded(not_bytes)


def _uvarint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte, value = value & 0x7F, value >> 7
        out.append(byte | 0x80 if value else byte)
        if not value:
            return bytes(out)


def _reference_encode(value) -> bytes:
    """Containers the way the codec built them before it wrote map
    values straight into the output: every key and value encoded into a
    buffer of its own, the pairs sorted by key bytes, then joined."""
    if isinstance(value, dict):
        entries = sorted(
            (wire.encode(key), _reference_encode(item))
            for key, item in value.items()
        )
        return b"\x07" + _uvarint(len(entries)) + b"".join(
            key + item for key, item in entries
        )
    if isinstance(value, list):
        return b"\x06" + _uvarint(len(value)) + b"".join(
            _reference_encode(item) for item in value
        )
    return wire.encode(value)


# Keys on both sides of the one-byte length prefix (127 / 128 bytes).
_long_keys = st.integers(120, 135).flatmap(
    lambda size: st.text(
        alphabet="abcdefgh", min_size=size, max_size=size
    )
)
_keyed = st.dictionaries(
    st.text(max_size=8) | _long_keys, _values, max_size=6
)


@given(_values | _keyed)
@settings(max_examples=300)
def test_map_encoder_matches_the_buffered_reference(value):
    assert wire.encode(value) == _reference_encode(value)
