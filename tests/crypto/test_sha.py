"""Tests for the Hash value type and hashing helpers."""

import hashlib

import pytest

from repro import wire
from repro.crypto.sha import Hash, hash_value, sha256


class TestHash:
    def test_of_bytes_matches_hashlib(self):
        assert Hash.of_bytes(b"abc").digest == hashlib.sha256(b"abc").digest()

    def test_of_value_hashes_canonical_encoding(self):
        value = {"k": [1, 2, 3]}
        assert Hash.of_value(value).digest == hashlib.sha256(
            wire.encode(value)
        ).digest()

    def test_equal_values_equal_hashes(self):
        assert Hash.of_value({"a": 1, "b": 2}) == Hash.of_value({"b": 2, "a": 1})

    def test_hex_roundtrip(self):
        original = Hash.of_bytes(b"x")
        assert Hash.from_hex(original.hex()) == original

    def test_short_is_prefix_of_hex(self):
        digest = Hash.of_bytes(b"y")
        assert digest.hex().startswith(digest.short())
        assert len(digest.short()) == 8

    def test_usable_as_dict_key(self):
        table = {Hash.of_bytes(b"a"): 1, Hash.of_bytes(b"b"): 2}
        assert table[Hash.of_bytes(b"a")] == 1

    def test_ordering_matches_bytes(self):
        a, b = Hash.of_bytes(b"a"), Hash.of_bytes(b"b")
        assert (a < b) == (a.digest < b.digest)

    def test_sorted_hashes_are_deterministic(self):
        hashes = [Hash.of_bytes(bytes([i])) for i in range(10)]
        assert sorted(hashes) == sorted(hashes, key=lambda h: h.digest)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Hash(b"too short")

    @pytest.mark.parametrize("value", [
        300_000_000,  # bytes(n) would allocate n zero bytes first
        [0] * 32,
        "0" * 32,
        None,
    ])
    def test_only_byte_strings_accepted(self, value):
        with pytest.raises(TypeError):
            Hash(value)

    def test_bytearray_and_memoryview_accepted(self):
        digest = Hash.of_bytes(b"v")
        assert Hash(bytearray(digest.digest)) == digest
        assert Hash(memoryview(digest.digest)) == digest

    def test_bytes_conversion(self):
        digest = Hash.of_bytes(b"z")
        assert bytes(digest) == digest.digest

    def test_not_equal_to_raw_bytes(self):
        digest = Hash.of_bytes(b"z")
        assert digest != digest.digest

    def test_repr_contains_short_form(self):
        digest = Hash.of_bytes(b"w")
        assert digest.short() in repr(digest)


class TestHelpers:
    def test_sha256_helper(self):
        assert sha256(b"abc") == hashlib.sha256(b"abc").digest()

    def test_hash_value_helper(self):
        assert hash_value([1, 2]) == Hash.of_value([1, 2])
