"""Tests for the Hash value type and hashing helpers."""

import copy
import hashlib
import pickle

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


class TestEqualityContract:
    """``Hash`` is a ``bytes`` subclass whose hash runs in C, but it
    equals only another ``Hash``: never the raw digest, in either
    operand order, and it does not sort among byte strings."""

    def test_raw_digest_is_unequal_in_both_orders(self):
        digest = Hash.of_bytes(b"z")
        raw = digest.digest
        assert type(raw) is bytes
        assert digest != raw
        assert raw != digest
        assert not digest == raw
        assert not raw == digest

    def test_raw_digest_does_not_find_a_hash_key(self):
        digest = Hash.of_bytes(b"z")
        assert digest.digest not in {digest: 1}
        assert digest not in {digest.digest}

    def test_distinct_equal_objects_are_equal_hashes(self):
        first = Hash.of_bytes(b"q")
        second = Hash(bytes(first.digest))
        assert first is not second
        assert first == second
        assert not first != second
        assert hash(first) == hash(second)
        assert {first: "found"}[second] == "found"

    @pytest.mark.parametrize("order", [0, 1])
    def test_mixed_sort_raises(self, order):
        mixed = [Hash.of_bytes(b"a"), Hash.of_bytes(b"b").digest]
        if order:
            mixed.reverse()
        with pytest.raises(TypeError):
            sorted(mixed)

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_ordering_against_bytes_raises_both_ways(self, op):
        digest = Hash.of_bytes(b"o")
        raw = Hash.of_bytes(b"p").digest
        compare = {
            "<": lambda x, y: x < y,
            "<=": lambda x, y: x <= y,
            ">": lambda x, y: x > y,
            ">=": lambda x, y: x >= y,
        }[op]
        with pytest.raises(TypeError):
            compare(digest, raw)
        with pytest.raises(TypeError):
            compare(raw, digest)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        digest = Hash.of_bytes(b"p")
        restored = pickle.loads(pickle.dumps(digest, protocol))
        assert type(restored) is Hash
        assert restored == digest

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copy_round_trip(self, clone):
        digest = Hash.of_bytes(b"c")
        copied = clone(digest)
        assert type(copied) is Hash
        assert copied == digest

    def test_wire_encodes_the_digest_as_bytes(self):
        digest = Hash.of_bytes(b"e")
        assert wire.encode(digest) == wire.encode(digest.digest)
        decoded = wire.decode(wire.encode(digest))
        assert type(decoded) is bytes
        assert decoded == digest.digest

    def test_str_is_the_short_repr(self):
        digest = Hash.of_bytes(b"s")
        assert str(digest) == repr(digest) == f"Hash({digest.short()})"

    def test_digest_and_hex_are_plain(self):
        digest = Hash.of_bytes(b"h")
        assert type(digest.digest) is bytes
        assert type(bytes(digest)) is bytes
        assert digest.hex() == hashlib.sha256(b"h").hexdigest()


class TestHelpers:
    def test_sha256_helper(self):
        assert sha256(b"abc") == hashlib.sha256(b"abc").digest()

    def test_hash_value_helper(self):
        assert hash_value([1, 2]) == Hash.of_value([1, 2])
