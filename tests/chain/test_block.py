"""Block and transaction structure tests (Fig. 2)."""

import tracemalloc

import pytest

from repro.chain.block import (
    Block,
    BlockHeader,
    MAX_ARG_DEPTH,
    MAX_PARENTS,
    MAX_TRANSACTIONS,
    Transaction,
)
from repro.chain.errors import MalformedBlockError
from repro.crypto.keys import KeyPair
from repro.crypto.sha import Hash
from repro.reconcile.session import decode_message, encode_message


@pytest.fixture
def key():
    return KeyPair.deterministic(50)


def nested_args(levels):
    """Args *levels* levels deep, the args list and its innermost 0
    included."""
    value = 0
    for _ in range(levels - 1):
        value = [value]
    return value


# Positions in the list form.
HEADER, TRANSACTIONS = 0, 2
LOCATION, PARENTS, TIMESTAMP = 0, 1, 2
ARGS = 2


def _parent_hashes(n):
    return [Hash.of_value(["parent", i]) for i in range(n)]


class TestTransaction:
    def test_wire_roundtrip(self):
        tx = Transaction("events", "append", [{"k": 1}])
        restored = Transaction.from_wire(tx.to_wire())
        assert restored == tx

    def test_empty_names_rejected(self):
        with pytest.raises(MalformedBlockError):
            Transaction("", "op", [])
        with pytest.raises(MalformedBlockError):
            Transaction("crdt", "", [])

    def test_malformed_wire_rejected(self):
        with pytest.raises(MalformedBlockError):
            Transaction.from_wire({"crdt": "x", "op": "y", "args": []})
        with pytest.raises(MalformedBlockError):
            Transaction.from_wire(["x", "y"])  # missing args

    @pytest.mark.parametrize("kind", ["push_blocks", "blocks"])
    def test_the_deepest_legal_args_travel_in_a_message(self, key, kind):
        tx = Transaction("x", "y", nested_args(MAX_ARG_DEPTH))
        block = Block.create(key, [], 1, [tx])
        message = decode_message(
            encode_message({"type": kind, "blocks": [block]})
        )
        assert message["blocks"] == [block]
        assert message["blocks"][0].transactions == [tx]

    def test_args_one_level_deeper_are_refused(self):
        args = nested_args(MAX_ARG_DEPTH + 1)
        with pytest.raises(MalformedBlockError, match="nest deeper"):
            Transaction("x", "y", args)
        with pytest.raises(MalformedBlockError, match="nest deeper"):
            Transaction.from_wire(["x", "y", args])
        # A map is a level too: {"k": 0} under MAX_ARG_DEPTH - 1 lists.
        args = {"k": 0}
        for _ in range(MAX_ARG_DEPTH - 1):
            args = [args]
        with pytest.raises(MalformedBlockError, match="nest deeper"):
            Transaction("x", "y", args)
        Transaction("x", "y", args[0])


class TestBlockHeader:
    def test_parents_stored_sorted(self):
        parents = _parent_hashes(3)
        header = BlockHeader(Hash.of_value(["u"]), 100, list(reversed(parents)))
        assert header.parents == sorted(parents)

    def test_duplicate_parents_rejected(self):
        parent = Hash.of_value(["p"])
        with pytest.raises(MalformedBlockError):
            BlockHeader(Hash.of_value(["u"]), 100, [parent, parent])

    def test_too_many_parents_rejected(self):
        with pytest.raises(MalformedBlockError):
            BlockHeader(
                Hash.of_value(["u"]), 100, _parent_hashes(MAX_PARENTS + 1)
            )

    def test_location_fixed_point(self):
        header = BlockHeader(
            Hash.of_value(["u"]), 100, [], location=(424433000, -764935000)
        )
        assert header.location == (424433000, -764935000)
        restored = BlockHeader.from_wire(header.to_wire())
        assert restored.location == header.location

    def test_wire_roundtrip_without_location(self):
        header = BlockHeader(Hash.of_value(["u"]), 100, _parent_hashes(2))
        restored = BlockHeader.from_wire(header.to_wire())
        assert restored.parents == header.parents
        assert restored.timestamp == header.timestamp
        assert restored.user_id == header.user_id
        assert restored.location is None


class TestBlock:
    def test_create_signs_correctly(self, key):
        block = Block.create(key, [], 100, [Transaction("c", "op", [1])])
        assert key.public_key.verify(block.signing_payload(), block.signature)
        assert block.user_id == key.user_id

    def test_hash_covers_signature(self, key):
        block = Block.create(key, [], 100)
        tampered = Block(block.header, block.transactions, b"\x00" * 64)
        assert tampered.hash != block.hash

    def test_hash_covers_transactions(self, key):
        a = Block.create(key, [], 100, [Transaction("c", "op", [1])])
        b = Block.create(key, [], 100, [Transaction("c", "op", [2])])
        assert a.hash != b.hash

    def test_same_content_same_hash(self, key):
        a = Block.create(key, [], 100, [Transaction("c", "op", [1])])
        b = Block.create(key, [], 100, [Transaction("c", "op", [1])])
        assert a.hash == b.hash  # Ed25519 signing is deterministic

    def test_bytes_roundtrip(self, key):
        parents = _parent_hashes(2)
        block = Block.create(
            key, parents, 100,
            [Transaction("c", "op", [{"x": [1, b"2", None]}])],
            location=(1, 2),
        )
        restored = Block.from_bytes(block.to_bytes())
        assert restored == block
        assert restored.hash == block.hash
        assert restored.parents == block.parents

    def test_wire_size_matches_encoding(self, key):
        block = Block.create(key, [], 100)
        assert block.wire_size == len(block.to_bytes())

    def test_genesis_detection(self, key):
        assert Block.create(key, [], 0).is_genesis()
        parent = Block.create(key, [], 0)
        child = Block.create(key, [parent.hash], 1)
        assert not child.is_genesis()

    def test_too_many_transactions_rejected(self, key):
        txs = [Transaction("c", "op", [i]) for i in range(MAX_TRANSACTIONS + 1)]
        with pytest.raises(MalformedBlockError):
            Block.create(key, [], 100, txs)

    def test_undecodable_bytes_rejected(self):
        with pytest.raises(MalformedBlockError):
            Block.from_bytes(b"\xff\xff\xff")

    def test_wire_missing_signature_rejected(self, key):
        wire_form = Block.create(key, [], 100).to_wire()
        del wire_form[1]  # [header, signature, transactions]
        with pytest.raises(MalformedBlockError):
            Block.from_wire(wire_form)

    # Header positions: [location, parents, timestamp, user_id].
    @pytest.mark.parametrize("field,value", [
        (1, [300_000_000]),
        (3, 300_000_000),
    ], ids=["parents-value0", "user_id-300000000"])
    def test_wire_int_digest_rejected_without_allocating(self, key, field,
                                                         value):
        """``bytes(300_000_000)`` is 300 MB of zeros: a digest that is
        not a byte string must be refused before any conversion."""
        wire_form = Block.create(key, [], 100).to_wire()
        wire_form[0][field] = value
        tracemalloc.start()
        try:
            with pytest.raises(MalformedBlockError):
                Block.from_wire(wire_form)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    # Positions: block [header, signature, transactions], header
    # [location, parents, timestamp, user_id], transaction [crdt, op,
    # args]; one past the end appends a field.
    @pytest.mark.parametrize("path,value", [
        ((HEADER, TIMESTAMP), "12"),
        ((HEADER, TIMESTAMP), b"12"),
        ((HEADER, TIMESTAMP), True),
        ((HEADER, LOCATION), ["1", True]),
        ((HEADER, LOCATION), [1, 2, 3]),
        ((HEADER, LOCATION), {"0": 1, "1": 2}),
        ((HEADER, PARENTS), {}),
        ((HEADER, PARENTS), "reversed"),
        ((HEADER, 4), 1),
        ((TRANSACTIONS,), {}),
        ((TRANSACTIONS, 0, ARGS), "xy"),
        ((TRANSACTIONS, 0, ARGS), {"x": 1}),
        ((TRANSACTIONS, 0, 3), 1),
        ((3,), 1),
    ])
    def test_wire_value_the_constructors_would_coerce_is_rejected(
            self, key, path, value):
        """``int("12")``, ``int(True)``, ``list("xy")``, ``sorted(...)``:
        each made a second wire form of a block with the honest hash,
        accepted from a message while ``from_bytes`` refused it."""
        honest = Block.create(
            key, _parent_hashes(2), 12,
            [Transaction("c", "op", [1])], location=(1, 2),
        )
        wire_form = honest.to_wire()
        if value == "reversed":
            value = list(reversed(wire_form[HEADER][PARENTS]))
        target = wire_form
        for step in path[:-1]:
            target = target[step]
        if path[-1] == len(target):
            target.append(value)
        else:
            target[path[-1]] = value
        with pytest.raises(MalformedBlockError):
            Block.from_wire(wire_form)
        assert Block.from_wire(honest.to_wire()) == honest

    def test_equality_is_by_hash(self, key):
        a = Block.create(key, [], 100)
        b = Block.from_bytes(a.to_bytes())
        assert a == b
        assert hash(a) == hash(b)
