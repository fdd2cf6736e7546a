"""A block is encoded once, and everything is read off those bytes.

``Block`` keeps the encoding its constructor computes for the hash;
``to_bytes``, ``wire_size``, ``signing_payload`` and the blocks of a
lowered message are all that one byte string, whole or sliced.  These
properties hold the kept bytes against the plain walk over ``to_wire()``
for every shape a block can take, and hold ``from_wire`` to the rule
that makes keeping them safe: a block has exactly one wire form.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import wire
from repro.chain.block import Block, BlockHeader, Transaction
from repro.chain.errors import MalformedBlockError
from repro.crypto.keys import KeyPair
from repro.crypto.sha import Hash
from repro.reconcile.session import lower

from tests.wire.test_codec_properties import _values

_hashes = st.integers(0, 10_000).map(lambda i: Hash.of_value(["h", i]))
_names = st.text(min_size=1, max_size=12)
_transactions = st.builds(
    Transaction, _names, _names, st.lists(_values, max_size=4)
)
_locations = st.none() | st.tuples(
    st.integers(-(2**31), 2**31), st.integers(-(2**31), 2**31)
)
_headers = st.builds(
    BlockHeader,
    user_id=_hashes,
    timestamp=st.integers(0, 2**48),
    parents=st.lists(_hashes, max_size=64, unique=True),
    location=_locations,
)
# The signature is opaque here: 64 bytes is Ed25519, 0 and 200 put the
# length prefix at one and two bytes.
_signatures = st.sampled_from([0, 64, 200]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)
_blocks = st.builds(
    Block, _headers, st.lists(_transactions, max_size=5), _signatures
)


def _walked_payload(block: Block) -> bytes:
    return wire.encode([
        block.header.to_wire(),
        [tx.to_wire() for tx in block.transactions],
    ])


@given(_blocks)
@settings(max_examples=200)
def test_kept_bytes_are_the_walk(block):
    encoded = block.to_bytes()
    assert encoded == wire.encode(block.to_wire())
    assert block.to_bytes() is encoded
    assert block.wire_size == len(encoded)
    assert block.hash == Hash.of_bytes(encoded)
    assert block.signing_payload() == _walked_payload(block)


@given(_blocks)
@settings(max_examples=200)
def test_bytes_roundtrip_keeps_its_own_encoding(block):
    received = bytes(bytearray(block.to_bytes()))  # a span of our own
    parsed = Block.from_bytes(received)
    assert parsed == block
    assert parsed.to_bytes() == received
    assert parsed.to_bytes() is not received
    assert parsed.signing_payload() == block.signing_payload()


@given(st.lists(_blocks, max_size=4), _values)
@settings(max_examples=100)
def test_spliced_message_is_the_walked_message(blocks, extra):
    message = {"type": "blocks", "blocks": blocks, "extra": extra}
    walked = {**message, "blocks": [block.to_wire() for block in blocks]}
    assert wire.encode(lower(message)) == wire.encode(walked)


def test_create_signs_the_payload_it_hands_out():
    key = KeyPair.deterministic(77)
    parents = [Hash.of_value(["p", i]) for i in range(3)]
    txs = [Transaction("c", "op", [{"k": [1, b"2", None]}])]
    block = Block.create(key, parents, 100, txs, location=(1, -2))
    assert block.signing_payload() == _walked_payload(block)
    assert key.public_key.verify(block.signing_payload(), block.signature)
    rebuilt = Block(block.header, block.transactions, block.signature)
    assert rebuilt.to_bytes() == block.to_bytes()
    assert block.to_bytes() == wire.encode(block.to_wire())


# ----------------------------------------------------------------------
# One wire form: whatever from_wire accepts encodes to the block's bytes.

# Positions: block [header, signature, transactions], header
# [location, parents, timestamp, user_id], transaction [crdt, op, args].
# A position one past the end appends a field.
_HEADER, _SIGNATURE, _TRANSACTIONS = 0, 1, 2
_PATHS = [
    (),
    (_HEADER,),
    (_HEADER, 2),  # timestamp
    (_HEADER, 0),  # location
    (_HEADER, 1),  # parents
    (_HEADER, 3),  # user_id
    (_SIGNATURE,),
    (_TRANSACTIONS,),
    (_TRANSACTIONS, 0),
    (_TRANSACTIONS, 0, 0),  # crdt
    (_TRANSACTIONS, 0, 1),  # op
    (_TRANSACTIONS, 0, 2),  # args
    (_HEADER, 4),
    (_TRANSACTIONS, 0, 3),
    (3,),
]

_SEED_BLOCK = Block(
    BlockHeader(
        Hash.of_value(["u"]), 12,
        [Hash.of_value(["p", i]) for i in range(3)], location=(1, 2),
    ),
    [Transaction("c", "op", ["xy", {"x": 1}])],
    b"\x07" * 64,
)


def _replaced(value, path, replacement):
    if not path:
        return replacement
    copy = list(value)
    if path[0] == len(copy):
        copy.append(None)
    copy[path[0]] = _replaced(copy[path[0]], path[1:], replacement)
    return copy


@given(st.sampled_from(_PATHS), _values)
@settings(max_examples=400)
def test_whatever_from_wire_accepts_is_the_canonical_form(path, replacement):
    value = _replaced(_SEED_BLOCK.to_wire(), path, replacement)
    try:
        block = Block.from_wire(value)
    except MalformedBlockError:
        return
    assert block.to_bytes() == wire.encode(value)
