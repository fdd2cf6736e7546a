"""A block a replica accepts can travel.

Every limit on a block is listed in ``LIMITS``.  For each, the largest
block it allows crosses every message that carries blocks, framed at
the default frame limit beside the longest digest list that message may
carry, and the block store.  One past each limit is refused both where
a block is built and where one is read.

The last test is the oversize write that used to cut its writer off:
seventeen transactions of a million characters each made a block larger
than a frame, which the writer stored and then could send to no peer.
"""

from __future__ import annotations

import pytest

from repro import wire
from repro.chain.block import (
    MAX_ARG_DEPTH,
    MAX_BLOCK_BYTES,
    MAX_PARENTS,
    MAX_TRANSACTIONS,
    Block,
    Transaction,
)
from repro.chain.errors import MalformedBlockError
from repro.crypto.keys import KeyPair
from repro.crypto.sha import DIGEST_SIZE, Hash
from repro.reconcile import FrontierProtocol
from repro.reconcile.session import (
    BATCH_BUDGET_BYTES,
    decode_message,
    encode_message,
)
from repro.storage.blockstore import BlockStore

from tests.conftest import over_loopback

KEY = KeyPair.deterministic(61)


def _nested(levels):
    """Args *levels* levels deep, the args list and its innermost 0
    included."""
    value = 0
    for _ in range(levels - 1):
        value = [value]
    return value


def _block(transactions=(), parents=()):
    return Block.create(KEY, list(parents), 1, list(transactions))


def _parents(count):
    return [Hash.of_value(["parent", i]) for i in range(count)]


def _sized(size):
    """A one-transaction block of exactly *size* bytes (some megabytes:
    the argument's length prefix is then four bytes, not one)."""
    base = _block([Transaction("c", "op", [""])]).wire_size
    return _block([Transaction("c", "op", ["x" * (size - base - 3)])])


#: limit -> (the largest block it allows, a builder of one past it).
LIMITS = {
    "depth": (
        lambda: _block([Transaction("c", "op", _nested(MAX_ARG_DEPTH))]),
        lambda: _block([Transaction("c", "op", _nested(MAX_ARG_DEPTH + 1))]),
    ),
    "size": (
        lambda: _sized(MAX_BLOCK_BYTES),
        lambda: _sized(MAX_BLOCK_BYTES + 1),
    ),
    "parents": (
        lambda: _block(parents=_parents(MAX_PARENTS)),
        lambda: _block(parents=_parents(MAX_PARENTS + 1)),
    ),
    "transactions": (
        lambda: _block([Transaction("c", "op", [i])
                        for i in range(MAX_TRANSACTIONS)]),
        lambda: _block([Transaction("c", "op", [i])
                        for i in range(MAX_TRANSACTIONS + 1)]),
    ),
}

#: The longest digest list a message carries beside its blocks.
_DIGESTS = [
    Hash.of_value(["digest", i]).digest
    for i in range(BATCH_BUDGET_BYTES // DIGEST_SIZE)
]

#: Every message that carries blocks, at its fullest.
MESSAGES = {
    "blocks": {"type": "blocks", "hashes": _DIGESTS},
    "frontier_set": {"type": "frontier_set", "frontier": _DIGESTS,
                     "more": True},
    "push_blocks": {"type": "push_blocks"},
}


@pytest.fixture(scope="module", params=sorted(LIMITS))
def largest(request):
    return request.param, LIMITS[request.param][0]()


def test_the_size_limit_is_the_block_encoding():
    assert _sized(MAX_BLOCK_BYTES).wire_size == MAX_BLOCK_BYTES


@pytest.mark.parametrize("kind", sorted(MESSAGES))
def test_the_largest_block_crosses_every_message(largest, kind):
    _, block = largest
    payload = encode_message({**MESSAGES[kind], "blocks": [block]})
    (received,) = wire.FrameDecoder().feed(
        wire.frame_header(len(payload)) + payload
    )
    message = decode_message(received)
    assert message["blocks"] == [block]
    assert message["blocks"][0].to_bytes() == block.to_bytes()


def test_the_largest_block_crosses_the_store(largest, tmp_path):
    _, block = largest
    with BlockStore(tmp_path / "limits.vgv", fsync=False) as store:
        store.append(block)
    assert [stored.to_bytes() for stored in BlockStore(
        tmp_path / "limits.vgv"
    ).blocks()] == [block.to_bytes()]


@pytest.mark.parametrize("limit", sorted(LIMITS))
def test_one_past_the_limit_is_refused(limit):
    with pytest.raises(MalformedBlockError):
        LIMITS[limit][1]()


def test_a_block_over_the_size_limit_is_refused_from_the_wire():
    value = _sized(MAX_BLOCK_BYTES).to_wire()
    value[2][0][2][0] += "x"  # one more character in the argument
    with pytest.raises(MalformedBlockError, match="byte limit"):
        Block.from_wire(value)


def test_an_oversize_write_is_refused_and_the_writer_keeps_syncing(
        deployment):
    writer, peer = deployment.node(0), deployment.node(1)
    big = "x" * 1_000_000
    before = writer.dag.frontier()
    with pytest.raises(MalformedBlockError, match="byte limit"):
        writer.append_transactions(
            [Transaction("ledger", "append", [big]) for _ in range(17)]
        )
    assert writer.dag.frontier() == before
    # Sixteen of them are a block that fits, and it reaches the peer;
    # so does what the writer appends on top of it.
    largest = writer.append_transactions(
        [Transaction("ledger", "append", [big]) for _ in range(16)]
    )
    above = writer.append_transactions([])
    stats = over_loopback(FrontierProtocol(), writer, peer)
    assert not stats.interrupted
    assert largest.hash in peer.dag and above.hash in peer.dag
    assert peer.dag.frontier() == writer.dag.frontier()
