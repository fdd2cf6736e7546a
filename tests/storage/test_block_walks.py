"""How often a block is walked on its way from writer to restart.

A block is immutable, so its canonical encoding is a constant of the
object: the process that constructs a ``Block`` walks it once (header
and transactions turned into wire maps and encoded) and every later
consumer — signing payload, hash, store record, any number of messages —
reuses those bytes.  The count is of ``BlockHeader.to_wire`` calls, the
first step of every walk, over one block's whole path: created,
validated and persisted by its writer; served to a peer; merged,
validated and persisted there; reloaded from that peer's store.
"""

from __future__ import annotations

import pytest

from repro.chain.block import BlockHeader, Transaction
from repro.live import LiveNode
from repro.reconcile import FrontierProtocol
from repro.storage import load_node

from tests.conftest import Deployment
from tests.reconcile.test_registry import _in_process, _over_asyncio


# (driver, walks at the receiver): in one process the receiver is handed
# the writer's object; over the network it constructs its own, once.
DRIVERS = [(_in_process, 0), (_over_asyncio, 1)]


@pytest.mark.parametrize("drive,receiver_walks", DRIVERS)
def test_one_walk_per_process_that_constructs_the_block(
        drive, receiver_walks, tmp_path, monkeypatch):
    deployment = Deployment()
    writer, receiver = (
        LiveNode(
            deployment.keys[index], tmp_path / f"{name}.blocks",
            genesis=deployment.genesis, name=name, runtime=deployment.runtime,
        )
        for index, name in enumerate(("writer", "receiver"))
    )
    walks = []
    real_to_wire = BlockHeader.to_wire
    monkeypatch.setattr(
        BlockHeader, "to_wire",
        lambda header: (walks.append(1), real_to_wire(header))[1],
    )

    def walked() -> int:
        count = len(walks)
        del walks[:]
        return count

    # Sign, encode, validate, CSM replay, store record: one walk.
    block = writer.append_transactions(
        [Transaction("events", "append", [{"reading": 7}])]
    )
    assert walked() == 1

    # Serving it walks nothing; receiving it walks it once, and that
    # one encoding is also what is verified and what goes to disk.
    stats = drive(FrontierProtocol(), receiver.node, writer.node)
    assert stats.converged and stats.blocks_pulled == 1
    receiver._persist_blocks(origin="pull:writer")
    assert walked() == receiver_walks

    # A second peer costs the responder nothing either.
    third = deployment.node(2)
    assert drive(FrontierProtocol(), third, writer.node).blocks_pulled == 1
    assert walked() == receiver_walks

    for node in (writer, receiver):
        node.store.close()

    # A restart constructs the two blocks of its store: one walk each.
    reloaded = load_node(deployment.keys[1], receiver.store.path)
    assert walked() == 2
    assert reloaded.has_block(block.hash)
    assert reloaded.state_digest() == writer.node.state_digest()
