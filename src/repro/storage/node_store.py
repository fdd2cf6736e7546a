"""Saving and restoring a replica.

``save_node`` writes the DAG in insertion order (genesis first);
``restore_node`` rebuilds a :class:`VegvisirNode` from such a sequence
by replaying it through the normal receive pipeline, and ``load_node``
is that replay over a block store.  Replayed blocks re-run every §IV-E
check, signature included, except the local-clock bound: their
timestamps are historical, so the validator's "now" is taken from the
stored blocks themselves rather than the device clock, which may have
reset across the reboot.  Restart, crash recovery and support-chain
bootstrap (§IV-I) all go through this one loop.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Union

from repro.chain.block import Block
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.storage.blockstore import BlockStore, StorageError


def save_node(node: VegvisirNode,
              path: Union[str, pathlib.Path]) -> BlockStore:
    """Write the replica's full DAG to a fresh block store at *path*."""
    path = pathlib.Path(path)
    if path.exists():
        path.unlink()
    store = BlockStore(path)
    store.append_all(node.dag.blocks())
    store.close()  # the handle reopens transparently on a later append
    return store


def restore_node(key_pair: KeyPair, blocks: Iterable[Block],
                 **node_kwargs) -> VegvisirNode:
    """Rebuild a replica from *blocks*: a genesis block, then the rest
    in a parent-closed order.

    Every block after the genesis is validated and replayed exactly as
    if received from a peer; a sequence that does not validate raises,
    rather than loading silently-wrong state.
    """
    iterator = iter(blocks)
    genesis = next(iterator, None)
    if genesis is None:
        raise StorageError("no blocks to restore from")
    if not genesis.is_genesis():
        raise StorageError("first stored block is not a genesis block")
    node = VegvisirNode(key_pair, genesis, **node_kwargs)
    # Validate timestamps against stored history, not the fresh clock.
    restored_now = genesis.timestamp
    for block in iterator:
        restored_now = max(restored_now, block.timestamp)
        node.validator.validate(block, now_ms=restored_now)
        node.dag.add_block(block)
        node.csm.replay_block(block)
    return node


def load_node(key_pair: KeyPair, path: Union[str, pathlib.Path],
              **node_kwargs) -> VegvisirNode:
    """Rebuild a replica from the block store at *path*."""
    return restore_node(key_pair, BlockStore(path).blocks(), **node_kwargs)
