"""Rebuilding a replica from the support blockchain.

Because support blocks preserve the Vegvisir DAG's topological order
(§IV-I), the archive alone is enough to reconstruct a replica: replay
the genesis block, then each archived body in support-chain order,
through the same validating loop a restart uses
(:func:`~repro.storage.node_store.restore_node`).  A device that lost
everything — or a brand-new member — can therefore bootstrap from a
superpeer instead of a long chain of peer-to-peer frontier sessions.
"""

from __future__ import annotations

from repro.chain.block import Block
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.storage.node_store import restore_node
from repro.support.support_chain import SupportChain, SupportChainError


def bootstrap_from_support(
    key_pair: KeyPair,
    genesis: Block,
    chain: SupportChain,
    **node_kwargs,
) -> VegvisirNode:
    """Build a fresh replica from a genesis block plus the archive.

    The genesis block itself is not on the support chain (it identifies
    the chain, §IV-G) and must be supplied; every archived body is then
    validated and replayed in archive order.  Raises
    :class:`SupportChainError` if the archive does not belong to this
    genesis; validation errors propagate if the archive was tampered.
    """
    if chain.vegvisir_genesis != genesis.hash:
        raise SupportChainError(
            "support chain does not belong to this genesis block"
        )
    bodies = (support_block.body for support_block in chain.blocks())
    return restore_node(key_pair, [genesis, *bodies], **node_kwargs)
