"""Superpeers (paper §IV-I, Fig. 5).

A superpeer is a higher-powered node — the paper draws deployable trucks
— that participates in the Vegvisir gossip like any member but also
maintains the support blockchain: as it learns new blocks, it archives
them in topological order so constrained devices can drop their copies.
"""

from __future__ import annotations

from typing import Optional

from repro.core.node import VegvisirNode
from repro.crypto.sha import Hash
from repro.support.support_chain import SupportChain


class Superpeer:
    """A full Vegvisir replica that also feeds the support chain."""

    def __init__(self, node: VegvisirNode, chain: Optional[SupportChain] = None):
        self.node = node
        # `chain or ...` would discard an *empty* shared chain (len 0 is
        # falsy); compare against None explicitly.
        self.chain = chain if chain is not None else SupportChain(
            node.chain_id
        )
        self._archive_cursor = 0

    def archive_new_blocks(self, timestamp: Optional[int] = None) -> int:
        """Archive every replica block not yet on the support chain.

        Walks the replica's insertion order (a topological order), so the
        support chain's topological-order rule is satisfied by
        construction.  Returns the number archived.
        """
        when = timestamp if timestamp is not None else self.node.now_ms()
        new_hashes = self.node.dag.inserted_since(self._archive_cursor)
        archived = 0
        for block_hash in new_hashes:
            if block_hash == self.node.chain_id:
                continue  # genesis is implicitly archived
            if not self.chain.is_archived(block_hash):
                self.chain.append(
                    self.node.dag.get(block_hash), self.node.key_pair, when
                )
                archived += 1
        self._archive_cursor += len(new_hashes)
        return archived

    def archived_fraction(self) -> float:
        """Fraction of the replica's non-genesis blocks archived."""
        total = len(self.node.dag) - 1
        if total <= 0:
            return 1.0
        return len(self.chain) / total

    def serve_block(self, vegvisir_hash: Hash):
        """Recover a block body for a device that dropped it."""
        return self.chain.fetch(vegvisir_hash)

    def __repr__(self) -> str:
        return (
            f"Superpeer(user={self.node.user_id.short()}, "
            f"archived={len(self.chain)})"
        )
