"""Proof-of-witness (paper §IV-H).

A malicious node can drop a freshly created block, so an application must
not act on a transaction until enough distinct users demonstrably hold a
copy.  A user *witnesses* a block by appending any block that has it as an
ancestor — the new block's signature proves its creator held the whole
ancestry.  A block has a *proof-of-witness* at quorum ``k`` once blocks
signed by at least ``k`` distinct users (other than its creator) descend
from it; the proof covers all its ancestors too.

:class:`WitnessTracker` answers these queries over a :class:`BlockDAG`,
incrementally: each added block contributes its creator as a witness to
every ancestor that does not already have it.
"""

from __future__ import annotations

from repro.chain.dag import BlockDAG
from repro.crypto.sha import Hash


class WitnessTracker:
    """Incremental witness sets over one replica's DAG."""

    def __init__(self, dag: BlockDAG):
        self._dag = dag
        self._witnesses: dict[Hash, set[Hash]] = {}
        self._processed: set[Hash] = set()
        # How much of the DAG's insertion order sync() has consumed.
        self._synced = 0
        self.sync()

    def observe_block(self, block_hash: Hash) -> None:
        """Account for one block already present in the DAG.

        Idempotent; call after every :meth:`BlockDAG.add_block` (or use
        :meth:`sync` to catch up in bulk).

        The walk stops at an ancestor that its creator already
        witnesses: whichever block put the creator there put it on every
        ancestor below as well.  So each block takes each distinct
        creator once, and the total work is O(blocks x creators), not
        one full ancestor walk per block.
        """
        if block_hash in self._processed:
            return
        block = self._dag.get(block_hash)
        self._processed.add(block_hash)
        self._witnesses.setdefault(block_hash, set())
        creator = block.user_id
        table = self._dag.table
        stack = list(block.parents)
        while stack:
            ancestor = stack.pop()
            witnesses = self._witnesses.setdefault(ancestor, set())
            if creator in witnesses:
                continue
            witnesses.add(creator)
            stack.extend(table[ancestor].parents)

    def sync(self) -> None:
        """Process any DAG blocks added since the last call."""
        for block_hash in self._dag.inserted_since(self._synced):
            self.observe_block(block_hash)
        self._synced = len(self._dag)

    def witnesses(self, block_hash: Hash) -> set[Hash]:
        """User ids that signed a descendant of *block_hash* (creator
        excluded — witnessing your own block proves nothing)."""
        self._require(block_hash)
        creator = self._dag.get(block_hash).user_id
        return self._witnesses.get(block_hash, set()) - {creator}

    def witness_count(self, block_hash: Hash) -> int:
        return len(self.witnesses(block_hash))

    def has_proof_of_witness(self, block_hash: Hash, quorum: int) -> bool:
        """Has *quorum* distinct other users witnessed this block?

        The proof extends to every ancestor of the block automatically:
        any witness of this block also witnesses all its ancestors.
        """
        if quorum < 0:
            raise ValueError("quorum must be non-negative")
        return self.witness_count(block_hash) >= quorum

    def unwitnessed(self, quorum: int) -> list[Hash]:
        """Blocks that have not yet reached *quorum* (excluding genesis
        when it has, naturally, the fewest descendants of all)."""
        return sorted(
            block_hash
            for block_hash in self._processed
            if not self.has_proof_of_witness(block_hash, quorum)
        )

    def _require(self, block_hash: Hash) -> None:
        if block_hash not in self._processed:
            # The block may have been added to the DAG after our last
            # sync; catch up transparently.
            self.sync()
            if block_hash not in self._processed:
                self._dag.get(block_hash)  # raises UnknownBlockError
