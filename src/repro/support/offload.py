"""Storage-constrained offloading (paper §IV-I).

"Typically, IoT devices would only [drop blocks] when running low on
storage, and would only offload their oldest blocks."  The
:class:`OffloadManager` wraps one device's replica with a storage budget
in bytes.  When over budget and in contact with a superpeer, it releases
block *bodies* oldest-first (lowest height, then timestamp) — but only
bodies the superpeer's support chain has already archived, so nothing is
ever lost, and never frontier blocks (they are still being reconciled).

The DAG's *structure* (hashes, parent links, replayed CRDT state) is
retained — dropping a body frees its payload bytes while provenance
stays verifiable via the support chain.
"""

from __future__ import annotations



from repro.core.node import VegvisirNode
from repro.core.witness import WitnessTracker
from repro.crypto.sha import Hash
from repro.support.superpeer import Superpeer

# Bytes of structural metadata retained per dropped body (hash, parent
# links, height); charged against the budget so savings are honest.
STUB_BYTES = 96


class OffloadManager:
    """A device-side storage budget over one replica."""

    def __init__(self, node: VegvisirNode, max_bytes: int,
                 witness_quorum: int = 0, obs=None):
        """*witness_quorum* > 0 additionally requires a block to carry a
        proof-of-witness at that quorum (§IV-H) before its body may be
        dropped — the conservative policy: only provably-replicated
        history leaves the device.

        *obs* is an :class:`repro.obs.Observability` that counts and
        traces evictions."""
        if max_bytes < 0:
            raise ValueError("storage budget must be non-negative")
        self.node = node
        self.max_bytes = max_bytes
        self.witness_quorum = witness_quorum
        self._witness_tracker = (
            WitnessTracker(node.dag) if witness_quorum > 0 else None
        )
        self._dropped: set[Hash] = set()
        self._obs = obs if obs is not None and obs.enabled else None

    def stored_bytes(self) -> int:
        """Bytes currently held: full bodies plus stubs for dropped ones."""
        total = 0
        for block in self.node.dag.blocks():
            if block.hash in self._dropped:
                total += STUB_BYTES
            else:
                total += block.wire_size
        return total

    def over_budget(self) -> bool:
        return self.stored_bytes() > self.max_bytes

    def dropped_hashes(self) -> set[Hash]:
        return set(self._dropped)

    def holds_body(self, block_hash: Hash) -> bool:
        return (
            self.node.has_block(block_hash)
            and block_hash not in self._dropped
        )

    def _droppable(self, superpeer: Superpeer) -> list[Hash]:
        """Archived, non-frontier, non-genesis blocks, oldest first."""
        frontier = self.node.frontier()
        dag = self.node.dag
        if self._witness_tracker is not None:
            self._witness_tracker.sync()
        candidates = [
            block.hash
            for block in dag.blocks()
            if block.hash != self.node.chain_id
            and block.hash not in frontier
            and block.hash not in self._dropped
            and superpeer.chain.is_archived(block.hash)
            and (
                self._witness_tracker is None
                or self._witness_tracker.has_proof_of_witness(
                    block.hash, self.witness_quorum
                )
            )
        ]
        candidates.sort(
            key=lambda h: (dag.height(h), dag.get(h).timestamp, h.digest)
        )
        return candidates

    def offload(self, superpeer: Superpeer) -> int:
        """Drop oldest archived bodies until within budget.

        The superpeer first archives anything it has that the device
        needs archived (a real contact would upload those blocks; the
        superpeer being a full replica, it already holds them here).
        Returns the number of bodies dropped.
        """
        superpeer.archive_new_blocks()
        dropped = 0
        if not self.over_budget():
            return dropped
        observer = self._obs
        for block_hash in self._droppable(superpeer):
            if not self.over_budget():
                break
            self._dropped.add(block_hash)
            dropped += 1
            if observer is not None:
                freed = self.node.dag.get(block_hash).wire_size - STUB_BYTES
                observer.registry.counter(
                    "offload_evicted_total", "block bodies dropped"
                ).inc()
                observer.registry.counter(
                    "offload_bytes_freed_total",
                    "payload bytes released by offloading",
                ).inc(max(0, freed))
                observer.bus.emit(
                    "offload.evict", user=self.node.user_id,
                    block=block_hash, freed=max(0, freed),
                )
        return dropped

    def restore(self, block_hash: Hash, superpeer: Superpeer) -> None:
        """Fetch a dropped body back from the support chain."""
        if block_hash not in self._dropped:
            return
        block = superpeer.serve_block(block_hash)
        if block.hash != block_hash:
            raise ValueError("superpeer served a different block")
        self._dropped.discard(block_hash)
