"""Height-digest reconciliation.

An alternative improved protocol: both replicas can summarize their DAG
as one digest per height (the hash of the sorted block hashes at that
height).  The initiator sends its digest vector; the responder finds the
lowest height where the digests differ and returns every one of its
blocks at or above that height, plus its frontier for exact convergence
detection.  Divergence of depth *d* costs one round trip, O(height)
digest bytes, and O(blocks above the split) block bytes — no iterative
deepening, at the price of resending blocks on branches the initiator
already had when heights interleave.
"""

from __future__ import annotations

from collections import defaultdict

from repro.chain.dag import BlockDAG
from repro.crypto.sha import Hash
from repro.reconcile.engine import Protocol
from repro.reconcile.session import (
    ReconcileError,
    Responder,
    SessionSide,
    as_hashes,
    digest_list,
    expect,
    handles,
    push_missing,
)


def height_digests(dag: BlockDAG) -> list[bytes]:
    """One digest per height level: hash of the sorted hashes there."""
    by_height: dict[int, list[bytes]] = defaultdict(list)
    for block in dag.blocks():
        by_height[dag.height(block.hash)].append(block.hash.digest)
    return [
        Hash.of_value(sorted(by_height[height])).digest
        for height in range(dag.max_height() + 1)
    ]


class HeightSkipProtocol(Protocol):
    """Single-round-trip height-digest reconciliation, then push."""

    name = "height_skip"

    def __init__(self, push: bool = True):
        self._push = push

    def initiate(self, me: SessionSide):
        node, stats = me.node, me.stats
        stats.rounds += 1
        reply = yield {
            "type": "height_digests", "digests": height_digests(node.dag),
        }
        responder_frontier = as_hashes(reply["frontier"])
        if reply["type"] == "height_match":
            stats.converged = True
        else:
            expect(reply, "height_blocks")
            me.pull(reply["blocks"])
            stats.converged = all(
                node.has_block(h) for h in responder_frontier
            )

        if stats.converged and self._push:
            yield from push_missing(me, responder_frontier)


@handles("height_digests")
def _on_height_digests(responder: Responder, message: dict) -> dict:
    theirs = message["digests"]
    if not isinstance(theirs, list):
        raise ReconcileError("height digests must be a list")
    dag = responder.node.dag
    frontier = digest_list(responder.node.frontier())
    split = _first_difference(theirs, height_digests(dag))
    if split is None:
        return {"type": "height_match", "frontier": frontier}
    return {
        "type": "height_blocks",
        "from_height": split,
        "blocks": [
            block for block in dag.blocks()
            if dag.height(block.hash) >= split
        ],
        "frontier": frontier,
    }


def _first_difference(a: list, b: list):
    """Lowest index where the digest vectors differ, or None if one is a
    prefix of the other and they match everywhere both are defined —
    unless lengths differ, in which case the shorter length is the split."""
    shared = min(len(a), len(b))
    for index in range(shared):
        if a[index] != b[index]:
            return index
    if len(a) != len(b):
        return shared
    return None
