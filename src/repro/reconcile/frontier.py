"""The paper's reconciliation protocol (Algorithm 1, Fig. 3).

The initiator asks the responder for its level-1 frontier set.  If every
received frontier hash is already known and the frontiers match, the
replicas are identical and the session stops after one round trip.
Otherwise the initiator merges what it can; while any received block
still lacks parents, it asks for the next deeper level — the level-N
frontier set is level N-1 plus the parents of its blocks — which must
eventually bridge the gap because both replicas share the genesis block.

After a successful pull the initiator pushes the blocks the responder
lacks, making one contact sufficient for bidirectional convergence (the
gossip layer relies on this).

The responder sends full blocks for the *new* level only: it remembers,
per connection, which bodies it already sent, so the deepening loop does
not resend data.  A ``get_frontier`` at level 1 starts a fresh session
and resets that memo.
"""

from __future__ import annotations

from repro.chain.block import Block
from repro.reconcile.engine import Protocol
from repro.reconcile.session import (
    ReconcileError,
    Responder,
    SessionSide,
    as_hashes,
    expect,
    handles,
    push_missing,
)


class FrontierProtocol(Protocol):
    """Level-N frontier-set reconciliation (Algorithm 1).

    With ``hash_first=True``, an extra preliminary round exchanges bare
    frontier *hashes* (32 bytes each) before any block bodies: when the
    replicas are already equal — the common case in steady-state gossip
    — the session costs ~100 bytes instead of a full frontier of block
    bodies.  An ablation knob; the paper's text transfers blocks
    directly.
    """

    name = "frontier"

    def __init__(self, max_level: int = 10_000, push: bool = True,
                 hash_first: bool = False):
        self._max_level = max_level
        self._push = push
        self._hash_first = hash_first

    def initiate(self, me: SessionSide):
        node, stats = me.node, me.stats
        responder_frontier = None

        if self._hash_first:
            stats.rounds += 1
            reply = expect(
                (yield {"type": "get_frontier_hashes"}), "frontier_hashes"
            )
            responder_frontier = as_hashes(reply["hashes"])
            if all(node.has_block(h) for h in responder_frontier):
                stats.converged = True
                if self._push:
                    yield from push_missing(me, responder_frontier)
                return

        pending: list[Block] = []
        level = 1
        while level <= self._max_level:
            stats.rounds += 1
            reply = expect(
                (yield {"type": "get_frontier", "level": level}),
                "frontier_set",
            )
            new_blocks = reply["blocks"]
            if level == 1:
                # Level 1 carries the full frontier (nothing was sent
                # before it), which doubles as the responder-frontier
                # snapshot the push phase needs.
                level_hashes = [block.hash for block in new_blocks]
                if responder_frontier is None:
                    responder_frontier = level_hashes
                if all(node.has_block(h) for h in level_hashes):
                    # Identical frontiers ⇒ identical chains; otherwise
                    # the initiator is strictly ahead and only pushes.
                    stats.converged = True
                    break
            pending.extend(new_blocks)
            merged = me.pull(pending)
            if merged.complete:
                stats.converged = True
                break
            # Only the blocks still awaiting parents carry to the retry;
            # invalid blocks were dropped by merge_blocks.
            pending = merged.unplaced
            level += 1

        if stats.converged and self._push:
            yield from push_missing(me, responder_frontier)


@handles("get_frontier_hashes")
def _on_get_frontier_hashes(responder: Responder, message: dict) -> dict:
    return {
        "type": "frontier_hashes",
        "hashes": [h.digest for h in sorted(responder.node.frontier())],
    }


@handles("get_frontier")
def _on_get_frontier(responder: Responder, message: dict) -> dict:
    level = int(message["level"])
    if level < 1:
        raise ReconcileError("frontier level must be >= 1")
    sent_hashes = responder.memo.setdefault("frontier_sent", set())
    if level == 1:
        sent_hashes.clear()
    dag = responder.node.dag
    level_hashes = sorted(dag.frontier_level(level))
    new_blocks = [dag.get(h) for h in level_hashes if h not in sent_hashes]
    sent_hashes.update(level_hashes)
    return {"type": "frontier_set", "level": level, "blocks": new_blocks}
