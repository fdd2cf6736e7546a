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
per connection, which bodies it already sent and where the last level
ended, so the deepening loop does not resend data and level N is one
step from level N-1, not a walk from the frontier.  A ``get_frontier``
at level 1 starts a fresh session and resets that memo.

The initiator merges only when something can land: levels arrive
tip-first, so until one touches the local DAG every received block
still lacks a parent — a deep pull is one ``merge_blocks`` call.
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
            elif not new_blocks:
                # Every honest level down to genesis holds a block; a
                # responder with nothing deeper cannot bridge the gap.
                break
            pending.extend(new_blocks)
            # A merge places nothing (and charges nothing) unless some
            # block of this level is held already or has every parent.
            if any(
                node.has_block(block.hash)
                or all(node.has_block(p) for p in block.parents)
                for block in new_blocks
            ):
                merged = me.pull(pending)
                if merged.complete:
                    stats.converged = True
                    break
                # Only the blocks still awaiting parents carry to the
                # retry; invalid blocks were dropped by merge_blocks.
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


class _LevelCursor:
    """Where one connection's deepening loop stands on the responder."""

    __slots__ = ("level", "dag_size", "reached", "boundary", "sent")

    def __init__(self):
        self.level = 0
        self.dag_size = 0
        #: The level-``level`` frontier set and the blocks its last step
        #: added, as of a DAG of ``dag_size`` blocks.
        self.reached: set = set()
        self.boundary: set = set()
        #: Every hash answered since level 1, over any DAG size.
        self.sent: set = set()


@handles("get_frontier")
def _on_get_frontier(responder: Responder, message: dict) -> dict:
    level = int(message["level"])
    if level < 1:
        raise ReconcileError("frontier level must be >= 1")
    cursor = responder.memo.get("frontier_cursor")
    if cursor is None:
        cursor = responder.memo["frontier_cursor"] = _LevelCursor()
    if level == 1:
        cursor.sent.clear()
    dag = responder.node.dag
    if (level > 1 and level == cursor.level + 1
            and len(dag) == cursor.dag_size):
        cursor.boundary = dag.deepen(cursor.reached, cursor.boundary)
        level_hashes = cursor.boundary
    else:
        # Level 1, a skipped level, or a DAG that grew mid-session: walk
        # from the frontier, and offer the whole level again.
        cursor.reached = dag.frontier()
        cursor.boundary = set(cursor.reached)
        for _ in range(level - 1):
            if not cursor.boundary:
                break
            cursor.boundary = dag.deepen(cursor.reached, cursor.boundary)
        cursor.dag_size = len(dag)
        level_hashes = cursor.reached
    cursor.level = level
    new_hashes = sorted(h for h in level_hashes if h not in cursor.sent)
    cursor.sent.update(new_hashes)
    return {
        "type": "frontier_set", "level": level,
        "blocks": [dag.get(h) for h in new_hashes],
    }
