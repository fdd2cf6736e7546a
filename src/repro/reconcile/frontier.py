"""The paper's reconciliation protocol (Algorithm 1, Fig. 3), pruned
under what the initiator says it holds.

The initiator opens with its own frontier hashes (``have``).  The
responder answers with its frontier as hashes plus only the bodies the
initiator can lack:

* **behind** — every ``have`` hash is in the responder's DAG.  A
  replica always holds the full ancestry of its frontier (provenance,
  §IV-A), so the initiator's DAG is a subset of the responder's and the
  reply is the exact difference, ``dag.not_under(have)``, oldest first:
  one round trip however deep the gap.  A difference over the batch
  budget is cut and marked ``more``; insertion order is parent-closed,
  so the chunk lands on its own and the initiator asks again with the
  frontier it has now.
* **diverged** — some ``have`` hash is unknown to the responder.  The
  reply carries the bodies of the responder's tips that are not in
  ``have``; the initiator then asks by hash (``get_blocks``) for exactly
  the parents its pending blocks still miss, walking Fig. 3's levels
  down the missing branches — which must eventually bridge the gap
  because both replicas share the genesis block.  Most gaps close
  within two levels.  One that has not is deep, so the second
  ``get_blocks`` also carries a skip sample of the initiator's history
  (``BlockDAG.skip_sample``, at most ``SAMPLE_LIMIT`` hashes) and the
  reply names, by hash, the rest of the gap down to the sample blocks
  the responder holds.  The initiator adds the ones it lacks to what it
  asks for next: a gap of any depth closes in four round trips plus one
  per budget's worth of bodies.  The walk stays the repair path: a list
  that was cut, or that lies, leaves pending blocks whose missing
  parents are asked for as before.

If every hash of the responder's frontier is already held the replicas
are identical, or the initiator is strictly ahead; either way the pull
is over after one round trip.  After a successful pull the initiator
pushes the blocks the responder lacks, making one contact sufficient
for bidirectional convergence (the gossip layer relies on this).

The initiator merges only when something can land: on the diverged path
bodies arrive tip-first, so until one touches the local DAG every
received block still lacks a parent — a deep pull is one
``merge_blocks`` call.
"""

from __future__ import annotations

from repro.chain.block import Block
from repro.core.node import VegvisirNode
from repro.crypto.sha import Hash
from repro.reconcile.engine import Protocol
from repro.reconcile.session import (
    SAMPLE_LIMIT,
    ReconcileError,
    Responder,
    SessionSide,
    as_hashes,
    digest_list,
    expect,
    first_batch,
    handles,
    push_missing,
)


def _get_frontier(node: VegvisirNode) -> dict:
    return {"type": "get_frontier", "have": digest_list(node.frontier())}


class FrontierProtocol(Protocol):
    """Have-pruned frontier reconciliation (Algorithm 1).

    ``max_level`` caps the round trips of one pull: a responder that
    keeps naming parents it never delivers is dropped there.
    """

    name = "frontier"

    def __init__(self, max_level: int = 10_000, push: bool = True):
        self._max_level = max_level
        self._push = push

    def initiate(self, me: SessionSide):
        node, stats = me.node, me.stats
        held = node.dag.table
        responder_frontier: list[Hash] = []
        # Bodies awaiting parents, every hash received so far (an
        # invalid block is not asked for twice), and the hashes still
        # to ask for.
        pending: list[Block] = []
        received: set[Hash] = set()
        wanted: set[Hash] = set()
        fetches = 0

        request = _get_frontier(node)
        for _ in range(self._max_level):
            stats.rounds += 1
            reply = yield request
            more = False
            if request["type"] == "get_frontier":
                expect(reply, "frontier_set")
                responder_frontier = as_hashes(reply["frontier"])
                if all(map(held.__contains__, responder_frontier)):
                    # Identical frontiers ⇒ identical chains; otherwise
                    # the initiator is strictly ahead and only pushes.
                    stats.converged = True
                    break
                more = reply.get("more", False)
                if not isinstance(more, bool):
                    raise ReconcileError("more marker is not a boolean")
                wanted = set(responder_frontier)
            else:
                expect(reply, "blocks")
            new_blocks = reply["blocks"]
            if not new_blocks:
                # A responder with no body to offer cannot bridge the
                # gap.
                break
            received.update(block.hash for block in new_blocks)
            wanted.update(
                parent for block in new_blocks for parent in block.parents
            )
            if "sample" in request:
                # The rest of the gap below the sample, as far as the
                # responder says; a missing list is an empty one.
                wanted.update(as_hashes(reply.get("hashes", [])))
            wanted = {
                h for h in wanted
                if h not in received and h not in held
            }
            pending.extend(new_blocks)
            # A merge places nothing (and charges nothing) unless some
            # new block is held already or has every parent.
            if any(
                block.hash in held
                or all(map(held.__contains__, block.parents))
                for block in new_blocks
            ):
                # Only the blocks still awaiting parents carry on;
                # invalid blocks were dropped by merge_blocks.
                pending = me.pull(pending).unplaced
            if more:
                again = _get_frontier(node)
                if again == request:
                    break  # the chunk moved nothing: same answer again
                request = again
            elif wanted:
                request = {"type": "get_blocks",
                           "hashes": digest_list(wanted)}
                fetches += 1
                if fetches == 2:
                    # Two levels did not close the gap: it is deep.
                    request["sample"] = digest_list(
                        node.dag.skip_sample(SAMPLE_LIMIT)
                    )
            else:
                stats.converged = all(
                    map(held.__contains__, responder_frontier)
                )
                break

        if stats.converged and self._push:
            yield from push_missing(me, responder_frontier)


@handles("get_frontier")
def _on_get_frontier(responder: Responder, message: dict) -> dict:
    dag = responder.node.dag
    have = as_hashes(message["have"])
    tips = sorted(dag.frontier())
    reply = {"type": "frontier_set", "frontier": digest_list(tips)}
    if all(h in dag for h in have):
        missing = dag.not_under(have)
        reply["blocks"] = first_batch(missing)
        if len(reply["blocks"]) < len(missing):
            reply["more"] = True
    else:
        # The frontier is a set, so nothing it holds is under a known
        # ``have`` hash: membership is all there is to prune by.
        held = set(have)
        reply["blocks"] = first_batch(
            [dag.get(tip) for tip in tips if tip not in held]
        )
    return reply
