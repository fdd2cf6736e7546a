"""Full-DAG exchange — the strawman baseline.

The paper motivates Algorithm 1 as "considerably more efficient than
exchanging entire DAGs" (§VI); this protocol is that strawman: the
responder ships every block it has, then the initiator pushes back the
difference.  Bandwidth is proportional to chain length regardless of how
little the replicas diverge, which is exactly what experiments F3/E5
demonstrate.
"""

from __future__ import annotations

from repro.reconcile.engine import Protocol
from repro.reconcile.session import (
    Responder,
    SessionSide,
    expect,
    handles,
    push_blocks,
)


class FullExchangeProtocol(Protocol):
    """Ship the whole DAG both ways."""

    name = "full_exchange"

    def __init__(self, push: bool = True):
        self._push = push

    def initiate(self, me: SessionSide):
        me.stats.rounds = 1
        reply = expect((yield {"type": "get_dag"}), "dag")
        merged = me.pull(reply["blocks"])
        me.stats.converged = merged.complete

        if me.stats.converged and self._push:
            # The reply *is* the responder's holdings.
            responder_has = {block.hash for block in reply["blocks"]}
            yield from push_blocks(me, [
                block for block in me.node.dag.blocks()
                if block.hash not in responder_has
            ])


@handles("get_dag")
def _on_get_dag(responder: Responder, message: dict) -> dict:
    return {"type": "dag", "blocks": list(responder.node.dag.blocks())}
