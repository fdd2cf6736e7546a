"""Protocol adapters.

:class:`ByteTransportProtocol` makes the byte-level session
(:class:`~repro.reconcile.endpoint.RemoteSession` over a
:class:`~repro.reconcile.endpoint.ReconcileEndpoint`) interchangeable
with the in-memory protocol classes, so the gossip scheduler can run a
whole simulation through real canonical encodings — the A2 ablation at
fleet scale.  Use ``Scenario(protocol_factory=ByteTransportProtocol)``.
"""

from __future__ import annotations

from repro.core.node import VegvisirNode
from repro.reconcile.endpoint import ReconcileEndpoint, RemoteSession
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.stats import ReconcileStats


class ByteTransportProtocol:
    """Runs every session through wire bytes instead of shared objects."""

    name = "byte_transport"

    def __init__(self, push: bool = True):
        self._push = push

    def run(self, initiator: VegvisirNode,
            responder: VegvisirNode) -> ReconcileStats:
        endpoint = ReconcileEndpoint(responder)
        return RemoteSession(
            initiator, endpoint.handle, FrontierProtocol(push=self._push)
        ).sync()
