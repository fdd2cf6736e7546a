"""repro.live — the asyncio network runtime: real Vegvisir nodes on TCP.

Everything below :mod:`repro.reconcile` in this repo is a pure model:
protocols exchange *messages* and a driver shuttles them between two
in-process replicas.  This package puts those same protocols on real
sockets without changing a byte of what they say:

* :mod:`repro.live.transport` — length-prefixed frames over an asyncio
  stream (:class:`StreamTransport`);
* :mod:`repro.live.protocol` — the asyncio session driver: runs any
  :mod:`repro.reconcile` protocol's initiator over a transport and
  serves the generic responder, so the frame payloads *are* the
  simulator's wire messages (the parity tests are the tripwire);
* :mod:`repro.live.peers` — static peer lists, concurrent dial/accept,
  exponential backoff with jitter, handshake and half-open timeouts;
* :mod:`repro.live.antientropy` — the periodic gossip loop with
  per-session deadlines and clean teardown on disconnect;
* :mod:`repro.live.node` — :class:`LiveNode`, one replica with durable
  :class:`~repro.storage.blockstore.BlockStore` persistence, metrics,
  and traces behind a single ``serve()`` entry point.

Run a node from the command line with ``repro.cli serve`` or
``python -m repro.live``; ``examples/live_cluster.py`` boots a whole
localhost cluster, partitions it, and shows the DAGs re-converge.
"""

from repro.live.antientropy import AntiEntropyLoop
from repro.live.node import LiveNode
from repro.live.peers import (
    Backoff,
    HandshakeError,
    PeerManager,
    PeerSpec,
    handshake,
)
from repro.live.protocol import LiveResponder, run_session, serve_connection
from repro.live.transport import (
    StreamTransport,
    TransportClosed,
    TransportError,
)

__all__ = [
    "AntiEntropyLoop",
    "Backoff",
    "HandshakeError",
    "LiveNode",
    "LiveResponder",
    "PeerManager",
    "PeerSpec",
    "StreamTransport",
    "TransportClosed",
    "TransportError",
    "handshake",
    "run_session",
    "serve_connection",
]
