"""repro.gateway — the production client plane (ISSUE 9, A13).

Replicas speak anti-entropy to each other; clients speak HTTP and
WebSocket to a :class:`GatewayNode`, which embeds one full
:class:`~repro.live.node.LiveNode` per hosted tenant chain and puts
admission control, transaction batching, and a push feed in front of
it.  The package is dependency-free (stdlib + repro) and adds zero
bytes to the gossip wire protocol.

Layout:

* :mod:`repro.httpd` (shared with the ops endpoint) — bounded HTTP/1.1
  parsing and framing, and the server loop;
* :mod:`repro.gateway.websocket` — RFC 6455 frames for the push feed;
* :mod:`repro.gateway.admission` — per-client token buckets, LRU-bounded;
* :mod:`repro.gateway.batching` — size-or-rate transaction batching
  with shed-oldest backpressure;
* :mod:`repro.gateway.server` — the client routes and the push feed;
* :mod:`repro.gateway.node` — :class:`GatewayNode` tying it together;
* :mod:`repro.gateway.loadgen` — the open-loop Poisson load generator
  behind benchmark A13.
"""

from repro.gateway.admission import AdmissionController, TokenBucket
from repro.gateway.batching import (
    BatcherClosed,
    ShedError,
    SubmitResult,
    TxBatcher,
)
from repro.gateway.loadgen import GatewayClient, LoadReport, run_loadgen
from repro.gateway.node import ChainHost, GatewayNode
from repro.gateway.server import GatewayServer
from repro.httpd import HttpError

__all__ = [
    "AdmissionController",
    "BatcherClosed",
    "ChainHost",
    "GatewayClient",
    "GatewayNode",
    "GatewayServer",
    "HttpError",
    "LoadReport",
    "ShedError",
    "SubmitResult",
    "TokenBucket",
    "TxBatcher",
    "run_loadgen",
]
