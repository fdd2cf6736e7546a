"""The gateway node: a client-facing edge over embedded LiveNodes.

Vegvisir's replicas speak the anti-entropy wire protocol to each
other; ordinary clients should not have to.  A :class:`GatewayNode`
hosts one or more tenant chains — each a full
:class:`~repro.live.node.LiveNode` that persists, gossips, and
reconciles exactly as before — and puts a cheap HTTP/WebSocket API in
front of them (the Vericom communication/verification-plane split and
DLedger's IoT-gateway deployment, see PAPERS.md):

* ``POST /v1/tx`` — submit one transaction; admission-controlled,
  coalesced into a witness block by the chain's
  :class:`~repro.gateway.batching.TxBatcher` (cut at once while the
  cut rate, ``1 / max_delay_s`` partial blocks a second with a
  one-second burst, holds a token, else when the next token comes, or
  when full), answered with the block hash and the CSM verdict once
  the batch flushes;
* ``GET /v1/state/<crdt>`` — read a CRDT's current value;
* ``GET /v1/block/<hash>`` — fetch one block as JSON;
* ``WS /v1/subscribe`` — push feed of every block the replica
  persists (local batches *and* gossip arrivals) with the frontier.

Multi-tenancy: each hosted chain is addressable under
``/v1/c/<chain-prefix>/…`` where the prefix is the chain id's first
12 hex digits; the bare ``/v1/…`` routes serve the first (default)
chain.  The gateway signs batched blocks with its own member key —
clients need no keys, no wire codec, and no reconciliation state.

The gossip plane is untouched: a gateway adds **zero bytes** to any
anti-entropy frame (the byte-parity suite pins this), because the
client plane rides entirely on new sockets.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Sequence

from repro.gateway.admission import (
    AdmissionController,
    DEFAULT_BURST,
    DEFAULT_MAX_CLIENTS,
    DEFAULT_RATE,
)
from repro.gateway.batching import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY_S,
    DEFAULT_MAX_QUEUE,
    TxBatcher,
)
from repro.live.node import LiveNode
from repro.obs.live import OpsServer
from repro.runtime import SYSTEM, Runtime

SUBSCRIBER_QUEUE_LIMIT = 256

_LATENCY_BUCKETS_MS = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
)
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024)


class ChainHost:
    """One tenant chain inside the gateway: LiveNode + batcher + feed."""

    def __init__(self, live: LiveNode, batcher: TxBatcher, prefix: str):
        self.live = live
        self.batcher = batcher
        self.prefix = prefix
        self.subscribers: set[asyncio.Queue] = set()
        self.subscribers_dropped = 0

    @property
    def chain_id_hex(self) -> str:
        return self.live.chain_id.hex()

    # -- push feed -----------------------------------------------------

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue(SUBSCRIBER_QUEUE_LIMIT)
        self.subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        self.subscribers.discard(queue)

    def publish_block(self, block, origin: str) -> None:
        """Fan one persisted block out to every subscriber.

        A subscriber that cannot keep up (full queue) is dropped rather
        than buffered without bound — the same shed-don't-grow stance
        as the batch queue.
        """
        if not self.subscribers:
            return
        event = {
            "type": "block",
            "chain": self.prefix,
            "hash": block.hash.hex(),
            "origin": origin,
            "creator": block.user_id.hex(),
            "transactions": len(block.transactions),
            "blocks": len(self.live.node.dag),
            "frontier": sorted(
                h.hex() for h in self.live.node.dag.frontier()
            ),
        }
        message = json.dumps(event, sort_keys=True)
        dead = []
        for queue in self.subscribers:
            try:
                queue.put_nowait(message)
            except asyncio.QueueFull:
                dead.append(queue)
        for queue in dead:
            self.subscribers.discard(queue)
            self.subscribers_dropped += 1
            # A None sentinel tells the connection task to close.
            try:
                queue.put_nowait(None)
            except asyncio.QueueFull:
                pass


class GatewayNode:
    """The client plane: hosted chains, admission, batching, ops.

    *chains* are constructed-but-unstarted :class:`LiveNode`\\ s, one
    per tenant; the first is the default chain for unprefixed routes.
    The gateway owns their lifecycle: ``start()`` boots every replica,
    its batcher, the client HTTP server, and (optionally) the ops
    endpoint; ``stop()`` tears all of it down leak-free.  *runtime*
    clocks the batchers and admission and binds both HTTP planes.
    """

    def __init__(
        self,
        chains: Sequence[LiveNode],
        *,
        http_host: str = "127.0.0.1",
        http_port: int = 0,
        admission_rate: float = DEFAULT_RATE,
        admission_burst: float = DEFAULT_BURST,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
        max_queue: int = DEFAULT_MAX_QUEUE,
        submit_timeout_s: float = 30.0,
        ops_host: str = "127.0.0.1",
        ops_port: Optional[int] = None,
        obs=None,
        runtime: Runtime = SYSTEM,
    ):
        if not chains:
            raise ValueError("a gateway needs at least one chain")
        self._obs = obs if obs is not None and obs.enabled else None
        self.runtime = runtime
        self.submit_timeout_s = submit_timeout_s
        self.admission = AdmissionController(
            admission_rate, admission_burst,
            max_clients=max_clients, clock=runtime.monotonic,
        )
        self.hosts: dict[str, ChainHost] = {}
        for live in chains:
            prefix = live.chain_id.hex()[:12]
            if prefix in self.hosts:
                raise ValueError(f"duplicate chain {prefix}")
            batcher = TxBatcher(
                self._make_append(live),
                max_batch=max_batch, max_delay_s=max_delay_s,
                max_queue=max_queue, clock=runtime.monotonic,
                on_flush=self._make_on_flush(prefix),
                on_shed=self._make_on_shed(prefix),
            )
            self.hosts[prefix] = ChainHost(live, batcher, prefix)
        self.default_host = next(iter(self.hosts.values()))
        from repro.gateway.server import GatewayServer

        self.server = GatewayServer(
            self, host=http_host, port=http_port, obs=self._obs
        )
        self._ops_host = ops_host
        self._ops_port = ops_port
        self.ops: Optional[OpsServer] = None
        self._started = False
        self._init_metrics()

    # -- metrics -------------------------------------------------------

    def _init_metrics(self) -> None:
        if self._obs is None:
            self._m_requests = None
            self._m_latency = None
            self._m_batch = None
            self._m_queue = None
            self._m_shed = None
            self._m_subscribers = None
            return
        registry = self._obs.registry
        self._m_requests = registry.counter(
            "gateway_requests_total",
            "client-plane HTTP requests by route and status",
            labels=("route", "status"),
        )
        self._m_latency = registry.histogram(
            "gateway_submit_latency_ms",
            "accepted POST /v1/tx latency, submit to block inclusion",
            buckets=_LATENCY_BUCKETS_MS,
        )
        self._m_batch = registry.histogram(
            "gateway_batch_size",
            "transactions coalesced per witness block",
            buckets=_BATCH_BUCKETS,
        )
        self._m_queue = registry.gauge(
            "gateway_queue_depth",
            "pending transactions at last flush", labels=("chain",),
        )
        self._m_shed = registry.counter(
            "gateway_tx_shed_total",
            "transactions shed from a full batch queue", labels=("chain",),
        )
        self._m_subscribers = registry.gauge(
            "gateway_ws_subscribers",
            "connected WebSocket subscribers", labels=("chain",),
        )

    def observe_request(self, route: str, status: int) -> None:
        if self._m_requests is not None:
            self._m_requests.labels(route=route, status=str(status)).inc()

    def observe_submit_latency(self, latency_ms: float) -> None:
        if self._m_latency is not None:
            self._m_latency.observe(latency_ms)

    def sync_subscriber_gauge(self, host: ChainHost) -> None:
        if self._m_subscribers is not None:
            self._m_subscribers.labels(chain=host.prefix).set(
                len(host.subscribers)
            )

    def _make_on_flush(self, prefix: str):
        def on_flush(size: int, oldest_wait_ms: float,
                     trigger: str) -> None:
            if self._m_batch is not None:
                self._m_batch.observe(size)
                self._m_queue.labels(chain=prefix).set(
                    self.hosts[prefix].batcher.queue_depth
                )
            if self._obs is not None:
                self._obs.emit(
                    "gateway.batch", chain=prefix, size=size,
                    oldest_wait_ms=round(oldest_wait_ms, 3),
                    trigger=trigger,
                )
        return on_flush

    def _make_on_shed(self, prefix: str):
        def on_shed(count: int) -> None:
            if self._m_shed is not None:
                self._m_shed.labels(chain=prefix).inc(count)
            if self._obs is not None:
                self._obs.emit("gateway.shed", chain=prefix, count=count)
        return on_shed

    # -- chain plumbing ------------------------------------------------

    @staticmethod
    def _make_append(live: LiveNode):
        def append(txs):
            block = live.append_transactions(list(txs))
            return block, live.node.csm.outcomes(block.hash)
        return append

    def resolve_host(self, prefix: Optional[str]) -> Optional[ChainHost]:
        if prefix is None:
            return self.default_host
        return self.hosts.get(prefix)

    # -- lifecycle -----------------------------------------------------

    @property
    def http_port(self) -> Optional[int]:
        return self.server.port

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("gateway already started")
        self._started = True
        started_hosts: list[ChainHost] = []
        try:
            for host in self.hosts.values():
                await host.live.start()
                host.live.block_listener = host.publish_block
                await host.batcher.start()
                started_hosts.append(host)
            await self.server.start()
            if self._ops_port is not None:
                self.ops = OpsServer(
                    registry=(
                        None if self._obs is None else self._obs.registry
                    ),
                    status=self.status,
                    host=self._ops_host,
                    port=self._ops_port,
                    runtime=self.runtime,
                )
                await self.ops.start()
        except BaseException:
            await self._teardown(started_hosts)
            self._started = False
            raise
        if self._obs is not None:
            self._obs.emit(
                "gateway.started",
                port=self.http_port,
                chains=sorted(self.hosts),
            )

    async def _teardown(self, hosts: Sequence[ChainHost]) -> None:
        if self.ops is not None:
            await self.ops.stop()
            self.ops = None
        await self.server.stop()
        for host in hosts:
            await host.batcher.stop()
            host.live.block_listener = None
            await host.live.stop()

    async def stop(self) -> None:
        """Stop the client plane, every batcher, and every replica."""
        if not self._started:
            return
        self._started = False
        await self._teardown(list(self.hosts.values()))
        if self._obs is not None:
            self._obs.emit("gateway.stopped")

    # -- status --------------------------------------------------------

    def status(self) -> dict:
        """Ops-endpoint JSON: the default replica's status plus a
        gateway summary block (what ``/status`` serves)."""
        status = dict(self.default_host.live.status())
        status["gateway"] = {
            "http_port": self.http_port,
            "admission": self.admission.summary(),
            "chains": {
                prefix: host.batcher.summary() | {
                    "subscribers": len(host.subscribers),
                    "blocks": len(host.live.node.dag),
                }
                for prefix, host in sorted(self.hosts.items())
            },
            "requests_served": self.server.requests_served,
        }
        return status

    def __repr__(self) -> str:
        return (
            f"GatewayNode(chains={len(self.hosts)}, "
            f"port={self.http_port})"
        )
