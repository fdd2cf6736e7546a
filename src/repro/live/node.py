"""A Vegvisir node as a network process.

:class:`LiveNode` assembles the whole live stack around one replica:

* **identity** — the node's :class:`~repro.crypto.keys.KeyPair`;
* **persistence** — every block the replica observes (created locally,
  pulled, or pushed by a peer) is durably appended to a
  :class:`~repro.storage.blockstore.BlockStore` the moment it enters
  the DAG; on restart the replica is rebuilt from that same store
  through :func:`~repro.storage.node_store.restore_node`'s full
  validation, so a crashed node recovers exactly its persisted
  parent-closed prefix;
* **networking** — a :class:`~repro.live.peers.PeerManager` for
  connections and an :class:`~repro.live.antientropy.AntiEntropyLoop`
  for sessions and for pushing local writes;
* **observability** — optional metrics registry and trace events
  (``peer.connected``, ``session.completed``, ``session.interrupted``)
  through the standard :class:`~repro.obs.Observability` wiring.

``serve()`` runs the node until :meth:`request_stop` (or cancellation);
``start()``/``stop()`` give tests finer control.  Shutdown is complete:
no asyncio task, server socket, or connection outlives :meth:`stop`,
and the block store's write handle is closed — a property the cluster
tests assert directly.
"""

from __future__ import annotations

import asyncio
import pathlib
from typing import TYPE_CHECKING, Callable, List, Optional, Union

from repro.chain.block import Block, Transaction
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.crypto.sha import Hash
from repro.live.antientropy import (
    AntiEntropyLoop,
    DEFAULT_INTERVAL,
    DEFAULT_JITTER,
    DEFAULT_SESSION_TIMEOUT,
)
from repro.live.peers import PeerManager, PeerSpec
from repro.live.protocol import serve_connection
from repro.obs.live import OpsServer
from repro.runtime import SYSTEM, ListenError, Runtime
from repro.storage.blockstore import BlockStore
from repro.storage.node_store import restore_node

if TYPE_CHECKING:  # imported lazily at runtime (circular with live)
    from repro.discovery.directory import DirectoryEvent
    from repro.discovery.service import DiscoveryConfig, DiscoveryService


class LiveNode:
    """One Vegvisir replica serving real peers over TCP."""

    def __init__(
        self,
        key_pair: KeyPair,
        store_path: Union[str, pathlib.Path],
        *,
        genesis: Optional[Block] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        peers: Optional[List[PeerSpec]] = None,
        name: Optional[str] = None,
        interval_s: float = DEFAULT_INTERVAL,
        jitter_s: float = DEFAULT_JITTER,
        session_timeout_s: float = DEFAULT_SESSION_TIMEOUT,
        max_frame_bytes: Optional[int] = None,
        seed: Optional[int] = None,
        fsync: bool = True,
        obs=None,
        discovery: Optional["DiscoveryConfig"] = None,
        ops_host: str = "127.0.0.1",
        ops_port: Optional[int] = None,
        runtime: Runtime = SYSTEM,
    ):
        self._key_pair = key_pair
        self.runtime = runtime  # every clock and socket, handed down
        clock = runtime.wall_ms
        # One handle: probe it, rebuild the replica from it through full
        # validation, then keep appending to it.
        self.store = BlockStore(store_path, fsync=fsync, obs=obs)
        if not self.store.is_empty():
            self.node = restore_node(
                key_pair, self.store.blocks(), clock=clock
            )
            if genesis is not None and genesis.hash != self.node.chain_id:
                raise ValueError(
                    f"{self.store.path} holds chain "
                    f"{self.node.chain_id.hex()}, not {genesis.hash.hex()}"
                )
        elif genesis is not None:
            self.node = VegvisirNode(key_pair, genesis, clock=clock)
            self.store.append(genesis)
        else:
            raise ValueError(
                f"{self.store.path} holds no chain and no genesis "
                "block was provided"
            )
        # How many blocks of the DAG's insertion order are on disk.
        self._persisted = len(self.node.dag)

        self.name = name or key_pair.user_id.short()
        self._host = host
        self._port = port
        self._obs = obs if obs is not None and obs.enabled else None
        self.peer_manager = PeerManager(
            self.node, self.name, list(peers or ()),
            connection_handler=self._serve_peer,
            max_frame_bytes=max_frame_bytes,
            seed=None if seed is None else seed ^ 0xD1A1,
            obs=obs,
            runtime=runtime,
        )
        self.antientropy = AntiEntropyLoop(
            self.node, self.peer_manager,
            interval_s=interval_s, jitter_s=jitter_s,
            session_timeout_s=session_timeout_s,
            block_sink_factory=self._pull_sink,
            seed=None if seed is None else seed ^ 0x90551,
            obs=obs,
        )
        # Dynamic peer discovery (repro.discovery): built lazily in
        # start() so the UDP endpoint lands on the running loop.
        self._discovery_config = discovery
        self.discovery: Optional["DiscoveryService"] = None
        self._raw_obs = obs
        self._ops_host = ops_host
        self._ops_port = ops_port
        self.ops: Optional[OpsServer] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._started = False
        # Optional in-process hook called as listener(block, origin) for
        # every block the replica persists — local batches and gossip
        # arrivals alike.  The gateway's push feed hangs off this; it
        # adds zero bytes to any wire frame.
        self.block_listener: Optional[Callable[[Block, str], None]] = None
        if self._obs is not None:
            self._c_persisted = self._obs.registry.counter(
                "live_blocks_persisted_total",
                "blocks durably appended to the node's store",
            )
        else:
            self._c_persisted = None

    # -- persistence ---------------------------------------------------

    def _persist_blocks(self, _blocks=None, origin: str = "local") -> None:
        """Append every not-yet-persisted DAG block to the store.

        Driven by a cursor over the DAG's insertion order, which is
        parent-closed by construction — so the on-disk prefix is always
        a valid replica, whatever instant a crash hits.  Group commit:
        the whole batch is written, then made durable by one fsync, and
        only then is any block of it announced (``block.persisted``,
        the listener) — nothing is acknowledged before it is durable.
        *origin* labels the trace event: ``"local"``, ``"push:<peer>"``,
        or ``"pull:<peer>"`` — trace-only attribution, no wire bytes
        involved.
        """
        dag = self.node.dag
        blocks = [dag.get(h) for h in dag.inserted_since(self._persisted)]
        if not blocks:
            return
        for block in blocks:
            self.store.append(block, sync=False)
        self.store.sync()
        self._persisted += len(blocks)
        for block in blocks:
            if self._c_persisted is not None:
                self._c_persisted.inc()
            if self._obs is not None:
                self._obs.emit(
                    "block.persisted", node=self.name,
                    block=block.hash, origin=origin,
                )
            if self.block_listener is not None:
                self.block_listener(block, origin)

    def _pull_sink(self, peer_name: str):
        """A per-session persistence sink attributing pulls to *peer*."""
        def sink(_blocks=None) -> None:
            self._persist_blocks(_blocks, origin=f"pull:{peer_name}")
        return sink

    def append_transactions(
        self, transactions: List[Transaction] = ()
    ) -> Block:
        """Create a block locally, persist it durably, and have it
        pushed to the connected peers."""
        block = self.node.append_transactions(transactions)
        if self._obs is not None:
            self._obs.emit(
                "block.created", node=self.name, block=block.hash,
            )
        self._persist_blocks()
        self.antientropy.notify_write()
        return block

    # -- identity / state ----------------------------------------------

    @property
    def chain_id(self) -> Hash:
        return self.node.chain_id

    @property
    def listen_port(self) -> Optional[int]:
        return self.peer_manager.listen_port

    def dag_digest(self) -> str:
        """Hex digest over the held block set — equal digests mean
        identical DAGs (the cluster-convergence check)."""
        return Hash.of_value(
            sorted(h.digest for h in self.node.dag.hashes())
        ).hex()

    def state_digest(self) -> Hash:
        return self.node.state_digest()

    def frontier_digest(self) -> str:
        """Hex digest over the DAG frontier (what beacons advertise)."""
        from repro.discovery.beacon import frontier_digest

        return frontier_digest(self.node).hex()

    def status(self) -> dict:
        """The node's operational state, as served by ``/status``."""
        status = {
            "name": self.name,
            "id": self.node.user_id.hex(),
            "chain": self.chain_id.hex(),
            "blocks": len(self.node.dag),
            "persisted": self._persisted,
            "frontier_digest": self.frontier_digest(),
            "dag_digest": self.dag_digest(),
            "listen_port": self.listen_port,
            "peers": {
                "connected": self.peer_manager.connected_peers(),
                "dynamic": self.peer_manager.dynamic_peers(),
                "unsent": self.antientropy.unsent(),
            },
            "sessions": {
                "completed": self.antientropy.sessions_completed,
                "interrupted": self.antientropy.sessions_interrupted,
                "pushes": self.antientropy.pushes,
            },
        }
        if self.discovery is not None:
            status["discovery"] = self.discovery.directory.summary()
        if self.ops is not None:
            status["ops_port"] = self.ops.port
        return status

    # -- lifecycle -----------------------------------------------------

    async def _serve_peer(self, transport, hello: dict) -> None:
        peer_name = str(hello.get("name", "?"))

        def persist_push(_blocks=None) -> None:
            self._persist_blocks(_blocks, origin=f"push:{peer_name}")

        await serve_connection(self.node, transport, on_blocks=persist_push)

    def add_peer(self, spec: PeerSpec) -> None:
        self.peer_manager.add_peer(spec)

    # -- discovery -----------------------------------------------------

    def _dials_to(self, event: "DirectoryEvent") -> bool:
        """The lowest-id-dials tie-break.

        Both sides of a discovered pair see each other's beacons; if
        both dialed, every pair would hold two redundant connections
        and run duplicate sessions.  The node with the smaller user id
        dials; the other side only accepts.  (Static ``--peer`` entries
        are exempt — explicit configuration wins.)
        """
        return self.node.user_id.digest < event.node_id.digest

    @staticmethod
    def _dynamic_peer_name(event: "DirectoryEvent") -> str:
        return f"d:{event.node_id.hex()[:16]}"

    def _on_discovery_event(self, event: "DirectoryEvent") -> None:
        from repro.discovery.directory import EXPIRED

        name = self._dynamic_peer_name(event)
        if event.kind == EXPIRED:
            self.peer_manager.remove_peer(name)
        elif self._dials_to(event):
            # discovered / rejoined / recovered: (re)target the
            # advertised address.  add_peer is a no-op if the peer is
            # already maintained.
            self.peer_manager.add_peer(
                PeerSpec(name, event.host, event.port), dynamic=True
            )

    async def start(self) -> None:
        """Bind the listener, start dialing peers and gossiping."""
        if self._started:
            raise RuntimeError("live node already started")
        self._started = True
        self._stop_requested = asyncio.Event()
        await self.peer_manager.start(self._host, self._port)
        if self._discovery_config is not None:
            from repro.discovery.service import DiscoveryService

            self.discovery = DiscoveryService(
                self._key_pair, self.node, self.name,
                lambda: self.peer_manager.listen_port,
                self._discovery_config,
                obs=self._raw_obs,
                on_event=self._on_discovery_event,
                runtime=self.runtime,
            )
            await self.discovery.start()
        if self._ops_port is not None:
            self.ops = OpsServer(
                registry=None if self._obs is None else self._obs.registry,
                status=self.status,
                host=self._ops_host,
                port=self._ops_port,
                runtime=self.runtime,
            )
            try:
                await self.ops.start()
            except ListenError:
                self.ops = None
                if self.discovery is not None:
                    await self.discovery.stop()
                    self.discovery = None
                await self.peer_manager.stop()
                self._started = False
                raise
        self._loop_task = asyncio.ensure_future(self.antientropy.run())
        if self._obs is not None:
            self._obs.emit(
                "node.started", node=self.name,
                id=self.node.user_id.hex(),
                port=self.peer_manager.listen_port,
            )

    async def stop(self) -> None:
        """Stop gossip, close every connection and socket, close the
        store.  Idempotent; afterwards nothing of this node remains
        running — and only then is whatever killed the gossip loop
        re-raised."""
        cancelled = False
        loop_error = None
        if self._loop_task is not None:
            self.antientropy.stop()
            self._loop_task.cancel()
            # wait() never raises the gossip task's cancellation, so a
            # CancelledError here is this task's own: finish cleaning
            # up, then re-raise it.
            while not self._loop_task.done():
                try:
                    await asyncio.wait([self._loop_task])
                except asyncio.CancelledError:
                    cancelled = True
            if not self._loop_task.cancelled():
                loop_error = self._loop_task.exception()
            self._loop_task = None
        if self.discovery is not None:
            await self.discovery.stop()
            self.discovery = None
        if self.ops is not None:
            await self.ops.stop()
            self.ops = None
        await self.peer_manager.stop()
        self._persist_blocks()
        self.store.close()
        self._started = False
        if self._obs is not None:
            self._obs.emit("node.stopped", node=self.name)
        if cancelled:
            raise asyncio.CancelledError()
        if loop_error is not None:
            raise loop_error

    def request_stop(self) -> None:
        """Ask a running :meth:`serve` to shut down and return."""
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def wait_stop_requested(self) -> None:
        """Return once :meth:`request_stop` has been called on the
        started node."""
        await self._stop_requested.wait()

    async def serve(self) -> None:
        """Run the node until :meth:`request_stop` or cancellation."""
        await self.start()
        try:
            await self.wait_stop_requested()
        finally:
            await self.stop()

    # -- partitions (testing / chaos) ----------------------------------

    async def isolate(self) -> None:
        """Sever all connections and refuse new ones."""
        await self.peer_manager.partition()

    def rejoin(self) -> None:
        """Come back from :meth:`isolate`; backoff redials take over."""
        self.peer_manager.heal()

    def __repr__(self) -> str:
        return (
            f"LiveNode({self.name}, blocks={len(self.node.dag)}, "
            f"port={self.listen_port})"
        )
