"""Peer connections: dialing, accepting, handshakes, and backoff.

A :class:`PeerManager` owns every connection of one live node:

* **Outbound** — one maintain-task per configured :class:`PeerSpec`
  dials the peer, handshakes, then parks until the connection drops,
  redialing with exponential backoff plus full jitter (a fleet that
  reboots together must not thundering-herd its own peers).  The
  *dialer* of a connection is the only side that initiates
  reconciliation sessions on it — so two mutually configured peers hold
  two connections, one per direction, and no in-band multiplexing is
  ever needed.
* **Inbound** — a listener accepts connections, handshakes them
  under a deadline (a half-open socket that never says hello is cut
  off, not leaked), and hands them to the node's responder loop.

The handshake is one frame each way::

    {"type": "live_hello", "chain": <genesis hash>,
     "node": <user id>, "name": <display name>}

Both sides send eagerly and then read; a chain mismatch (different
genesis ⇒ different blockchain, §IV-G) or a timeout closes the
connection.  After the hello, every frame on the wire is a
reconciliation message — byte-identical to the simulator's.
"""

from __future__ import annotations

import asyncio
import random
from typing import Awaitable, Callable, Dict, List, Optional

from repro import wire
from repro.core.node import VegvisirNode
from repro.live.transport import (
    StreamTransport,
    TransportClosed,
    TransportError,
)
from repro.runtime import SYSTEM, Listener, Runtime

DIAL_TIMEOUT_S = 5.0
DEFAULT_HANDSHAKE_TIMEOUT = 5.0

HELLO_TYPE = "live_hello"


class HandshakeError(Exception):
    """The peer failed or refused the hello exchange."""


class PeerSpec:
    """A statically configured peer address."""

    __slots__ = ("name", "host", "port")

    def __init__(self, name: str, host: str, port: int):
        self.name = name
        self.host = host
        self.port = int(port)

    @classmethod
    def parse(cls, value: str, name: Optional[str] = None) -> "PeerSpec":
        """Parse ``host:port`` (name defaults to the address itself)."""
        host, _, port = value.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"peer must be host:port, got {value!r}")
        return cls(name or value, host, int(port))

    def __repr__(self) -> str:
        return f"PeerSpec({self.name!r}, {self.host}:{self.port})"


class Backoff:
    """Exponential backoff with full jitter.

    Delays grow ``base * multiplier**attempt`` up to ``cap``; each is
    then scaled by a uniform draw in ``[1 - jitter, 1]`` from a caller-
    supplied RNG, so a seeded RNG gives a reproducible schedule in
    tests while real fleets desynchronize.
    """

    def __init__(self, base_s: float = 0.2, cap_s: float = 30.0,
                 multiplier: float = 2.0, jitter: float = 0.5,
                 rng: Optional[random.Random] = None):
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        self._base = base_s
        self._cap = cap_s
        self._multiplier = multiplier
        self._jitter = jitter
        self._rng = rng or random.Random()
        self._attempt = 0

    @property
    def attempt(self) -> int:
        return self._attempt

    def next_delay(self) -> float:
        """The next delay in seconds; each call escalates."""
        raw = min(self._cap, self._base * self._multiplier ** self._attempt)
        self._attempt += 1
        return raw * (1.0 - self._jitter * self._rng.random())

    def reset(self) -> None:
        self._attempt = 0


def hello_message(node: VegvisirNode, name: Optional[str] = None) -> dict:
    return {
        "type": HELLO_TYPE,
        "chain": node.chain_id.digest,
        "node": node.user_id.digest,
        "name": name if name is not None else node.user_id.short(),
    }


def check_hello(node: VegvisirNode, hello) -> dict:
    """The peer's hello, if it is one and follows *node*'s blockchain."""
    if not isinstance(hello, dict) or hello.get("type") != HELLO_TYPE:
        raise HandshakeError("first frame is not a live_hello")
    if hello.get("chain") != node.chain_id.digest:
        raise HandshakeError(
            "peer follows a different blockchain (genesis mismatch)"
        )
    return hello


async def handshake(transport, node: VegvisirNode, name: str,
                    timeout_s: float = DEFAULT_HANDSHAKE_TIMEOUT) -> dict:
    """Exchange hellos; return the peer's, or raise :class:`HandshakeError`.

    Sends first (both sides do — the exchange is symmetric and cannot
    deadlock), then waits at most *timeout_s* for the peer's hello.
    """
    await transport.send(wire.encode(hello_message(node, name)))
    try:
        payload = await asyncio.wait_for(transport.recv(), timeout_s)
    except asyncio.TimeoutError:
        raise HandshakeError(
            f"peer sent no hello within {timeout_s}s"
        ) from None
    except TransportError as exc:
        raise HandshakeError(f"connection lost in handshake: {exc}") from exc
    try:
        hello = wire.decode(payload)
    except wire.DecodeError as exc:
        raise HandshakeError(f"undecodable hello: {exc}") from exc
    return check_hello(node, hello)


#: Serves one handshaken connection until it closes.
ConnectionHandler = Callable[[StreamTransport, dict], Awaitable[None]]


class PeerManager:
    """All connections of one live node, inbound and outbound."""

    def __init__(
        self,
        node: VegvisirNode,
        name: str,
        peers: Optional[List[PeerSpec]] = None,
        *,
        connection_handler: Optional[ConnectionHandler] = None,
        handshake_timeout_s: float = DEFAULT_HANDSHAKE_TIMEOUT,
        backoff_base_s: float = 0.2,
        max_frame_bytes: Optional[int] = None,
        seed: Optional[int] = None,
        obs=None,
        runtime: Runtime = SYSTEM,
    ):
        self._node = node
        self.name = name
        self._peers: List[PeerSpec] = list(peers or ())
        self._connection_handler = connection_handler
        self._handshake_timeout = handshake_timeout_s
        self._backoff_base = backoff_base_s
        self._max_frame_bytes = max_frame_bytes
        self._rng = random.Random(seed)
        self._obs = obs if obs is not None and obs.enabled else None
        self._runtime = runtime
        self._listener: Optional[Listener] = None
        self._outbound: Dict[str, StreamTransport] = {}
        self._maintain_tasks: Dict[str, asyncio.Task] = {}
        self._backoffs: Dict[str, Backoff] = {}
        self._dynamic: set = set()
        self._closing_tasks: set = set()
        self._inbound_tasks: set = set()
        self._inbound: List[StreamTransport] = []
        # Set while the node participates in the network; cleared by
        # partition() to sever and refuse all connections.
        self._running = asyncio.Event()
        self._running.set()
        self._stopped = False
        if self._obs is not None:
            registry = self._obs.registry
            self._c_dials = registry.counter(
                "live_dials_total", "outbound dial attempts",
                labels=("outcome",),
            )
            self._c_accepted = registry.counter(
                "live_connections_accepted_total",
                "inbound connections surviving the handshake",
            )
            self._c_handshake_failures = registry.counter(
                "live_handshake_failures_total",
                "handshakes refused, malformed, or timed out",
                labels=("direction",),
            )
            self._c_disconnects = registry.counter(
                "live_disconnects_total", "connections that ended",
                labels=("direction",),
            )
            self._g_connected = registry.gauge(
                "live_connected_peers", "outbound connections currently up"
            )

    # -- lifecycle -----------------------------------------------------

    @property
    def listen_port(self) -> Optional[int]:
        """The bound port (useful after listening on port 0)."""
        return None if self._listener is None else self._listener.port

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> None:
        """Bind the listener and begin maintaining outbound peers.

        Raises :class:`~repro.runtime.ListenError` when the address
        cannot be bound (port already in use, bad host, ...).
        """
        self._listener = await self._runtime.listen(self._accept, host, port)
        for spec in self._peers:
            self._start_maintaining(spec)

    def add_peer(self, spec: PeerSpec, dynamic: bool = False) -> bool:
        """Add (and immediately start dialing) one more peer.

        Returns False without side effects when a peer of that name is
        already maintained — discovery may re-announce a peer we hold.
        ``dynamic`` marks peers learned from discovery, which
        :meth:`remove_peer` may drop again on expiry.
        """
        if spec.name in self._maintain_tasks or any(
            known.name == spec.name for known in self._peers
        ):
            return False
        self._peers.append(spec)
        if dynamic:
            self._dynamic.add(spec.name)
        if self._listener is not None and not self._stopped:
            self._start_maintaining(spec)
        return True

    def remove_peer(self, name: str) -> bool:
        """Stop maintaining a dynamic peer and close its connection.

        Only peers added with ``dynamic=True`` are removable — static
        configuration does not decay.  Returns whether a peer was
        removed.
        """
        if name not in self._dynamic:
            return False
        self._dynamic.discard(name)
        self._peers = [spec for spec in self._peers if spec.name != name]
        task = self._maintain_tasks.pop(name, None)
        if task is not None:
            task.cancel()
        self._backoffs.pop(name, None)
        transport = self._outbound.pop(name, None)
        if transport is not None and not transport.closed:
            closer = asyncio.ensure_future(transport.close())
            self._closing_tasks.add(closer)
            closer.add_done_callback(self._closing_tasks.discard)
        if self._obs is not None:
            self._g_connected.set(len(self.connected_peers()))
        return True

    def dynamic_peers(self) -> List[str]:
        """Names of currently maintained discovery-learned peers."""
        return sorted(self._dynamic)

    def _start_maintaining(self, spec: PeerSpec) -> None:
        task = asyncio.ensure_future(self._maintain(spec))
        self._maintain_tasks[spec.name] = task

    async def stop(self) -> None:
        """Tear everything down; afterwards no task or socket remains."""
        self._stopped = True
        tasks = list(self._maintain_tasks.values()) + list(self._inbound_tasks)
        loops = tasks
        # Cancel until it takes.  Before Python 3.12 asyncio.wait_for()
        # returns a result that raced a cancel() and drops the cancel: a
        # dial or handshake that completes as we stop leaves its loop
        # parked on an open connection, and awaiting it never returned.
        # The timeout is only how soon a survivor is cancelled again.
        while loops:
            for task in loops:
                task.cancel()
            try:
                await asyncio.wait(loops, timeout=0.05)
            except asyncio.CancelledError:
                pass  # as ever: a teardown under way is finished
            loops = [task for task in loops if not task.done()]
        for task in tasks:
            if not task.cancelled():
                task.exception()  # retrieved, so not logged at collection
        for task in list(self._closing_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._maintain_tasks.clear()
        self._inbound_tasks.clear()
        self._closing_tasks.clear()
        self._backoffs.clear()
        for transport in list(self._outbound.values()) + self._inbound:
            await transport.close()
        self._outbound.clear()
        self._inbound.clear()
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None

    # -- partitions ----------------------------------------------------

    async def partition(self) -> None:
        """Sever every connection and refuse new ones (test partitions).

        Dial loops keep running but park before their next attempt;
        inbound connections are closed during the handshake.  ``heal()``
        lets traffic flow again — reconnection then rides the normal
        backoff path, exactly like a radio coming back into range.
        """
        self._running.clear()
        for transport in list(self._outbound.values()) + list(self._inbound):
            await transport.close()

    def heal(self) -> None:
        """Undo :meth:`partition`."""
        self._running.set()

    @property
    def partitioned(self) -> bool:
        return not self._running.is_set()

    # -- outbound ------------------------------------------------------

    def connection(self, name: str) -> Optional[StreamTransport]:
        """The live outbound transport to *name*, if connected."""
        transport = self._outbound.get(name)
        if transport is None or transport.closed:
            return None
        return transport

    def connected_peers(self) -> List[str]:
        return sorted(
            name for name, transport in self._outbound.items()
            if not transport.closed
        )

    async def _maintain(self, spec: PeerSpec) -> None:
        backoff = Backoff(base_s=self._backoff_base, rng=self._rng)
        self._backoffs[spec.name] = backoff
        while True:
            await self._running.wait()
            transport = await self._dial_once(spec)
            if self._maintain_tasks.get(spec.name) is not (
                asyncio.current_task()
            ):
                # remove_peer() cancelled this loop, and before Python
                # 3.12 a dial's wait_for can swallow that cancel: the
                # connection it made is not this loop's to publish.
                if transport is not None:
                    await transport.close()
                return
            if transport is None:
                await asyncio.sleep(backoff.next_delay())
                continue
            backoff.reset()
            self._outbound[spec.name] = transport
            if self._obs is not None:
                self._g_connected.set(len(self.connected_peers()))
                self._obs.emit(
                    "peer.connected", peer=spec.name, direction="outbound",
                    node=self.name,
                )
            await transport.wait_closed()
            self._outbound.pop(spec.name, None)
            if self._obs is not None:
                self._g_connected.set(len(self.connected_peers()))
                self._c_disconnects.labels(direction="outbound").inc()
                self._obs.emit(
                    "peer.disconnected", peer=spec.name,
                    direction="outbound", node=self.name,
                )

    async def _dial_once(self, spec: PeerSpec) -> Optional[StreamTransport]:
        try:
            reader, writer = await asyncio.wait_for(
                self._runtime.dial(spec.host, spec.port), DIAL_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError):
            if self._obs is not None:
                self._c_dials.labels(outcome="unreachable").inc()
            return None
        kwargs = {"label": f"{self.name}->{spec.name}"}
        if self._max_frame_bytes is not None:
            kwargs["max_frame_bytes"] = self._max_frame_bytes
        transport = StreamTransport(reader, writer, **kwargs)
        try:
            await handshake(
                transport, self._node, self.name, self._handshake_timeout
            )
        except HandshakeError:
            if self._obs is not None:
                self._c_dials.labels(outcome="handshake_failed").inc()
                self._c_handshake_failures.labels(direction="outbound").inc()
            await transport.close()
            return None
        if self._obs is not None:
            self._c_dials.labels(outcome="connected").inc()
        return transport

    # -- inbound -------------------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inbound_tasks.add(task)
        kwargs = {"label": f"{self.name}<-inbound"}
        if self._max_frame_bytes is not None:
            kwargs["max_frame_bytes"] = self._max_frame_bytes
        transport = StreamTransport(reader, writer, **kwargs)
        try:
            await self._accept_inner(transport)
        except asyncio.CancelledError:
            # Shutdown: end quietly, or asyncio's stream machinery logs
            # the cancellation as a connection error.
            pass
        finally:
            await transport.close()
            if task is not None:
                self._inbound_tasks.discard(task)

    async def _accept_inner(self, transport: StreamTransport) -> None:
        if not self._running.is_set():
            await transport.close()
            return
        try:
            hello = await handshake(
                transport, self._node, self.name, self._handshake_timeout
            )
        except (HandshakeError, TransportError):
            # Half-open or hostile connection: cut it, never leak it.
            if self._obs is not None:
                self._c_handshake_failures.labels(direction="inbound").inc()
            await transport.close()
            return
        peer_name = str(hello.get("name", "?"))
        transport.label = f"{self.name}<-{peer_name}"
        self._inbound.append(transport)
        if self._obs is not None:
            self._c_accepted.inc()
            self._obs.emit(
                "peer.connected", peer=peer_name, direction="inbound",
                node=self.name,
            )
        try:
            if self._connection_handler is not None:
                await self._connection_handler(transport, hello)
            else:  # no handler: hold the connection open until it drops
                await transport.wait_closed()
        except TransportClosed:
            pass
        finally:
            await transport.close()
            if transport in self._inbound:
                self._inbound.remove(transport)
            if self._obs is not None:
                self._c_disconnects.labels(direction="inbound").inc()
                self._obs.emit(
                    "peer.disconnected", peer=peer_name,
                    direction="inbound", node=self.name,
                )
