"""The live discovery service: signed beacons over UDP multicast.

:class:`DiscoveryService` is the live runtime's radio.  It binds one
UDP socket joined to a multicast group (loopback by default, so whole
clusters run on one machine), announces a signed beacon every
``beacon_interval_s``, feeds every received datagram into a
:class:`~repro.discovery.directory.DiscoveryDirectory`, and ticks the
directory so silent peers decay through suspect to expired.  Faults
(drop/duplicate/corrupt/reorder) can be injected on the *send* path
via a :class:`~repro.discovery.faults.BeaconFaultFilter` — the receive
path then classifies and counts the damage exactly as a hostile
network would force it to.

The endpoint is the runtime's multicast endpoint
(:meth:`repro.runtime.Runtime.multicast`, which shares the group/port
pair among the nodes of one host and loops multicast back, so
localhost clusters work).  A node's own beacons come back via
multicast loopback and are rejected as ``self`` — cheap, and it keeps
the receive path uniform.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional, Set

from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.discovery.beacon import encode_beacon, frontier_digest
from repro.discovery.directory import DirectoryEvent, DiscoveryDirectory
from repro.discovery.faults import BeaconFaultFilter
from repro.runtime import SYSTEM, Runtime

DEFAULT_GROUP = "239.86.71.86"  # V-G-V in the org-local scope
DEFAULT_PORT = 47474
DEFAULT_BEACON_INTERVAL_S = 1.0


class DiscoveryConfig:
    """Tunables for one :class:`DiscoveryService`."""

    def __init__(
        self,
        group: str = DEFAULT_GROUP,
        port: int = DEFAULT_PORT,
        *,
        interface: str = "127.0.0.1",
        beacon_interval_s: float = DEFAULT_BEACON_INTERVAL_S,
        ttl_s: Optional[float] = None,
        expiry_s: Optional[float] = None,
        fault_filter: Optional[BeaconFaultFilter] = None,
    ):
        if beacon_interval_s <= 0:
            raise ValueError("beacon_interval_s must be positive")
        self.group = group
        self.port = int(port)
        self.interface = interface
        self.beacon_interval_s = beacon_interval_s
        # SWIM-ish defaults: miss ~3 beacons => suspect, ~3 more =>
        # expired.  Both are overridable for fast tests.
        self.ttl_s = ttl_s if ttl_s is not None else 3 * beacon_interval_s
        self.expiry_s = expiry_s if expiry_s is not None else 3 * self.ttl_s
        self.fault_filter = fault_filter

    @property
    def ttl_ms(self) -> int:
        return max(1, int(self.ttl_s * 1000))

    @property
    def expiry_ms(self) -> int:
        return max(self.ttl_ms, int(self.expiry_s * 1000))


class _BeaconProtocol(asyncio.DatagramProtocol):
    """Receives datagrams and hands them to the service."""

    def __init__(self, service: "DiscoveryService"):
        self._service = service

    def datagram_received(self, data: bytes, addr) -> None:
        self._service._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:
        pass  # ICMP errors on a multicast socket are noise


class DiscoveryService:
    """Beacon announcer + receiver for one live node."""

    def __init__(
        self,
        key_pair: KeyPair,
        node: VegvisirNode,
        name: str,
        tcp_port: Callable[[], Optional[int]],
        config: Optional[DiscoveryConfig] = None,
        *,
        obs=None,
        on_event: Optional[Callable[[DirectoryEvent], None]] = None,
        runtime: Runtime = SYSTEM,
    ):
        self._key_pair = key_pair
        self._node = node
        self.name = name
        self._tcp_port = tcp_port
        self.config = config or DiscoveryConfig()
        self._runtime = runtime
        self._clock = runtime.wall_ms
        self._obs = obs if obs is not None and obs.enabled else None
        self.directory = DiscoveryDirectory(
            node.chain_id, node.user_id,
            ttl_ms=self.config.ttl_ms,
            expiry_ms=self.config.expiry_ms,
            node_label=name,
            obs=obs,
            on_event=on_event,
        )
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._announce_task: Optional[asyncio.Task] = None
        self._send_tasks: Set[asyncio.Task] = set()
        # Epoch is the service start time: strictly increasing across
        # restarts of the same node, which is what rejoin detection
        # orders on.  Seq increments per beacon within the epoch.
        self.epoch = 0
        self.seq = 0
        self.beacons_sent = 0
        if self._obs is not None:
            self._c_sent = self._obs.registry.counter(
                "discovery_beacons_sent_total",
                "beacon datagrams announced",
                labels=("node",),
            ).labels(node=name)
        else:
            self._c_sent = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Join the group (or raise ``ListenError``), start announcing
        and ticking."""
        if self._transport is not None:
            raise RuntimeError("discovery service already started")
        self._transport = await self._runtime.multicast(
            lambda: _BeaconProtocol(self), self.config.group,
            self.config.port, self.config.interface,
        )
        self.epoch = max(self.epoch + 1, self._clock())
        self.seq = 0
        self._announce_task = asyncio.ensure_future(self._announce_loop())

    async def stop(self) -> None:
        """Stop announcing and close the socket; idempotent."""
        if self._announce_task is not None:
            self._announce_task.cancel()
            try:
                await self._announce_task
            except asyncio.CancelledError:
                pass
            self._announce_task = None
        for task in list(self._send_tasks):
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._send_tasks.clear()
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # -- announcing ----------------------------------------------------

    def _build_beacon(self) -> Optional[bytes]:
        port = self._tcp_port()
        if not port:
            return None  # listener not bound yet; announce next tick
        self.seq += 1
        return encode_beacon(
            self._key_pair, self._node.chain_id, port, self.name,
            frontier_digest(self._node), self.epoch, self.seq,
        )

    def _send(self, payload: bytes, delay_ms: int = 0) -> None:
        if self._transport is None or self._transport.is_closing():
            return
        if delay_ms <= 0:
            self._transport.sendto(
                payload, (self.config.group, self.config.port)
            )
            return

        async def later() -> None:
            await asyncio.sleep(delay_ms / 1000.0)
            if self._transport is not None and not (
                self._transport.is_closing()
            ):
                self._transport.sendto(
                    payload, (self.config.group, self.config.port)
                )

        task = asyncio.ensure_future(later())
        self._send_tasks.add(task)
        task.add_done_callback(self._send_tasks.discard)

    def announce_once(self) -> bool:
        """Sign and send one beacon now; False if not ready yet."""
        payload = self._build_beacon()
        if payload is None:
            return False
        self.beacons_sent += 1
        if self._c_sent is not None:
            self._c_sent.inc()
        fault_filter = self.config.fault_filter
        if fault_filter is None:
            self._send(payload)
        else:
            for delay_ms, mutated in fault_filter.apply(payload):
                self._send(mutated, delay_ms)
        return True

    async def _announce_loop(self) -> None:
        interval = self.config.beacon_interval_s
        while True:
            self.announce_once()
            self.directory.tick(self._clock())
            await asyncio.sleep(interval)

    # -- receiving -----------------------------------------------------

    def _on_datagram(self, data: bytes, addr) -> None:
        self.directory.ingest(data, addr[0], self._clock())

    def __repr__(self) -> str:
        return (
            f"DiscoveryService({self.name}, group={self.config.group}:"
            f"{self.config.port}, peers={len(self.directory)})"
        )
