"""City-scale simulation: 10k+ mobile nodes for a simulated day.

The paper's experiments stop at 32 nodes; §VI explicitly calls for
"more extensive simulations".  This module supplies them without
forking the simulator: a :func:`city_scenario` plugs into the ordinary
:class:`~repro.sim.runner.Simulation` and exercises the *real* sim core
— event loop, epoch-batched gossip scheduler, spatial-hash neighbor
index, mobility, link and energy models, metrics — end to end.

What changes at this scale is the *node*, not the *core*.  A full
:class:`~repro.core.node.VegvisirNode` carries an Ed25519 keypair, its
own copy of the membership tables (replicas of one genesis share its
replay and every certificate, but each still holds an n-entry
dictionary: about 50 KB at 1k members, 0.5 MB at 10k — 5 GB for the
fleet), and per-block signature verification, minutes of pure-Python
crypto per gossiped block without the accelerated backend
(``docs/scale.md``, Layer 4, has the measurements).  City runs
therefore build a *lite fleet*: each node is a :class:`LiteNode` whose
chain state is an insertion-ordered set of block ids over shared
:class:`LiteBlock` descriptors, reconciled by :class:`LiteSyncProtocol`
through the unchanged ``GossipScheduler`` contact path — same
tick/busy/link/energy accounting, same metrics, same convergence
definition (identical state digests).  Byte costs are modelled from the
descriptors' wire sizes, so session and energy totals stay comparable
with small-fleet runs.

Radio heterogeneity mirrors a real city: most devices are
Bluetooth-class, some are WiFi-Direct-class, a few are long-range
gateways; a link requires both endpoints to be in range.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Optional

from repro.net.links import LinkModel
from repro.net.mobility import RandomWaypoint
from repro.net.topology import GeometricTopology
from repro.reconcile.stats import (
    INITIATOR_TO_RESPONDER,
    RESPONDER_TO_INITIATOR,
    ReconcileStats,
)
from repro.sim.scenario import Scenario
from repro.sim.workload import PeriodicWorkload

#: Radio classes: (range in meters, fleet share).  Drawn per node.
RADIO_CLASSES = ((30.0, 0.6), (80.0, 0.3), (150.0, 0.1))

#: Target deployment density, nodes per square kilometer.
DENSITY_PER_KM2 = 400.0

DAY_MS = 86_400_000

#: Modelled wire cost of one lite block (header + signature + payload).
LITE_BLOCK_WIRE_SIZE = 220

#: Modelled wire cost of one reconciliation summary message.
LITE_SUMMARY_BYTES = 64

#: Modelled per-block announcement overhead on top of the block body.
LITE_ANNOUNCE_BYTES = 40


class LiteBlock:
    """A block descriptor: identity, creator, and modelled wire size."""

    __slots__ = ("block_id", "user_id", "wire_size")

    def __init__(self, block_id: int, user_id: int,
                 wire_size: int = LITE_BLOCK_WIRE_SIZE):
        self.block_id = block_id
        self.user_id = user_id
        self.wire_size = wire_size


class LiteLog:
    """Insertion-ordered block-id log — the lite stand-in for a DAG.

    Implements the slice of the ``BlockDAG`` interface the gossip
    scheduler's delivery tracking touches: ``inserted_since``, ``get``,
    and ``len``.  Block descriptors live in one shared registry, so a
    block costs O(1) per holding node, not one object graph each.
    """

    __slots__ = ("_registry", "_order", "_have")

    def __init__(self, registry: dict[int, LiteBlock]):
        self._registry = registry
        self._order: list[int] = []
        self._have: set[int] = set()

    def insertion_order(self) -> list[int]:
        return self._order

    def inserted_since(self, count: int) -> list[int]:
        return self._order[count:]

    def get(self, block_id: int) -> LiteBlock:
        return self._registry[block_id]

    def has(self, block_id: int) -> bool:
        return block_id in self._have

    def add(self, block_id: int) -> bool:
        if block_id in self._have:
            return False
        self._have.add(block_id)
        self._order.append(block_id)
        return True

    def missing_from(self, other: "LiteLog") -> list[int]:
        """Ids *other* holds that this log lacks, in *other*'s
        insertion order (the order an epidemic push would send them)."""
        have = self._have
        return [
            block_id for block_id in other._order if block_id not in have
        ]

    def __len__(self) -> int:
        return len(self._order)


class LiteNode:
    """A lightweight gossip participant for city-scale runs."""

    __slots__ = ("node_id", "user_id", "dag")

    def __init__(self, node_id: int, registry: dict[int, LiteBlock]):
        self.node_id = node_id
        # Gossip compares block.user_id to node.user_id to tell local
        # creations from deliveries; lite blocks carry creator node ids.
        self.user_id = node_id
        self.dag = LiteLog(registry)

    def append_block(self, block: LiteBlock) -> None:
        self.dag._registry[block.block_id] = block
        self.dag.add(block.block_id)

    def state_digest(self) -> bytes:
        digest = hashlib.sha256()
        for block_id in sorted(self.dag._have):
            digest.update(struct.pack(">Q", block_id))
        return digest.digest()


class LiteFleet:
    """The lite counterpart of :class:`~repro.sim.scenario.Fleet`."""

    lite = True

    def __init__(self, nodes: dict[int, LiteNode],
                 registry: dict[int, LiteBlock]):
        self.nodes = nodes
        self.registry = registry
        self.keys: list = []


def lite_fleet_factory(scenario: Scenario, loop, mobility) -> LiteFleet:
    """Build a lite fleet; drop-in for ``build_fleet`` at city scale."""
    registry: dict[int, LiteBlock] = {}
    nodes = {
        node_id: LiteNode(node_id, registry)
        for node_id in range(scenario.node_count)
    }
    return LiteFleet(nodes, registry)


class LiteSyncProtocol:
    """Two-way set reconciliation over lite logs.

    Models the frontier protocol's cost shape: one summary exchange
    (fixed bytes each way), then every missing block crossing as body
    plus announcement overhead.  Runs atomically — the city scenario
    uses the atomic session model, where a contact's transfer duration
    is charged from the byte total afterwards.
    """

    name = "litesync"

    def __init__(self, push: bool = True):
        self.push = push

    def run(self, initiator: LiteNode, responder: LiteNode) -> ReconcileStats:
        stats = ReconcileStats(self.name)
        stats.rounds = 1
        stats.record_raw(INITIATOR_TO_RESPONDER, LITE_SUMMARY_BYTES)
        stats.record_raw(RESPONDER_TO_INITIATOR, LITE_SUMMARY_BYTES)
        pulled = initiator.dag.missing_from(responder.dag)
        for block_id in pulled:
            block = responder.dag.get(block_id)
            stats.record_raw(
                RESPONDER_TO_INITIATOR,
                block.wire_size + LITE_ANNOUNCE_BYTES,
            )
            initiator.append_block(block)
        stats.blocks_pulled = len(pulled)
        if self.push:
            pushed = responder.dag.missing_from(initiator.dag)
            for block_id in pushed:
                block = initiator.dag.get(block_id)
                stats.record_raw(
                    INITIATOR_TO_RESPONDER,
                    block.wire_size + LITE_ANNOUNCE_BYTES,
                )
                responder.append_block(block)
            stats.blocks_pushed = len(pushed)
        stats.converged = True
        return stats


class CityWorkload(PeriodicWorkload):
    """Sparse telemetry: the periodic appender over a subset of writer
    nodes.  Appends create :class:`LiteBlock` descriptors directly
    (lite fleets have no CSM), registered with the gossip tracker like
    any other block."""

    def __init__(self, writer_ids: list[int], interval_ms: int,
                 seed: int = 0, wire_size: int = LITE_BLOCK_WIRE_SIZE):
        super().__init__(interval_ms, seed=seed, payload_bytes=0)
        self.writer_ids = sorted(writer_ids)
        self.wire_size = wire_size

    def _appender_ids(self, sim) -> list[int]:
        return self.writer_ids

    def _append_once(self, sim, writer_id: int) -> bool:
        # Block ids count up from 0 in creation order.
        block = LiteBlock(self.appends, writer_id, self.wire_size)
        sim.fleet.nodes[writer_id].append_block(block)
        self.appends += 1
        sim.metrics.blocks_created += 1
        sim.gossip.observe_local_blocks(writer_id)
        return True


def draw_radio_ranges(node_count: int, seed: int = 0) -> list[float]:
    """Per-node radio ranges drawn from :data:`RADIO_CLASSES`."""
    rng = random.Random(seed ^ 0xC17A)
    ranges = []
    for _ in range(node_count):
        draw = rng.random()
        cumulative = 0.0
        chosen = RADIO_CLASSES[-1][0]
        for range_m, share in RADIO_CLASSES:
            cumulative += share
            if draw < cumulative:
                chosen = range_m
                break
        ranges.append(chosen)
    return ranges


def city_field_side_m(node_count: int,
                      density_per_km2: float = DENSITY_PER_KM2) -> float:
    """Square field side length holding *node_count* nodes at the
    target density."""
    area_km2 = node_count / density_per_km2
    return (area_km2 ** 0.5) * 1000.0


def city_scenario(
    node_count: int = 10_000,
    duration_ms: int = DAY_MS,
    seed: int = 0,
    gossip_interval_ms: int = 300_000,
    contact_epoch_ms: int = 30_000,
    writer_count: Optional[int] = None,
    append_interval_ms: int = 7_200_000,
    speed_mps: float = 8.0,
    pause_ms: int = 60_000,
    density_per_km2: float = DENSITY_PER_KM2,
) -> Scenario:
    """A heterogeneous-radio mobile city, default 10k nodes for a day.

    Defaults model mixed pedestrian/vehicle mobility (8 m/s, one-minute
    pauses — day-long schedules generate hundreds of waypoint legs per
    node) at 400 nodes/km², sparse hourly-class telemetry from ~2% of
    the fleet, five-minute gossip cadence, and 30 s contact epochs.
    Every knob scales down for tests and benchmarks.
    """
    if node_count < 2:
        raise ValueError("a city needs at least two nodes")
    side_m = city_field_side_m(node_count, density_per_km2)
    mobility = RandomWaypoint(
        node_count, side_m, side_m,
        speed_mps=speed_mps, pause_ms=pause_ms, seed=seed ^ 0x40B1,
    )
    ranges = draw_radio_ranges(node_count, seed=seed)

    def topology_factory(count: int) -> GeometricTopology:
        if count != node_count:
            raise ValueError(
                f"city scenario built for {node_count} nodes, got {count}"
            )
        return GeometricTopology(mobility, radio_ranges=ranges)

    if writer_count is None:
        writer_count = max(4, node_count // 500)
    writer_rng = random.Random(seed ^ 0x3317E5)
    writer_ids = sorted(
        writer_rng.sample(range(node_count), min(writer_count, node_count))
    )
    return Scenario(
        node_count=node_count,
        duration_ms=duration_ms,
        gossip_interval_ms=gossip_interval_ms,
        gossip_jitter_ms=max(1, gossip_interval_ms // 5),
        append_interval_ms=None,
        topology_factory=topology_factory,
        protocol_factory=lambda push: LiteSyncProtocol(push=push),
        link=LinkModel(
            bandwidth_bytes_per_ms=125, setup_latency_ms=50,
            seed=seed ^ 0x11,
        ),
        seed=seed,
        chain_name="city",
        session_model="atomic",
        workload=CityWorkload(
            writer_ids, append_interval_ms, seed=seed,
        ),
        contact_epoch_ms=contact_epoch_ms,
        aggregate_propagation=True,
        fleet_factory=lite_fleet_factory,
    )
