"""Scenario description and fleet construction.

A :class:`Scenario` bundles every knob a simulation needs — fleet size,
topology, gossip cadence, workload, adversaries — with defaults
modelling a small first-responder deployment.  ``build_fleet`` turns
the membership part into keys, certificates, a genesis block, and nodes
wired to a shared event-loop clock.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.membership.authority import CertificateAuthority
from repro.membership.certificate import Certificate
from repro.net.events import EventLoop
from repro.net.links import LinkModel
from repro.net.topology import FullMeshTopology, Topology
from repro.reconcile.frontier import FrontierProtocol
from repro.sim.adversary import AdversaryPolicy
from repro.sim.gossip import check_session_model


class Scenario:
    """Configuration for one simulation run."""

    def __init__(
        self,
        node_count: int = 8,
        duration_ms: int = 60_000,
        gossip_interval_ms: int = 1_000,
        gossip_jitter_ms: int = 200,
        append_interval_ms: Optional[int] = 5_000,
        payload_bytes: int = 64,
        topology_factory: Optional[Callable[[int], Topology]] = None,
        protocol_factory: Optional[Callable[[bool], object]] = None,
        link: Optional[LinkModel] = None,
        policies: Optional[dict[int, AdversaryPolicy]] = None,
        roles: Optional[Sequence[str]] = None,
        seed: int = 0,
        chain_name: str = "sim",
        clock_skew_ms: int = 0,
        peer_selector: str = "random",
        session_model: str = "atomic",
        workload=None,
        trace_path=None,
        trace_ring: Optional[int] = None,
        metrics: bool = False,
        obs=None,
        faults=None,
        discovery_interval_ms: Optional[int] = None,
        discovery_ttl_ms: Optional[int] = None,
        discovery_expiry_ms: Optional[int] = None,
        discovery_beacon_faults=None,
        contact_epoch_ms: Optional[int] = None,
        aggregate_propagation: bool = False,
        fleet_factory: Optional[Callable] = None,
        crypto_backend: Optional[str] = None,
    ):
        if node_count < 1:
            raise ValueError("need at least one node")
        self.node_count = node_count
        self.duration_ms = duration_ms
        self.gossip_interval_ms = gossip_interval_ms
        self.gossip_jitter_ms = gossip_jitter_ms
        self.append_interval_ms = append_interval_ms
        self.payload_bytes = payload_bytes
        self.topology_factory = topology_factory or FullMeshTopology
        self.protocol_factory = protocol_factory or (
            lambda push: FrontierProtocol(push=push)
        )
        self.link = link
        self.policies = policies or {}
        self.roles = list(roles) if roles is not None else None
        self.seed = seed
        self.chain_name = chain_name
        self.peer_selector = peer_selector
        # "atomic" runs each reconciliation session in full at the
        # contact instant; "message" drives it one wire message at a
        # time over the event loop, where partitions and mobility can
        # interrupt it mid-transfer (see repro.sim.gossip).  A FaultPlan
        # (repro.faults) only makes sense against the message model —
        # atomic sessions have no individual wire messages to drop or
        # corrupt.
        check_session_model(session_model, faults)
        self.session_model = session_model
        # A Workload instance replaces the default periodic appender
        # (append_interval_ms is then ignored).
        self.workload = workload
        # Each node's clock is offset by a fixed draw in
        # [-clock_skew_ms, +clock_skew_ms] — ad hoc devices do not have
        # synchronized clocks, and the §IV-E timestamp checks must
        # tolerate bounded skew.
        self.clock_skew_ms = clock_skew_ms
        # Observability (repro.obs).  ``trace_path`` streams every event
        # to a JSONL file, ``trace_ring`` keeps the last N events in
        # memory, ``metrics=True`` enables the registry without any
        # trace sink, and ``obs`` injects a prebuilt Observability
        # (overriding the other three).  All default off: the
        # simulation then runs its uninstrumented fast path.
        self.trace_path = trace_path
        self.trace_ring = trace_ring
        self.metrics = metrics
        self.obs = obs
        self.faults = faults
        # Peer discovery (repro.discovery).  With an interval set, each
        # node runs a DiscoveryDirectory fed by radio-range beacon
        # events — the sim half of the live --discover mode.  Default
        # off: a zero-discovery run schedules nothing extra and stays
        # byte-for-byte trace-equivalent to earlier behaviour.
        self.discovery_interval_ms = discovery_interval_ms
        self.discovery_ttl_ms = discovery_ttl_ms
        self.discovery_expiry_ms = discovery_expiry_ms
        self.discovery_beacon_faults = discovery_beacon_faults
        # Scale knobs (see docs/scale.md).  ``contact_epoch_ms`` batches
        # per-node gossip tick timers into one loop event per epoch
        # boundary; ``aggregate_propagation`` swaps the per-(block,
        # node) delivery map for O(blocks) aggregates; ``fleet_factory``
        # replaces ``build_fleet`` entirely (city-scale runs build
        # lightweight nodes instead of full crypto object graphs).  All
        # default off: an unset scenario is byte-identical to
        # pre-scale behaviour.
        if contact_epoch_ms is not None and contact_epoch_ms < 1:
            raise ValueError("contact epoch must be positive")
        self.contact_epoch_ms = contact_epoch_ms
        self.aggregate_propagation = aggregate_propagation
        self.fleet_factory = fleet_factory
        # Ed25519 backend for the whole run: "pure" (default),
        # "cryptography" (OpenSSL, needs the accel extra) or "auto".
        # Signatures and verdicts are byte-identical either way (see
        # repro.crypto.backend), so traces and digests do not change.
        # None leaves the process-wide selection (VGV_CRYPTO_BACKEND)
        # untouched.
        self.crypto_backend = crypto_backend

    @property
    def observability_requested(self) -> bool:
        return (
            self.obs is not None
            or self.trace_path is not None
            or self.trace_ring is not None
            or self.metrics
        )

    def role_of(self, node_id: int) -> str:
        if self.roles is None:
            return "sensor"
        return self.roles[node_id % len(self.roles)]


class Fleet:
    """The constructed membership: keys, certificates, genesis, nodes."""

    def __init__(
        self,
        owner: KeyPair,
        authority: CertificateAuthority,
        keys: list[KeyPair],
        certificates: list[Certificate],
        genesis,
        nodes: dict[int, VegvisirNode],
    ):
        self.owner = owner
        self.authority = authority
        self.keys = keys
        self.certificates = certificates
        self.genesis = genesis
        self.nodes = nodes


def build_fleet(scenario: Scenario, loop: EventLoop,
                mobility=None) -> Fleet:
    """Keys, certificates, genesis, and event-loop-clocked nodes.

    Node ids are 0..node_count-1; node 0's key also owns the chain, so a
    single-node scenario is self-contained.  With ``clock_skew_ms`` set,
    each node reads the event-loop time through its own fixed offset
    (clamped so time never goes below genesis).
    """
    import random as _random

    skew_rng = _random.Random(scenario.seed ^ 0x5CE3)
    owner = KeyPair.deterministic(scenario.seed * 100_003)
    authority = CertificateAuthority(owner)
    keys = [
        KeyPair.deterministic(scenario.seed * 100_003 + 1 + index)
        for index in range(scenario.node_count)
    ]
    certificates = [
        authority.issue(key.public_key, scenario.role_of(index), issued_at=0)
        for index, key in enumerate(keys)
    ]
    genesis = create_genesis(
        owner,
        chain_name=scenario.chain_name,
        timestamp=0,
        founding_members=certificates,
    )
    def make_clock(offset_ms: int):
        if offset_ms == 0:
            return loop.clock
        return lambda: max(1, loop.now + offset_ms)

    def make_location(node_id: int):
        # Blocks carry "if possible, a physical location" (Fig. 2);
        # with a mobility model available, stamp fixed-point meters.
        if mobility is None:
            return lambda: None

        def location():
            x, y = mobility.position(node_id, loop.now)
            return (int(x * 1000), int(y * 1000))  # millimeter precision
        return location

    nodes = {}
    for index in range(scenario.node_count):
        skew = (
            skew_rng.randint(-scenario.clock_skew_ms,
                             scenario.clock_skew_ms)
            if scenario.clock_skew_ms else 0
        )
        nodes[index] = VegvisirNode(
            keys[index], genesis, clock=make_clock(skew),
            location=make_location(index),
        )
    return Fleet(owner, authority, keys, certificates, genesis, nodes)
