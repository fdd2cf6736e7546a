"""The simulation runner.

Builds a fleet from a :class:`~repro.sim.scenario.Scenario`, wires the
gossip scheduler and an append workload onto one event loop, runs it,
and exposes convergence/energy/propagation results.  Every run with the
same scenario seed is bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import Optional

from repro.net.events import EventLoop
from repro.net.links import LinkModel
from repro.sim.energy import EnergyModel
from repro.sim.gossip import GossipScheduler
from repro.sim.metrics import SimMetrics
from repro.sim.scenario import Scenario, build_fleet
from repro.sim.workload import WORKLOAD_CRDT, default_workload


class Simulation:
    """One reproducible simulation run."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        if scenario.crypto_backend is not None:
            from repro.crypto import backend as crypto_backend

            crypto_backend.set_backend(scenario.crypto_backend)
        self.loop = EventLoop()
        self.obs = self._build_obs(scenario)
        if self.obs is not None:
            self.loop.attach_obs(self.obs)
        self.topology = scenario.topology_factory(scenario.node_count)
        if self.obs is not None:
            attach = getattr(self.topology, "attach_obs", None)
            if attach is not None:
                attach(self.obs)
        # Geometric topologies expose their mobility model; nodes then
        # stamp their blocks with physical locations (Fig. 2).
        mobility = getattr(self.topology, "mobility", None)
        if scenario.fleet_factory is not None:
            self.fleet = scenario.fleet_factory(
                scenario, self.loop, mobility
            )
        else:
            self.fleet = build_fleet(scenario, self.loop, mobility=mobility)
        self.metrics = SimMetrics(
            scenario.node_count, obs=self.obs,
            aggregate_propagation=scenario.aggregate_propagation,
        )
        self.energy = EnergyModel()
        link = scenario.link or LinkModel(seed=scenario.seed ^ 0x11)
        # Fault injection (repro.faults): built even for an all-zero
        # plan — its hot path is draw-free, and the zero-plan run must
        # be byte-identical to a fault-free one (regression-tested).
        self.fault_injector = None
        self.crash_controller = None
        if scenario.faults is not None:
            from repro.faults.injector import CrashController, FaultInjector

            self.fault_injector = FaultInjector(scenario.faults, obs=self.obs)
            self._apply_fault_clock_skew(scenario.faults)
            if scenario.faults.crashes:
                self.crash_controller = CrashController(
                    scenario.faults, self.fault_injector
                )
        self.gossip = GossipScheduler(
            loop=self.loop,
            topology=self.topology,
            nodes=self.fleet.nodes,
            metrics=self.metrics,
            energy=self.energy,
            link=link,
            protocol_factory=scenario.protocol_factory,
            policies=scenario.policies,
            interval_ms=scenario.gossip_interval_ms,
            jitter_ms=scenario.gossip_jitter_ms,
            seed=scenario.seed ^ 0x60551B,
            peer_selector=scenario.peer_selector,
            session_model=scenario.session_model,
            obs=self.obs,
            faults=self.fault_injector,
            contact_epoch_ms=scenario.contact_epoch_ms,
        )
        # Peer discovery (repro.discovery): entirely absent unless the
        # scenario asks for it, so zero-discovery runs schedule nothing
        # extra and stay trace-equivalent to pre-discovery behaviour.
        self.discovery = None
        if scenario.discovery_interval_ms is not None:
            from repro.discovery.simdriver import SimDiscovery

            self.discovery = SimDiscovery(
                self.loop, self.topology, self.fleet.nodes,
                self.fleet.keys,
                interval_ms=scenario.discovery_interval_ms,
                ttl_ms=scenario.discovery_ttl_ms,
                expiry_ms=scenario.discovery_expiry_ms,
                seed=scenario.seed,
                obs=self.obs,
                faults=self.fault_injector,
                beacon_filter=scenario.discovery_beacon_faults,
            )
        # Who appends what, when: the scenario's workload, else the
        # periodic appender on ``append_interval_ms``, else nobody (the
        # caller drives the nodes by hand).
        self.workload = scenario.workload
        if self.workload is None and scenario.append_interval_ms is not None:
            self.workload = default_workload(scenario)
        self._closed = False
        # Lite fleets (city scale) have no CSM; their workload appends
        # lightweight blocks directly instead of CRDT transactions.
        if not getattr(self.fleet, "lite", False):
            self._setup_workload_crdt()
        if self.crash_controller is not None:
            self.crash_controller.install(self)
        if self.obs is not None:
            self.obs.bus.emit(
                "run.start", nodes=scenario.node_count,
                seed=scenario.seed, duration_ms=scenario.duration_ms,
            )

    def _apply_fault_clock_skew(self, plan) -> None:
        """Offset the named nodes' clocks by the plan's per-node skew.

        Layered on top of whatever clock ``build_fleet`` gave the node
        (which may itself carry scenario-level skew), and clamped so a
        skewed clock never reads before genesis.
        """
        for node_id, skew_ms in sorted(plan.clock_skew_ms.items()):
            node = self.fleet.nodes[node_id]
            base = node.clock
            node.clock = (
                lambda base=base, skew=skew_ms: max(1, base() + skew)
            )

    def _build_obs(self, scenario: Scenario):
        """The run's Observability, clocked by the event loop — or None
        (the default), leaving every instrumented site on its free
        path."""
        if scenario.obs is not None:
            return scenario.obs if scenario.obs.enabled else None
        if not scenario.observability_requested:
            return None
        from repro.obs import JsonlFileSink, Observability, RingBufferSink

        sinks = []
        if scenario.trace_ring is not None:
            sinks.append(RingBufferSink(scenario.trace_ring))
        if scenario.trace_path is not None:
            sinks.append(JsonlFileSink(scenario.trace_path))
        return Observability(
            enabled=True, clock=self.loop.clock, sinks=sinks
        )

    # ------------------------------------------------------------------
    # Workload

    def _setup_workload_crdt(self) -> None:
        """Node 0 creates the shared event log all appends target.

        Every node starts from the same genesis; the creation block
        spreads by gossip like any other block, so early appends from
        nodes that have not yet seen it are simply targeted later (the
        workload only appends once the creation is visible locally).
        """
        node = self.fleet.nodes[0]
        node.create_crdt(
            WORKLOAD_CRDT, "append_log", "any", permissions={"append": "*"}
        )

    # ------------------------------------------------------------------
    # Running

    def run(self, duration_ms: Optional[int] = None) -> "Simulation":
        """Start gossip and workload, run the loop, return self."""
        self.gossip.start()
        if self.discovery is not None:
            self.discovery.start()
        if self.workload is not None:
            self.workload.start(self)
        self.loop.run_until(duration_ms or self.scenario.duration_ms)
        return self

    def run_quiescence(self, extra_ms: int, workload: bool = False) -> None:
        """Run further with the workload stopped, letting gossip drain."""
        if not workload and self.workload is not None:
            self.workload.stop()
        self.loop.run_until(self.loop.now + extra_ms)

    # ------------------------------------------------------------------
    # Results

    def registry(self):
        """The run's metrics registry, synced from the live counters."""
        registry = self.metrics.sync_registry()
        if self.fault_injector is not None:
            self.fault_injector.sync_registry(registry)
        return registry

    def close(self) -> None:
        """Flush and close any trace sinks (safe to call repeatedly)."""
        if self.crash_controller is not None:
            self.crash_controller.cleanup()
            self.crash_controller = None
        if self.obs is not None and not self._closed:
            self._closed = True
            self.obs.emit("run.end", events_run=self.loop.events_run)
            self.obs.close()

    def honest_node_ids(self) -> list[int]:
        return [
            node_id for node_id in sorted(self.fleet.nodes)
            if self.gossip.policy(node_id).name == "honest"
        ]

    def converged(self, node_ids: Optional[list[int]] = None) -> bool:
        """Do the given nodes (default: honest ones) agree bit-for-bit?"""
        ids = node_ids if node_ids is not None else self.honest_node_ids()
        digests = {
            self.fleet.nodes[node_id].state_digest().hex() for node_id in ids
        }
        return len(digests) <= 1

    def total_blocks(self) -> int:
        return max(len(node.dag) for node in self.fleet.nodes.values())

    def node(self, node_id: int):
        return self.fleet.nodes[node_id]
