"""Workload generators.

A workload decides who appends what, when.  The default is the
per-node periodic appender the experiments use; two more shapes cover
the regimes IoT deployments actually produce:

* :class:`PeriodicWorkload` — every node appends on a jittered period
  (steady telemetry).
* :class:`BurstyWorkload` — long silences, then a burst of appends from
  one node (event-triggered sensors: the hull breach, the pathogen
  alarm).
* :class:`HotspotWorkload` — a skewed share of appends comes from one
  hot node (a gateway or coordinator), the rest spread evenly.

Every shape appends through :meth:`Workload._append_once`: to the
simulation's shared event log, never on a crashed node, sampling the
frontier width first and registering the block with the gossip tracker,
so metrics stay comparable across shapes.  A scenario that names no
workload runs :func:`default_workload`.
"""

from __future__ import annotations

import abc
import random


from repro.chain.block import Transaction

WORKLOAD_CRDT = "events"


class Workload(abc.ABC):
    """Schedules append activity onto a running simulation."""

    def __init__(self, seed: int = 0, payload_bytes: int = 64):
        self._rng = random.Random(seed ^ 0x3A7)
        self.payload_bytes = payload_bytes
        self.appends = 0
        self._stopped = False

    def stop(self) -> None:
        """No further appends are scheduled after the current ones."""
        self._stopped = True

    @abc.abstractmethod
    def start(self, sim) -> None:
        """Schedule the first events on ``sim.loop``."""

    # -- helpers ---------------------------------------------------------

    def _append_once(self, sim, node_id: int) -> bool:
        """One append at *node_id*, if it is up and the workload CRDT is
        visible there (its creation block spreads by gossip)."""
        faults = sim.fault_injector
        if faults is not None and faults.node_down(node_id):
            return False  # crashed nodes append nothing until restart
        node = sim.fleet.nodes[node_id]
        if node.csm.crdt_instance(WORKLOAD_CRDT) is None:
            return False
        # Sample the width the append is about to rein in.
        sim.metrics.sample_frontier_width(
            sim.loop.now, node.dag.frontier_width()
        )
        payload = {
            "node": node_id,
            "seq": self.appends,
            "data": bytes(
                self._rng.randrange(256) for _ in range(self.payload_bytes)
            ),
        }
        node.append_transactions(
            [Transaction(WORKLOAD_CRDT, "append", [payload])]
        )
        self.appends += 1
        sim.metrics.blocks_created += 1
        sim.gossip.observe_local_blocks(node_id)
        return True


class PeriodicWorkload(Workload):
    """Every node (every one of :meth:`_appender_ids`) appends on a
    jittered period."""

    def __init__(self, interval_ms: int, seed: int = 0,
                 payload_bytes: int = 64):
        super().__init__(seed, payload_bytes)
        if interval_ms < 1:
            raise ValueError("interval must be positive")
        self.interval_ms = interval_ms

    def _appender_ids(self, sim) -> list[int]:
        return sorted(sim.fleet.nodes)

    def start(self, sim) -> None:
        for node_id in self._appender_ids(sim):
            offset = self._rng.randrange(self.interval_ms)
            sim.loop.schedule_in(offset, self._make_tick(sim, node_id))

    def _make_tick(self, sim, node_id: int):
        def tick() -> None:
            if self._stopped:
                return
            jitter = self._rng.randrange(max(1, self.interval_ms // 4))
            sim.loop.schedule_in(
                self.interval_ms + jitter, self._make_tick(sim, node_id)
            )
            self._append_once(sim, node_id)
        return tick


def default_workload(scenario) -> PeriodicWorkload:
    """The appender of a scenario that names none: every node, on
    ``append_interval_ms``."""
    workload = PeriodicWorkload(
        scenario.append_interval_ms, payload_bytes=scenario.payload_bytes
    )
    # Its own stream, apart from any explicit workload's for the same
    # seed — and the one the pinned traces and the perf ledger's
    # ``sim_study`` numbers were captured on.
    workload._rng = random.Random(scenario.seed ^ 0xC0FFEE)
    return workload


class BurstyWorkload(Workload):
    """Silence, then a burst of appends from one random node."""

    def __init__(self, burst_interval_ms: int, burst_size: int = 5,
                 intra_burst_ms: int = 50, seed: int = 0,
                 payload_bytes: int = 64):
        super().__init__(seed, payload_bytes)
        self.burst_interval_ms = burst_interval_ms
        self.burst_size = burst_size
        self.intra_burst_ms = intra_burst_ms
        self.bursts = 0

    def start(self, sim) -> None:
        sim.loop.schedule_in(
            self._rng.randrange(max(1, self.burst_interval_ms)),
            self._make_burst(sim),
        )

    def _make_burst(self, sim):
        def burst() -> None:
            if self._stopped:
                return
            sim.loop.schedule_in(
                self.burst_interval_ms, self._make_burst(sim)
            )
            self.bursts += 1
            node_id = self._rng.randrange(sim.scenario.node_count)
            for index in range(self.burst_size):
                sim.loop.schedule_in(
                    index * self.intra_burst_ms,
                    lambda n=node_id: self._append_once(sim, n),
                )
        return burst


class HotspotWorkload(Workload):
    """A fraction of all appends comes from node 0 (the hotspot)."""

    def __init__(self, interval_ms: int, hotspot_share: float = 0.7,
                 seed: int = 0, payload_bytes: int = 64):
        super().__init__(seed, payload_bytes)
        if not 0.0 <= hotspot_share <= 1.0:
            raise ValueError("hotspot share must be in [0, 1]")
        self.interval_ms = interval_ms
        self.hotspot_share = hotspot_share

    def start(self, sim) -> None:
        sim.loop.schedule_in(
            self._rng.randrange(max(1, self.interval_ms)),
            self._make_tick(sim),
        )

    def _make_tick(self, sim):
        def tick() -> None:
            if self._stopped:
                return
            jitter = self._rng.randrange(max(1, self.interval_ms // 4))
            sim.loop.schedule_in(
                self.interval_ms + jitter, self._make_tick(sim)
            )
            if self._rng.random() < self.hotspot_share:
                node_id = 0
            else:
                node_id = 1 + self._rng.randrange(
                    max(1, sim.scenario.node_count - 1)
                )
            self._append_once(sim, node_id)
        return tick
