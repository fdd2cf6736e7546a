"""Workload generator tests."""

import pytest

from repro.sim import (
    BurstyWorkload,
    HotspotWorkload,
    PeriodicWorkload,
    Scenario,
    Simulation,
)
from repro.sim.workload import WORKLOAD_CRDT


def _run(workload, node_count=5, duration=25_000, seed=81):
    sim = Simulation(
        Scenario(node_count=node_count, duration_ms=duration,
                 workload=workload, seed=seed)
    ).run()
    sim.run_quiescence(duration)
    return sim


class TestPeriodicWorkload:
    def test_appends_and_converges(self):
        workload = PeriodicWorkload(interval_ms=4_000, seed=1)
        sim = _run(workload)
        assert workload.appends > 5
        assert sim.converged()
        assert len(sim.node(0).crdt_value(WORKLOAD_CRDT)) == (
            workload.appends
        )

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            PeriodicWorkload(interval_ms=0)

    def test_stop_halts_appends(self):
        workload = PeriodicWorkload(interval_ms=2_000, seed=2)
        sim = _run(workload, duration=15_000)
        after_stop = workload.appends
        sim.loop.run_until(sim.loop.now + 20_000)
        assert workload.appends == after_stop


class TestBurstyWorkload:
    def test_bursts_arrive_in_groups(self):
        workload = BurstyWorkload(burst_interval_ms=8_000, burst_size=4,
                                  seed=3)
        sim = _run(workload, duration=30_000)
        assert workload.bursts >= 2
        assert workload.appends >= workload.bursts * 4 - 4
        assert sim.converged()

    def test_burst_appends_cluster_in_time(self):
        workload = BurstyWorkload(burst_interval_ms=10_000, burst_size=5,
                                  intra_burst_ms=20, seed=4)
        sim = _run(workload, duration=25_000)
        log = sim.node(0).csm.crdt_instance(WORKLOAD_CRDT)
        stamps = [
            record["timestamp"] for record in log.entries_with_metadata()
        ]
        assert stamps == sorted(stamps)
        # Within a burst, consecutive entries are close; between bursts,
        # far apart.  Check the gap distribution is bimodal-ish.
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert gaps and min(gaps) < 500 < max(gaps)


class TestHotspotWorkload:
    def test_hotspot_dominates(self):
        workload = HotspotWorkload(interval_ms=1_000, hotspot_share=0.8,
                                   seed=5)
        sim = _run(workload, duration=40_000)
        entries = sim.node(0).crdt_value(WORKLOAD_CRDT)
        from_hotspot = sum(1 for e in entries if e["node"] == 0)
        assert from_hotspot / len(entries) > 0.6
        assert sim.converged()

    def test_share_bounds_validated(self):
        with pytest.raises(ValueError):
            HotspotWorkload(interval_ms=1_000, hotspot_share=1.5)


class TestEveryShapeAppendsAlike:
    """What the default appender does around an append, every workload
    shape does: both live in ``Workload._append_once``."""

    CRASH_MS, RESTART_MS = 6_000, 30_000

    def _run_bursty_with_crash(self):
        from repro.faults.plan import CrashEvent, FaultPlan

        workload = BurstyWorkload(burst_interval_ms=1_500, burst_size=3,
                                  seed=6)
        plan = FaultPlan(crashes=[
            CrashEvent(1, self.CRASH_MS, self.RESTART_MS)
        ])
        sim = Simulation(Scenario(
            node_count=2, duration_ms=self.RESTART_MS, workload=workload,
            session_model="message", faults=plan, metrics=True, seed=82,
        )).run()
        sim.run_quiescence(10_000)
        sim.close()
        return sim, workload

    def test_downed_node_appends_nothing(self):
        sim, workload = self._run_bursty_with_crash()
        # Bursts did land on node 1 while it was down, and were skipped.
        assert workload.appends < workload.bursts * workload.burst_size
        crashed = sim.node(1)
        written_while_down = [
            block for block in crashed.dag.blocks()
            if block.user_id == crashed.user_id
            and self.CRASH_MS <= block.timestamp < self.RESTART_MS
        ]
        assert written_while_down == []
        assert sim.converged()

    def test_custom_shape_feeds_frontier_width_histogram(self):
        sim, workload = self._run_bursty_with_crash()
        histogram = sim.registry().value("sim_frontier_width")
        assert workload.appends > 0
        assert histogram["count"] == workload.appends
