"""Contact-trace topology tests."""

import pytest

from benchmarks.traces import (
    Contact,
    TraceTopology,
    synthetic_encounter_trace,
)


class TestContact:
    def test_normalizes_order(self):
        contact = Contact(3, 1, 0, 10)
        assert (contact.a, contact.b) == (1, 3)

    def test_active_window(self):
        contact = Contact(0, 1, 100, 200)
        assert not contact.active(99)
        assert contact.active(100)
        assert contact.active(199)
        assert not contact.active(200)

    def test_self_contact_rejected(self):
        with pytest.raises(ValueError):
            Contact(2, 2, 0, 10)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            Contact(0, 1, 10, 10)


class TestTraceTopology:
    def test_neighbors_follow_trace(self):
        topo = TraceTopology(3, [
            Contact(0, 1, 0, 100),
            Contact(1, 2, 50, 150),
        ])
        assert topo.neighbors(1, 25) == [0]
        assert topo.neighbors(1, 75) == [0, 2]
        assert topo.neighbors(1, 125) == [2]
        assert topo.neighbors(1, 200) == []

    def test_symmetry(self):
        topo = TraceTopology(2, [Contact(0, 1, 0, 50)])
        assert topo.neighbors(0, 10) == [1]
        assert topo.neighbors(1, 10) == [0]

    def test_out_of_range_contact_rejected(self):
        with pytest.raises(ValueError):
            TraceTopology(2, [Contact(0, 5, 0, 10)])

    def test_totals(self):
        topo = TraceTopology(3, [
            Contact(0, 1, 0, 100), Contact(1, 2, 0, 50),
        ])
        assert topo.contact_count() == 2
        assert topo.total_contact_time_ms() == 150


class TestSyntheticTrace:
    def test_deterministic(self):
        a = synthetic_encounter_trace(4, 60_000, seed=5)
        b = synthetic_encounter_trace(4, 60_000, seed=5)
        assert [(c.a, c.b, c.start_ms, c.end_ms) for c in a] == [
            (c.a, c.b, c.start_ms, c.end_ms) for c in b
        ]

    def test_contacts_within_horizon(self):
        trace = synthetic_encounter_trace(5, 30_000, seed=6)
        assert trace
        for contact in trace:
            assert 0 <= contact.start_ms < contact.end_ms <= 30_001

    def test_single_node_empty(self):
        assert synthetic_encounter_trace(1, 10_000) == []

    def test_more_nodes_more_contacts(self):
        small = synthetic_encounter_trace(3, 60_000, seed=7)
        large = synthetic_encounter_trace(9, 60_000, seed=7)
        assert len(large) > len(small)

    def test_simulation_converges_on_trace(self):
        from repro.sim import Scenario, Simulation

        def factory(node_count):
            trace = synthetic_encounter_trace(
                node_count, 240_000,
                mean_intercontact_ms=8_000,
                mean_contact_ms=4_000, seed=8,
            )
            return TraceTopology(node_count, trace)

        sim = Simulation(
            Scenario(node_count=5, duration_ms=60_000,
                     append_interval_ms=10_000,
                     topology_factory=factory, seed=8)
        ).run()
        sim.run_quiescence(170_000)
        assert sim.converged()
