"""Unit tests for the metrics and energy modules, plus radio busy-state."""

import pytest

from repro.crypto.sha import Hash
from repro.net.links import LinkModel
from repro.sim.energy import EnergyModel, EnergyParameters
from repro.sim.metrics import PropagationTracker, SimMetrics, percentile


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3

    def test_extremes(self):
        values = [10, 20, 30]
        assert percentile(values, 0.0) == 10
        assert percentile(values, 1.0) == 30

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_unsorted_input(self):
        assert percentile([5, 1, 3], 0.5) == 3

    def test_single_element_any_fraction(self):
        for fraction in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert percentile([7], fraction) == 7

    def test_unsorted_extremes(self):
        values = [30, 10, 20]
        assert percentile(values, 0.0) == 10
        assert percentile(values, 1.0) == 30
        assert values == [30, 10, 20]  # input not mutated

    def test_two_elements(self):
        assert percentile([4, 8], 0.0) == 4
        assert percentile([8, 4], 1.0) == 8
        # round() is banker's rounding: index round(0.5) == 0.
        assert percentile([8, 4], 0.5) == 4


class TestPropagationTracker:
    def _hash(self, i):
        return Hash.of_value(["block", i])

    def test_coverage_progression(self):
        tracker = PropagationTracker(node_count=4)
        block = self._hash(1)
        tracker.record_created(block, node_id=0, time_ms=100)
        assert tracker.coverage(block) == 0.25
        tracker.record_delivered(block, 1, 200)
        tracker.record_delivered(block, 2, 300)
        assert tracker.coverage(block) == 0.75
        assert tracker.full_coverage_time(block) is None
        tracker.record_delivered(block, 3, 400)
        assert tracker.full_coverage_time(block) == 400

    def test_first_delivery_wins(self):
        tracker = PropagationTracker(2)
        block = self._hash(2)
        tracker.record_created(block, 0, 100)
        tracker.record_delivered(block, 1, 200)
        tracker.record_delivered(block, 1, 900)  # later sighting ignored
        assert tracker.delivery_latencies(block) == [0, 100]

    def test_latency_list(self):
        tracker = PropagationTracker(3)
        block = self._hash(3)
        tracker.record_created(block, 0, 1000)
        tracker.record_delivered(block, 1, 1500)
        tracker.record_delivered(block, 2, 2500)
        assert sorted(tracker.delivery_latencies(block)) == [0, 500, 1500]
        assert tracker.full_coverage_latencies() == [1500]

    def test_fractions_with_no_blocks(self):
        tracker = PropagationTracker(3)
        assert tracker.mean_coverage() == 1.0
        assert tracker.fully_covered_fraction() == 1.0


class TestPropagationGuards:
    def test_delivery_latencies_unknown_hash(self):
        tracker = PropagationTracker(2)
        unknown = Hash.of_value(["never", "created"])
        with pytest.raises(ValueError, match="unknown block hash"):
            tracker.delivery_latencies(unknown)


class TestSimMetricsDict:
    def test_as_dict_includes_all_tracked_counters(self):
        metrics = SimMetrics(node_count=3)
        metrics.record_session(byte_count=100, message_count=4)
        metrics.record_transfer_duration(250)
        flattened = metrics.as_dict()
        assert flattened["session_messages"] == 4
        assert flattened["transfer_ms_total"] == 250
        assert flattened["session_bytes"] == 100
        assert flattened["sessions_completed"] == 1

    def test_sync_registry_mirrors_counters(self):
        metrics = SimMetrics(node_count=3)
        metrics.contacts_attempted = 7
        metrics.contacts_lost = 2
        metrics.record_session(byte_count=64, message_count=2)
        registry = metrics.sync_registry()
        assert registry.value("sim_contacts_attempted_total") == 7
        assert registry.value("sim_contacts_total", outcome="lost") == 2
        assert registry.value("sim_session_bytes_total") == 64
        assert registry.value("sim_session_messages_total") == 2
        # Re-sync reflects new values, not double counts.
        metrics.record_session(byte_count=36, message_count=1)
        registry = metrics.sync_registry()
        assert registry.value("sim_session_bytes_total") == 100


class TestReconcileStatsGuards:
    def test_unknown_direction_rejected(self):
        from repro.reconcile.stats import ReconcileStats

        stats = ReconcileStats("frontier")
        with pytest.raises(ValueError, match="unknown direction"):
            stats.record("sideways", {"type": "nope"})


class TestEnergyModel:
    def test_transfer_charges_both_sides(self):
        model = EnergyModel(EnergyParameters(
            tx_uj_per_byte=1.0, rx_uj_per_byte=0.5,
        ))
        model.charge_transfer(sender=0, receiver=1, byte_count=100)
        assert model.ledger(0).spent_uj("tx") == 100.0
        assert model.ledger(1).spent_uj("rx") == 50.0

    def test_block_creation_and_verification(self):
        parameters = EnergyParameters(
            hash_uj_per_byte=0.01, sign_uj=80, verify_uj=200,
        )
        model = EnergyModel(parameters)
        model.charge_block_creation(0, block_bytes=500)
        model.charge_block_verification(1, block_bytes=500)
        assert model.ledger(0).spent_uj("sign") == 80
        assert model.ledger(0).spent_uj("hash") == pytest.approx(5.0)
        assert model.ledger(1).spent_uj("verify") == 200

    def test_pow_attempts(self):
        model = EnergyModel(EnergyParameters(pow_attempt_uj=2.0))
        model.charge_pow_attempts(0, 1000)
        assert model.ledger(0).spent_uj("pow") == 2000.0

    def test_total_and_breakdown(self):
        model = EnergyModel()
        model.charge_transfer(0, 1, 1000)
        breakdown = model.breakdown_uj()
        assert model.total_j() == pytest.approx(
            sum(breakdown.values()) / 1e6
        )

    def test_ledger_isolated_per_node(self):
        model = EnergyModel()
        model.charge_pow_attempts(3, 10)
        assert model.ledger(4).spent_uj() == 0.0


class TestRadioBusyState:
    def test_contact_sets_busy_for_transfer_duration(self):
        from repro.sim import Scenario, Simulation

        sim = Simulation(
            Scenario(node_count=3, duration_ms=1_000,
                     append_interval_ms=None,
                     link=LinkModel(bandwidth_bytes_per_ms=1,
                                    setup_latency_ms=100),
                     seed=17)
        )
        sim.gossip.start()
        stats = sim.gossip.contact(0, 1)
        assert stats.total_bytes > 0
        assert sim.gossip.is_busy(0)
        assert sim.gossip.is_busy(1)
        assert not sim.gossip.is_busy(2)
        assert sim.metrics.transfer_ms_total > 0

    def test_busy_contacts_counted(self):
        from repro.sim import Scenario, Simulation

        # A very slow link makes every session occupy nodes for long
        # stretches, so ticks land on busy radios.
        sim = Simulation(
            Scenario(node_count=4, duration_ms=20_000,
                     append_interval_ms=4_000,
                     gossip_interval_ms=500,
                     link=LinkModel(bandwidth_bytes_per_ms=0.05,
                                    setup_latency_ms=500),
                     seed=18)
        ).run()
        assert sim.metrics.contacts_busy > 0
