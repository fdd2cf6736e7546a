"""Session execution model tests.

Two acceptance properties of the message-level model:

* **Equivalence** — with an ideal link (zero message latency) and no
  interruptions, ``session_model="message"`` produces byte-for-byte
  identical final DAGs, identical ``SimMetrics`` totals, and a
  byte-identical same-seed trace as ``"atomic"``, for all four
  protocols.
* **Safety under churn** — when partitions tear sessions mid-transfer,
  no exception escapes, every replica's DAG stays parent-closed, and
  the interruptions show up consistently in metrics, registry, trace,
  and analyzer.
"""

import pytest

from repro.net.links import LinkModel
from repro.net.partitions import PartitionSchedule, PartitionedTopology
from repro.net.topology import FullMeshTopology
from repro.obs.analyze import analyze_trace
from repro.reconcile import FrontierProtocol
from repro.sim import Scenario, Simulation

from benchmarks.protocols import PROTOCOLS

# The shipped protocol and every study protocol run these tests.
ALL_PROTOCOLS = list(PROTOCOLS.values())


def _ideal_link() -> LinkModel:
    """Effectively infinite bandwidth, no setup cost: every message's
    latency is 0 ms, so the two session models must coincide exactly."""
    return LinkModel(bandwidth_bytes_per_ms=10**9, setup_latency_ms=0)


def _run(protocol_cls, session_model, trace_path, seed=7):
    scenario = Scenario(
        node_count=5, duration_ms=15_000, append_interval_ms=3_000,
        seed=seed, link=_ideal_link(),
        protocol_factory=lambda push: protocol_cls(push=push),
        session_model=session_model, trace_path=trace_path,
    )
    simulation = Simulation(scenario).run()
    simulation.run_quiescence(6_000)
    simulation.close()
    return simulation


def _digests(simulation):
    return sorted(
        node.state_digest().hex()
        for node in simulation.fleet.nodes.values()
    )


def _assert_parent_closed(node):
    for block in node.dag.blocks():
        for parent in block.parents:
            assert node.has_block(parent)


@pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS)
class TestModelEquivalence:
    """Acceptance: zero latency + no interruptions => identical runs."""

    def test_equivalent_dags_metrics_and_trace(self, tmp_path,
                                               protocol_cls):
        atomic_trace = tmp_path / "atomic.jsonl"
        message_trace = tmp_path / "message.jsonl"
        atomic = _run(protocol_cls, "atomic", atomic_trace)
        message = _run(protocol_cls, "message", message_trace)
        # Byte-for-byte identical final DAG state on every node.
        assert _digests(atomic) == _digests(message)
        # Identical ReconcileStats roll-ups: bytes, messages, sessions,
        # durations, coverage — and zero interruptions in both.
        assert atomic.metrics.as_dict() == message.metrics.as_dict()
        assert message.metrics.sessions_interrupted == 0
        # The same-seed traces are byte-identical files.
        assert atomic_trace.read_bytes() == message_trace.read_bytes()

    def test_equivalence_holds_across_seeds(self, tmp_path, protocol_cls):
        for seed in (0, 23):
            atomic = _run(protocol_cls, "atomic",
                          tmp_path / f"a{seed}.jsonl", seed=seed)
            message = _run(protocol_cls, "message",
                           tmp_path / f"m{seed}.jsonl", seed=seed)
            assert _digests(atomic) == _digests(message)
            assert (atomic.metrics.as_dict()
                    == message.metrics.as_dict())


def _churn_topology(node_count):
    """Everyone loses all links for half of every 1.6 s cycle — short
    contact windows that tear long transfers."""
    intervals = []
    start = 0
    while start < 60_000:
        intervals.append((start + 800, start + 1_600, []))
        start += 1_600
    return PartitionedTopology(
        FullMeshTopology(node_count), PartitionSchedule(intervals)
    )


def _slow_link() -> LinkModel:
    """2 B/ms + 40 ms setup: a block transfer spans several hundred ms,
    far longer than the contact windows above."""
    return LinkModel(bandwidth_bytes_per_ms=2, setup_latency_ms=40, seed=1)


class TestInterruption:
    """Acceptance: mid-transfer interruption never raises and never
    leaves a DAG with missing parents; the interruptions are accounted
    in metrics, registry, trace, and analyzer."""

    @pytest.fixture(scope="class")
    def churn_run(self, tmp_path_factory):
        trace = tmp_path_factory.mktemp("churn") / "run.jsonl"
        scenario = Scenario(
            node_count=6, duration_ms=40_000, append_interval_ms=2_000,
            seed=3, topology_factory=_churn_topology, link=_slow_link(),
            session_model="message", trace_path=trace,
        )
        simulation = Simulation(scenario).run()
        simulation.run_quiescence(5_000)
        simulation.close()
        return simulation, trace

    def test_sessions_do_get_interrupted(self, churn_run):
        simulation, _ = churn_run
        assert simulation.metrics.sessions_interrupted > 0
        assert simulation.metrics.partial_bytes > 0
        assert simulation.metrics.partial_messages > 0

    def test_dags_stay_parent_closed(self, churn_run):
        simulation, _ = churn_run
        for node in simulation.fleet.nodes.values():
            _assert_parent_closed(node)
            node.state_digest()  # computable == structurally sound

    def test_registry_counters(self, churn_run):
        simulation, _ = churn_run
        registry = simulation.registry()
        metrics = simulation.metrics
        assert registry.value("sim_sessions_interrupted_total") == (
            metrics.sessions_interrupted
        )
        assert registry.value("sim_session_partial_bytes_total") == (
            metrics.partial_bytes
        )
        interrupted_by_protocol = registry.value(
            "reconcile_sessions_interrupted_total", protocol="frontier"
        )
        assert interrupted_by_protocol == metrics.sessions_interrupted

    def test_trace_and_analyzer_parity(self, churn_run):
        simulation, trace = churn_run
        metrics = simulation.metrics
        analysis = analyze_trace(trace)
        assert analysis.sessions_interrupted() == (
            metrics.sessions_interrupted
        )
        assert analysis.partial_bytes_total() == metrics.partial_bytes
        assert analysis.sessions_completed() == metrics.sessions_completed
        assert analysis.total_bytes() == metrics.session_bytes
        assert analysis.transfer_ms_total() == metrics.transfer_ms_total
        summary = analysis.as_dict()
        assert summary["totals"]["interrupted"] == (
            metrics.sessions_interrupted
        )
        assert "interrupted:" in analysis.render()

    def test_active_sessions_consistent(self, churn_run):
        simulation, _ = churn_run
        # Any session still pinning endpoints when the clock stopped is
        # genuinely in flight (never a settled or aborted leftover), and
        # pins exactly its own two endpoints.
        for node_id, state in simulation.gossip._active.items():
            assert not state.session.done
            assert node_id in (state.initiator_id, state.responder_id)

    def test_report_mentions_interruptions(self, churn_run):
        from repro.report import simulation_report

        simulation, _ = churn_run
        assert "interrupted:" in simulation_report(simulation)


class TestScenarioKnob:
    def test_invalid_session_model_rejected(self):
        with pytest.raises(ValueError):
            Scenario(session_model="bogus")

    def test_gossip_scheduler_rejects_unknown_model(self):
        from repro.sim.gossip import GossipScheduler

        with pytest.raises(ValueError):
            GossipScheduler(
                loop=None, topology=None, nodes={}, metrics=None,
                session_model="bogus",
            )

    def test_cli_flag_round_trips(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["simulate", "--session-model", "message"]
        )
        assert args.session_model == "message"

    def test_protocol_without_session_falls_back_to_atomic(self):
        """A protocol lacking a session() generator (e.g. a custom
        adapter with its own ``run``) still works under the message
        model."""
        class LegacyProtocol:
            name = "legacy"

            def __init__(self, push=True):
                pass

            def run(self, initiator, responder):
                return FrontierProtocol().run(initiator, responder)

        scenario = Scenario(
            node_count=3, duration_ms=8_000, append_interval_ms=3_000,
            seed=1, protocol_factory=lambda push: LegacyProtocol(push),
            session_model="message", link=_ideal_link(),
        )
        simulation = Simulation(scenario).run()
        simulation.run_quiescence(4_000)
        assert simulation.metrics.sessions_completed > 0
        assert simulation.converged()
