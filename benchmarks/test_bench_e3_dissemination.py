"""Experiment E3 — gossip dissemination (Transitivity, §IV-A/G).

"If one user learns of a transaction, then eventually all users do."
One node appends a single block; the fleet gossips on radio-range
topologies with varying size and contact loss; we report time until
every node holds the block and the number of gossip sessions spent.

Expected shape: time to full coverage grows roughly logarithmically
with fleet size on a dense topology (epidemic spreading) and degrades
gracefully — not catastrophically — with 10-30% contact loss.
"""

from __future__ import annotations

from repro.net.links import LinkModel
from repro.sim import Scenario, Simulation

from benchmarks.bench_util import Table
from benchmarks.traces import TraceTopology, synthetic_encounter_trace


def _trace_factory(node_count):
    """Bursty opportunistic contacts instead of an always-on mesh."""
    trace = synthetic_encounter_trace(
        node_count, 240_000, mean_intercontact_ms=10_000,
        mean_contact_ms=4_000, seed=node_count,
    )
    return TraceTopology(node_count, trace)


def _dissemination_time(node_count: int, loss: float, seed: int = 0,
                        topology_factory=None):
    scenario = Scenario(
        node_count=node_count,
        duration_ms=120_000,
        gossip_interval_ms=1_000,
        append_interval_ms=None,  # workload driven manually
        link=LinkModel(loss_rate=loss, seed=seed),
        topology_factory=topology_factory,
        seed=seed,
    )
    sim = Simulation(scenario)
    sim.gossip.start()
    # One block, created by node 0 at t=0 (the creation block of the
    # workload CRDT serves as the payload).
    target = sorted(sim.node(0).frontier())[0]
    sim.metrics.propagation.record_created(target, 0, 0)

    covered_at = None
    step = 1_000
    for t in range(step, 120_000 + step, step):
        sim.loop.run_until(t)
        holders = sum(
            1 for i in range(node_count) if sim.node(i).has_block(target)
        )
        if holders == node_count:
            covered_at = t
            break
    return covered_at, sim.metrics.sessions_completed


def test_e3_dissemination(benchmark, results_dir):
    table = Table(
        "E3: time to full coverage of one block (gossip interval 1 s)",
        ["topology", "nodes", "loss", "covered_ms", "sessions"],
    )
    times = {}
    for node_count in (8, 16, 32):
        for loss in (0.0, 0.3):
            covered, sessions = _dissemination_time(
                node_count, loss, seed=node_count + int(loss * 10)
            )
            times[(node_count, loss)] = covered
            table.add("mesh", node_count, loss,
                      covered if covered else "> 120000", sessions)
    # Encounter-trace connectivity: contacts are bursty and rare, so
    # coverage takes tens of seconds instead of a few — but still lands.
    trace_times = {}
    for node_count in (8, 16):
        covered, sessions = _dissemination_time(
            node_count, 0.0, seed=node_count,
            topology_factory=_trace_factory,
        )
        trace_times[node_count] = covered
        table.add("trace", node_count, 0.0,
                  covered if covered else "> 120000", sessions)
    table.emit(results_dir, "e3_dissemination")

    for node_count, covered in trace_times.items():
        assert covered is not None, f"trace dissemination stalled "\
            f"({node_count} nodes)"
        assert covered >= times[(node_count, 0.0)], (
            "opportunistic contacts cannot beat an always-on mesh"
        )

    for key, covered in times.items():
        assert covered is not None, f"dissemination stalled for {key}"
    # Loss degrades latency but not eventual delivery.
    assert times[(16, 0.3)] >= times[(16, 0.0)]
    # Epidemic spreading: 4x the fleet costs far less than 4x the time.
    assert times[(32, 0.0)] < 4 * max(1, times[(8, 0.0)])

    benchmark(_dissemination_time, 8, 0.0, 3)
