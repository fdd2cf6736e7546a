"""Ablation A3 — neighbor selection strategy.

§IV-G specifies "picks a physical neighbor at random"; classical
anti-entropy results (Demers et al. 1987, which the paper cites for
gossip) show the choice matters at the margins.  This ablation compares
uniform random, round-robin, and least-recently-synced selection on a
sparse topology where the choice is consequential, reporting time to
convergence after the workload stops and total session bytes.

Expected shape: least-recent beats random modestly on sparse graphs
(it avoids re-syncing fresh pairs); round-robin sits between; all three
converge — the paper's uniform-random choice is safe, just not optimal.
"""

from __future__ import annotations

from repro.net.topology import StaticTopology
from repro.sim import Scenario, Simulation
from repro.sim.gossip import PEER_SELECTORS

from benchmarks.bench_util import Table


def _ring_of_rings(node_count):
    # A sparse ring: every node has exactly two neighbors, so wasting a
    # tick on a freshly-synced peer is maximally costly.
    return StaticTopology.ring(node_count)


def _run(selector: str, seed: int):
    sim = Simulation(
        Scenario(node_count=10, duration_ms=25_000,
                 gossip_interval_ms=1_000, append_interval_ms=5_000,
                 topology_factory=_ring_of_rings,
                 peer_selector=selector, seed=seed)
    ).run()
    sim.workload.stop()
    converged_at = None
    for t in range(sim.loop.now, sim.loop.now + 180_000, 1_000):
        sim.loop.run_until(t)
        if sim.converged():
            converged_at = t - 25_000
            break
    return converged_at, sim.metrics.session_bytes


def test_a3_peer_selection(benchmark, results_dir):
    table = Table(
        "A3: peer selection strategy on a ring of 10 nodes",
        ["selector", "drain_to_converged_ms (mean of 3 seeds)",
         "session_bytes"],
    )
    means = {}
    for selector in PEER_SELECTORS:
        drains, all_bytes = [], []
        for seed in (1, 2, 3):
            drained, session_bytes = _run(selector, seed)
            assert drained is not None, f"{selector} never converged"
            drains.append(drained)
            all_bytes.append(session_bytes)
        means[selector] = sum(drains) / len(drains)
        table.add(selector, round(means[selector]),
                  round(sum(all_bytes) / len(all_bytes)))
    table.emit(results_dir, "a3_peer_selection")

    # All converge; deterministic strategies shouldn't be wildly worse
    # than random on this topology.
    for selector, mean_drain in means.items():
        assert mean_drain < 120_000, selector

    benchmark(_run, "random", 9)
