"""Ablation A6 — interrupted synchronization under churn.

The atomic session model cannot ask this question: what happens when a
contact window is *shorter* than a reconciliation session?  Under the
message-level model (``session_model="message"``), short-range radio
contacts truncated by mobility tear sessions mid-transfer, wasting the
bytes already sent.  This ablation sweeps the contact window length of
a periodic churn cycle and reports, for the frontier and Bloom
protocols, how many sessions complete versus get interrupted, how many
bytes are wasted on torn sessions, and how block coverage suffers.

Expected shape: below the typical session airtime, almost every session
tears — wasted bytes dominate and coverage craters; as the window grows
past the transfer time, interruptions vanish and the wasted-byte share
falls toward zero.  Bloom's fewer-round sessions should survive short
windows better than frontier's iterative deepening once divergence is
deep, at the price of its up-front filter bytes.
"""

from __future__ import annotations

from repro.net.links import LinkModel
from repro.net.partitions import PartitionSchedule, PartitionedTopology
from repro.net.topology import FullMeshTopology
from repro.reconcile import FrontierProtocol
from repro.sim import Scenario, Simulation

from benchmarks.bench_util import Table
from benchmarks.protocols import BloomProtocol

CYCLE_MS = 2_000
DURATION_MS = 30_000


def _churn_topology(window_ms: int):
    """Connected for *window_ms* out of every CYCLE_MS, isolated for
    the rest — a fleet of devices streaming past each other."""
    def factory(node_count: int):
        intervals = []
        start = 0
        while start < DURATION_MS * 3:
            intervals.append((start + window_ms, start + CYCLE_MS, []))
            start += CYCLE_MS
        return PartitionedTopology(
            FullMeshTopology(node_count), PartitionSchedule(intervals)
        )
    return factory


def _protocols():
    return [
        ("frontier", lambda push: FrontierProtocol(push=push)),
        ("bloom", lambda push: BloomProtocol(push=push)),
    ]


def _run(window_ms: int, protocol_factory, seed: int = 0):
    sim = Simulation(Scenario(
        node_count=5, duration_ms=DURATION_MS, append_interval_ms=2_000,
        seed=seed, topology_factory=_churn_topology(window_ms),
        link=LinkModel(bandwidth_bytes_per_ms=4, setup_latency_ms=20,
                       seed=seed),
        protocol_factory=protocol_factory, session_model="message",
    )).run()
    sim.run_quiescence(4_000)
    metrics = sim.metrics
    latencies = metrics.propagation.full_coverage_latencies()
    mean_latency = (
        round(sum(latencies) / len(latencies)) if latencies else None
    )
    return {
        "completed": metrics.sessions_completed,
        "interrupted": metrics.sessions_interrupted,
        "useful_bytes": metrics.session_bytes,
        "wasted_bytes": metrics.partial_bytes,
        "coverage": round(metrics.propagation.mean_coverage(), 3),
        "mean_full_coverage_ms": mean_latency,
    }


def test_a6_interrupted_sync(benchmark, results_dir):
    table = Table(
        "A6: contact window vs interrupted sessions and wasted bytes "
        f"(cycle = {CYCLE_MS} ms, message-level sessions)",
        ["window_ms", "protocol", "completed", "interrupted",
         "useful_bytes", "wasted_bytes", "coverage",
         "mean_full_coverage_ms"],
    )
    wasted = {}
    coverage = {}
    interrupted = {}
    for window_ms in (250, 500, 1_000, 1_900):
        for name, factory in _protocols():
            row = _run(window_ms, factory, seed=window_ms)
            table.add(window_ms, name, row["completed"],
                      row["interrupted"], row["useful_bytes"],
                      row["wasted_bytes"], row["coverage"],
                      row["mean_full_coverage_ms"])
            wasted[(window_ms, name)] = row["wasted_bytes"] / (
                row["wasted_bytes"] + row["useful_bytes"]
            )
            coverage[(window_ms, name)] = row["coverage"]
            interrupted[(window_ms, name)] = row["interrupted"]
    table.emit(results_dir, "a6_interrupted_sync")

    for name, _ in _protocols():
        assert interrupted[(250, name)] > 0, (
            f"{name}: short windows must tear sessions"
        )
        assert coverage[(1_900, name)] >= coverage[(250, name)], (
            f"{name}: longer contact windows must not hurt coverage"
        )
        # A share, not a count: the have-pruned frontier protocol moves
        # so little in a 250 ms window that its torn sessions lose fewer
        # bytes than the few torn in a 1.9 s one.
        assert wasted[(250, name)] > 0.5 > wasted[(1_900, name)], (
            f"{name}: short windows must waste the larger share of bytes"
        )

    benchmark(_run, 500, _protocols()[0][1], 99)
