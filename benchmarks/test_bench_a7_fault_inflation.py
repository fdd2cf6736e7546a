"""Ablation A7 — convergence and waste inflation vs. message drop rate.

§III promises progress over "unreliable message channels"; PR 3's fault
injector makes the unreliability concrete.  This ablation sweeps the
per-message drop probability and reports, for the frontier and Bloom
protocols, how long the fleet takes to converge once the workload stops
and how many bytes are wasted on sessions the drops tore mid-transfer.

Expected shape: at drop 0 the message model is the PR 2 baseline (zero
wasted bytes, fastest drain).  As the drop rate grows, every lost frame
kills its whole session (no retransmit below the gossip layer), so
wasted bytes and drain time inflate super-linearly — and Bloom's
fewer-message sessions give drops a smaller cross-section per session
than frontier's chattier rounds.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan, LinkFaults
from repro.reconcile import FrontierProtocol
from repro.sim import Scenario, Simulation

from benchmarks.bench_util import Table
from benchmarks.protocols import BloomProtocol

DURATION_MS = 25_000
DROP_RATES = (0.0, 0.02, 0.05, 0.10)


def _protocols():
    return [
        ("frontier", lambda push: FrontierProtocol(push=push)),
        ("bloom", lambda push: BloomProtocol(push=push)),
    ]


def _run(drop: float, protocol_factory, seed: int = 0):
    faults = None
    if drop:
        faults = FaultPlan(
            seed=seed, default_link=LinkFaults(drop=drop),
        )
    sim = Simulation(Scenario(
        node_count=5, duration_ms=DURATION_MS, append_interval_ms=3_000,
        seed=seed, protocol_factory=protocol_factory,
        session_model="message", faults=faults,
    )).run()
    # Drain with the workload stopped (faults stay on — the question is
    # convergence *despite* the lossy channel, not after it heals).
    converged_ms = None
    drained = 0
    while drained < 240_000:
        if sim.converged():
            converged_ms = drained
            break
        sim.run_quiescence(1_000)
        drained += 1_000
    metrics = sim.metrics
    dropped = (
        sim.fault_injector.counters.dropped
        if sim.fault_injector is not None else 0
    )
    sim.close()
    return {
        "converge_ms": converged_ms,
        "useful_bytes": metrics.session_bytes,
        "wasted_bytes": metrics.partial_bytes,
        "interrupted": metrics.sessions_interrupted,
        "dropped": dropped,
    }


def test_a7_fault_inflation(benchmark, results_dir):
    table = Table(
        "A7: message drop rate vs convergence and wasted bytes",
        ["protocol", "drop", "converge_ms", "useful_bytes",
         "wasted_bytes", "waste_pct", "interrupted", "dropped"],
    )
    for name, factory in _protocols():
        baseline_waste = None
        for drop in DROP_RATES:
            result = _run(drop, factory, seed=31)
            assert result["converge_ms"] is not None, (
                f"{name} never converged at drop={drop}"
            )
            total = result["useful_bytes"] + result["wasted_bytes"]
            waste_pct = round(100 * result["wasted_bytes"] / total, 2)
            table.add(
                name, drop, result["converge_ms"],
                result["useful_bytes"], result["wasted_bytes"],
                waste_pct, result["interrupted"], result["dropped"],
            )
            if drop == 0.0:
                baseline_waste = result["wasted_bytes"]
                # Drop 0 is the fault-free baseline: nothing torn by
                # faults, nothing dropped.
                assert result["dropped"] == 0
            else:
                assert result["dropped"] > 0
        # Waste inflates as the channel degrades (monotone-ish: the
        # highest drop rate wastes strictly more than the baseline).
        last = table.rows[-1]
        assert last[4] > (baseline_waste or 0)
    table.emit(results_dir, "a7_fault_inflation")
    benchmark(_run, 0.05, _protocols()[0][1], 99)
