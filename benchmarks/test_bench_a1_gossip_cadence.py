"""Ablation A1 — gossip cadence.

§IV-G fixes the mechanism ("periodically, a node picks a physical
neighbor at random") but not the period.  This ablation sweeps the
gossip interval and reports convergence latency after the workload
stops, total session bytes, and radio energy — the
freshness-versus-battery trade-off an operator actually tunes.

Expected shape: staleness grows linearly with the interval while bytes
and energy fall sublinearly (each rarer session carries more blocks),
so slow gossip is cheap per byte but stale.
"""

from __future__ import annotations

from repro.sim import Scenario, Simulation

from benchmarks.bench_util import Table


def _run(interval_ms: int, seed: int = 0):
    sim = Simulation(
        Scenario(node_count=6, duration_ms=30_000,
                 gossip_interval_ms=interval_ms,
                 append_interval_ms=5_000, seed=seed)
    ).run()
    # Drain: workload off, gossip on; find when the fleet converges.
    sim.workload.stop()
    converged_at = None
    for t in range(sim.loop.now, sim.loop.now + 120_000, 1_000):
        sim.loop.run_until(t)
        if sim.converged():
            converged_at = t - 30_000
            break
    return (
        converged_at,
        sim.metrics.session_bytes,
        sim.metrics.sessions_completed,
        sim.energy.total_j(),
    )


def test_a1_gossip_cadence(benchmark, results_dir):
    table = Table(
        "A1: gossip interval vs convergence latency and cost",
        ["interval_ms", "drain_to_converged_ms", "session_bytes",
         "sessions", "energy_J"],
    )
    drain = {}
    bytes_spent = {}
    for interval in (500, 1_000, 4_000, 16_000):
        converged_at, session_bytes, sessions, joules = _run(
            interval, seed=interval
        )
        assert converged_at is not None, f"never converged at {interval}"
        drain[interval] = converged_at
        bytes_spent[interval] = session_bytes
        table.add(interval, converged_at, session_bytes, sessions,
                  round(joules, 4))
    table.emit(results_dir, "a1_gossip_cadence")

    assert drain[16_000] > drain[500], "slower gossip must drain slower"
    assert bytes_spent[16_000] < bytes_spent[500], (
        "rarer sessions must spend fewer total bytes"
    )

    benchmark(_run, 2_000, 99)
