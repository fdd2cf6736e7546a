"""Experiment E2 — energy per committed transaction vs proof-of-work (§I).

"Most current blockchain designs are very energy-intensive, requiring
vast amounts of computation solving cryptopuzzles."  Both systems run
the same workload (one committed transaction per block); the energy
model charges Vegvisir for signatures, hashes, and radio bytes, and the
Nakamoto baseline additionally for every mining attempt, sweeping the
difficulty.

Expected shape: Vegvisir's cost per transaction is flat; Nakamoto's
grows as 2^difficulty and crosses Vegvisir's before difficulty 10 even
with our IoT-class per-hash energy — at Bitcoin-scale difficulties the
ratio is astronomically larger (reported as extrapolated rows).
"""

from __future__ import annotations

from benchmarks.baselines.nakamoto import NakamotoNetwork
from repro.sim import Scenario, Simulation
from repro.sim.energy import EnergyParameters

from benchmarks.bench_util import Table


def _vegvisir_energy_per_tx(seed: int = 0) -> tuple[float, int]:
    sim = Simulation(
        Scenario(node_count=5, duration_ms=30_000,
                 append_interval_ms=3_000, seed=seed)
    ).run()
    sim.run_quiescence(10_000)
    committed = sim.metrics.blocks_created
    return sim.energy.total_j() * 1e6, committed  # µJ


def _nakamoto_energy_per_tx(difficulty_bits: int, seed: int = 0):
    parameters = EnergyParameters()
    net = NakamotoNetwork(5, difficulty_bits=difficulty_bits,
                          block_probability=0.4, seed=seed)
    for _ in range(25):
        net.round()
    committed = len(net.committed_everywhere())
    pow_uj = net.total_attempts() * parameters.pow_attempt_uj
    # Charge signing/verify/radio equivalently to Vegvisir's per-block
    # costs so the comparison isolates the proof-of-work term.
    blocks = sum(len(c.all_blocks()) - 1 for c in net.chains) / len(net.chains)
    base_uj = blocks * (parameters.sign_uj + 4 * parameters.verify_uj)
    return pow_uj + base_uj, committed


def test_e2_energy(benchmark, results_dir):
    table = Table(
        "E2: energy per committed transaction (µJ)",
        ["system", "difficulty_bits", "total_uJ", "committed",
         "uJ_per_tx"],
    )
    veg_uj, veg_committed = _vegvisir_energy_per_tx(seed=1)
    veg_per_tx = veg_uj / max(1, veg_committed)
    table.add("vegvisir", "-", round(veg_uj), veg_committed,
              round(veg_per_tx, 1))

    parameters = EnergyParameters()
    nakamoto_per_tx = {}
    for bits in (4, 8, 12, 16):
        total_uj, committed = _nakamoto_energy_per_tx(bits, seed=bits)
        per_tx = total_uj / max(1, committed)
        nakamoto_per_tx[bits] = per_tx
        table.add("nakamoto", bits, round(total_uj), committed,
                  round(per_tx, 1))
    # Extrapolated rows: expected attempts = 2^bits exactly.
    for bits in (32, 70):
        per_tx = (2.0 ** bits) * parameters.pow_attempt_uj
        table.add("nakamoto(extrap)", bits, "-", "-",
                  f"{per_tx:.3e}")
    table.emit(results_dir, "e2_energy")

    # Shape: PoW cost doubles per bit and dwarfs Vegvisir's by 12 bits.
    assert nakamoto_per_tx[16] > 4 * nakamoto_per_tx[8]
    assert nakamoto_per_tx[16] > veg_per_tx, (
        "even toy difficulty 16 must out-burn sign+gossip"
    )

    benchmark(_nakamoto_energy_per_tx, 8, 77)
