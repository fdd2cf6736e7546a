"""Experiment F3 — frontier-level reconciliation (Fig. 3, Algorithm 1).

Fig. 3 defines the level-N frontier set; Algorithm 1 deepens N until the
gap bridges.  This experiment reconciles two replicas whose difference
is *d* blocks deep and reports rounds and pull-direction bytes versus
*d*, for the frontier protocol against the full-DAG-exchange strawman,
on a shared history of 64 blocks, in two series:

* **behind** — the initiator lacks the responder's last *d* blocks.  It
  says what it holds, the responder knows all of it, and the reply is
  the exact difference: one round at any depth.
* **diverged** — each side is *d* blocks past the shared history.  The
  responder cannot tell what the initiator holds below its unknown
  tips, so the initiator walks down from the responder's tip one level
  per round — the shape Fig. 3 draws — for three levels; the request
  for the third carries a skip sample of its history, the reply names
  the rest of the gap by hash, and one more round fetches it.

Expected shape: diverged rounds are ``min(d, 4)``, behind rounds stay at
one, and the pulled bytes of both stay proportional to d; full exchange
is flat in rounds but pays the entire chain in bytes — the crossover
the paper's §VI efficiency remark is about.
"""

from __future__ import annotations

from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.stats import RESPONDER_TO_INITIATOR

from benchmarks.bench_util import Table, make_fleet
from benchmarks.protocols import FullExchangeProtocol

SHARED_HISTORY = 64


def _pair(initiator_past: int, responder_past: int, seed: int = 0):
    """Two replicas, each that many blocks past a shared history."""
    _, genesis, nodes, clock = make_fleet(2, seed=seed)
    initiator, responder = nodes
    for _ in range(SHARED_HISTORY):
        block = responder.append_transactions([])
        initiator.receive_block(block)
    for _ in range(initiator_past):
        initiator.append_transactions([])
    for _ in range(responder_past):
        responder.append_transactions([])
    return initiator, responder


def _pull(protocol_cls, initiator_past: int, responder_past: int):
    initiator, responder = _pair(
        initiator_past, responder_past, seed=responder_past
    )
    stats = protocol_cls(push=False).run(initiator, responder)
    assert stats.converged
    return stats.rounds, stats.bytes[RESPONDER_TO_INITIATOR]


def test_f3_frontier_levels(benchmark, results_dir):
    table = Table(
        f"F3: pull cost vs divergence depth (shared history = "
        f"{SHARED_HISTORY} blocks)",
        ["divergence", "behind_rounds", "behind_pull_bytes",
         "diverged_rounds", "diverged_pull_bytes",
         "full_rounds", "full_pull_bytes"],
    )
    behind, diverged, full = {}, {}, {}
    for divergence in (1, 2, 4, 8, 16, 32):
        behind[divergence] = _pull(FrontierProtocol, 0, divergence)
        diverged[divergence] = _pull(
            FrontierProtocol, divergence, divergence
        )
        full[divergence] = _pull(FullExchangeProtocol, 0, divergence)
        table.add(divergence, *behind[divergence], *diverged[divergence],
                  *full[divergence])
    table.emit(results_dir, "f3_frontier_levels")

    # Shape assertions: one level per round for the first three levels
    # where both sides diverged, then one fetch of the rest; one round
    # where one is simply behind; frontier bytes track the divergence,
    # full exchange tracks chain length.
    for divergence in diverged:
        assert diverged[divergence][0] == min(divergence, 4), (
            "three levels of Fig. 3, one per round trip, the third "
            "naming the rest of the gap: then one fetch"
        )
        assert behind[divergence][0] == 1, (
            "a replica that is simply behind catches up in one round"
        )
    for series in (behind, diverged):
        assert series[1][1] < full[1][1] / 5, (
            "small divergence must be far cheaper with Algorithm 1"
        )
        assert series[32][1] > series[1][1], (
            "frontier cost grows with divergence"
        )
    assert full[32][1] < full[1][1] * 1.5, (
        "full exchange is flat in divergence (pays chain length)"
    )

    def kernel():
        initiator, responder = _pair(8, 8, seed=99)
        FrontierProtocol(push=False).run(initiator, responder)

    benchmark(kernel)
