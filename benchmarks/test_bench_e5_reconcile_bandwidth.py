"""Experiment E5 — reconciliation bandwidth across protocols (§VI).

The paper's closing remark: Algorithm 1 "still incurs a significant
communication overhead.  More efficient DAG reconciliation algorithms
could make blocks propagate faster... while using less bandwidth."
This experiment measures all four implemented protocols — Algorithm 1,
the full-exchange strawman, the Bloom-digest improvement, and the
height-digest improvement — on three regimes: identical replicas, small
divergence, large divergence.

Expected shape: full exchange is worst everywhere except trivially
small chains; frontier wins at small divergence; Bloom pays the fewest
``digest_bytes`` (a session's bytes less the bodies it moves) at large
divergence on long chains (its filter cost is sublinear in chain
length), though a false positive in its filter costs it a second round
and duplicate bodies; height-skip is competitive at one round trip but
resends cross-branch blocks.
"""

from __future__ import annotations

from repro.reconcile import FrontierProtocol

from benchmarks.bench_util import Table, make_fleet
from benchmarks.protocols import (
    BloomProtocol,
    FullExchangeProtocol,
    HeightSkipProtocol,
)

CHAIN = 96


def _pair_with_divergence(divergence_each: int, seed: int = 0):
    _, genesis, nodes, clock = make_fleet(2, seed=seed)
    left, right = nodes
    for _ in range(CHAIN):
        block = left.append_transactions([])
        right.receive_block(block)
    for _ in range(divergence_each):
        left.append_transactions([])
        right.append_transactions([])
    return left, right


def _protocols():
    return [
        ("frontier", lambda: FrontierProtocol()),
        ("full_exchange", lambda: FullExchangeProtocol()),
        ("bloom", lambda: BloomProtocol()),
        ("height_skip", lambda: HeightSkipProtocol()),
    ]


def test_e5_reconcile_bandwidth(benchmark, results_dir):
    table = Table(
        f"E5: session bytes by protocol (shared chain = {CHAIN} blocks)",
        ["divergence_each", "protocol", "rounds", "bytes", "messages",
         "converged", "digest_bytes"],
    )
    by_protocol: dict[tuple, int] = {}
    digest_bytes: dict[tuple, int] = {}
    for divergence in (0, 4, 32):
        for name, factory in _protocols():
            left, right = _pair_with_divergence(divergence,
                                                seed=divergence + 1)
            sizes = [
                block.wire_size
                for ours, theirs in ((left, right), (right, left))
                for block in ours.dag.blocks() if block.hash not in theirs.dag
            ]
            stats = factory().run(left, right)
            assert stats.converged
            assert left.state_digest() == right.state_digest()
            by_protocol[(divergence, name)] = stats.total_bytes
            # What is not a body: each body of the difference once, and
            # each duplicate at the smallest body size (so never more).
            digest_bytes[(divergence, name)] = stats.total_bytes - (
                sum(sizes) + stats.duplicate_blocks * min(sizes, default=0)
            )
            table.add(divergence, name, stats.rounds, stats.total_bytes,
                      stats.total_messages, stats.converged,
                      digest_bytes[(divergence, name)])
    table.emit(results_dir, "e5_reconcile_bandwidth")

    # Identical replicas: everything must beat full exchange badly, and
    # the frontier protocol — hashes both ways, no body — beats them all.
    for name in ("frontier", "bloom", "height_skip"):
        assert by_protocol[(0, name)] < by_protocol[(0, "full_exchange")] / 4
    assert by_protocol[(0, "frontier")] == min(
        size for (divergence, _), size in by_protocol.items()
        if divergence == 0
    )

    # Small divergence: frontier beats full exchange.
    assert (by_protocol[(4, "frontier")]
            < by_protocol[(4, "full_exchange")])

    # Large divergence: both protocols ship the same bodies, so what
    # separates them is the rest.  Bloom's filter costs fewer bytes than
    # the frontier protocol's hash lists, even on a seed whose filter
    # holds a false positive (a second round, and duplicate bodies).
    assert (digest_bytes[(32, "bloom")]
            < digest_bytes[(32, "frontier")])

    def kernel():
        left, right = _pair_with_divergence(4, seed=42)
        BloomProtocol().run(left, right)

    benchmark(kernel)
