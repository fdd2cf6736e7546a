"""Ablation A15 — a deep both-diverged heal in a bounded number of round
trips.

Two replicas share a 300-block history; then each writes *d* blocks on
its own, and one in-process session heals them.  When both sides wrote,
the responder cannot tell what the initiator holds below its unknown
tips.  Algorithm 1 walks Fig. 3 one level per round trip; the frontier
protocol walks the first three, and the request for the third carries
a skip sample of the initiator's history (every block at heights H,
H−1, H−2, H−4, … and 0).  The reply names the rest of the gap by hash,
down to the sample blocks the responder holds, and one more fetch
brings every body the initiator lacks.

Measured here, per *d*: rounds and total session bytes (pull and push)
for the frontier protocol, beside the one-round-trip protocols it
competes with — ``height_skip``, ``bloom``, ``sketch``.

Expected shape: frontier rounds are ``min(d, 4)``; at d ≥ 50 its bytes
are no more than Algorithm 1's level walk paid (``LEVEL_WALK``, the
same setup measured before the skip sample), because the hashes the
list names replace one request per level.
"""

from __future__ import annotations

from repro.reconcile import FrontierProtocol

from benchmarks.bench_util import Table, make_fleet
from benchmarks.protocols import (
    BloomProtocol,
    HeightSkipProtocol,
    SketchProtocol,
)

SHARED_HISTORY = 300
DEPTHS = (1, 2, 3, 5, 50, 200)

#: The level walk on this setup (one level per round trip): d ->
#: (rounds, bytes), measured with the same pairs before the skip sample,
#: on keyed blocks; the bytes are restated for positional blocks, 72
#: bytes smaller per body, less 144 per level (one body each way).
LEVEL_WALK = {
    1: (1, 465), 2: (2, 847), 3: (3, 1_229), 5: (5, 1_993),
    50: (50, 19_183), 200: (200, 76_765),
}

PROTOCOLS = (
    ("frontier", FrontierProtocol),
    ("height_skip", HeightSkipProtocol),
    ("bloom", BloomProtocol),
    ("sketch", SketchProtocol),
)


def _pair(depth: int, seed: int = 0):
    """A shared history, then *depth* blocks written on each side."""
    _, genesis, nodes, clock = make_fleet(2, seed=seed)
    left, right = nodes
    for _ in range(SHARED_HISTORY):
        block = left.append_transactions([])
        right.receive_block(block)
    for _ in range(depth):
        left.append_transactions([])
        right.append_transactions([])
    return left, right


def test_a15_diverged_rounds(benchmark, results_dir):
    table = Table(
        f"A15: both-diverged heal, rounds / bytes (shared history = "
        f"{SHARED_HISTORY} blocks, d written on each side)",
        ["d", "protocol", "rounds", "bytes", "duplicates", "fallbacks",
         "level_walk_rounds", "level_walk_bytes"],
    )
    measured = {}
    for depth in DEPTHS:
        for name, protocol_cls in PROTOCOLS:
            left, right = _pair(depth)
            protocol = protocol_cls()
            stats = protocol.run(left, right)
            assert stats.converged
            assert left.state_digest() == right.state_digest()
            measured[(depth, name)] = (stats.rounds, stats.total_bytes)
            walk = LEVEL_WALK[depth] if name == "frontier" else ("-", "-")
            table.add(depth, name, stats.rounds, stats.total_bytes,
                      stats.duplicate_blocks,
                      getattr(protocol, "fallbacks", 0), *walk)
    table.emit(results_dir, "a15_diverged_rounds")

    for depth in DEPTHS:
        rounds, size = measured[(depth, "frontier")]
        assert rounds == min(depth, 4), (
            "three levels, the third naming the rest of the gap, then "
            "one fetch"
        )
        if depth <= 2:
            assert (rounds, size) == LEVEL_WALK[depth], (
                "a gap two levels deep never sends the sample"
            )
        if depth >= 50:
            assert size <= LEVEL_WALK[depth][1], (
                "the listed hashes replace one request per level"
            )

    def kernel():
        left, right = _pair(50, seed=7)
        FrontierProtocol().run(left, right)

    benchmark(kernel)
