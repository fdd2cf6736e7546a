"""Ablation A14 — near-optimal reconciliation: IBLT sketches.

The §VI direction ("more efficient DAG reconciliation") taken to its
asymptotic end.  The Bloom protocol's filter still scales with the
*whole* DAG and its false positives cost repair rounds; the IBLT sketch
protocol's traffic scales only with the symmetric difference d, and one
sketch round trip recovers the difference exactly or fails loudly into
the frontier fallback.

Measured here:

* **flatness** — grow the shared chain 10× at fixed divergence: sketch
  bytes must stay flat (within 10 %) while Bloom's filter bytes grow;
* **rounds** — on ideal links the sketch session is one round trip;
* **fallback** — an undersized, non-growing sketch must degrade to the
  frontier protocol and still converge, under the A7-style fault matrix
  too (chaos invariants with the sketch protocol in every session).
"""

from __future__ import annotations

from repro.reconcile import FrontierProtocol

from benchmarks.bench_util import Table, make_fleet
from benchmarks.protocols import BloomProtocol, SketchProtocol

DIVERGENCE_EACH = 8
CHAIN_SIZES = (20, 200)  # 10x growth of the shared prefix


def _pair(chain: int, divergence_each: int = DIVERGENCE_EACH,
          seed: int = 0):
    _, genesis, nodes, clock = make_fleet(2, seed=seed)
    left, right = nodes
    for _ in range(chain):
        block = left.append_transactions([])
        right.receive_block(block)
    for _ in range(divergence_each):
        left.append_transactions([])
        right.append_transactions([])
    return left, right


def test_a14_sketch_bytes_flat_in_dag_size(benchmark, results_dir):
    table = Table(
        f"A14: bytes vs shared-chain size (divergence {DIVERGENCE_EACH}"
        "+{0} each side)".format(DIVERGENCE_EACH),
        ["chain", "protocol", "rounds", "bytes", "fallbacks", "converged"],
    )
    bytes_by = {}
    for chain in CHAIN_SIZES:
        for name, factory in (
            ("sketch", lambda: SketchProtocol()),
            ("bloom", lambda: BloomProtocol()),
            ("frontier", lambda: FrontierProtocol()),
        ):
            left, right = _pair(chain, seed=chain)
            protocol = factory()
            stats = protocol.run(left, right)
            fallbacks = getattr(protocol, "fallbacks", 0)
            assert stats.converged
            assert left.state_digest() == right.state_digest()
            bytes_by[(chain, name)] = stats.total_bytes
            table.add(chain, name, stats.rounds, stats.total_bytes,
                      fallbacks, stats.converged)
            if name == "sketch":
                # Ideal links, difference within the first sketch's
                # capacity: exactly one round trip, no fallback.
                assert stats.rounds == 1
                assert fallbacks == 0
    table.emit(results_dir, "a14_sketch_bytes")

    small, big = CHAIN_SIZES
    # Sketch traffic tracks d, not DAG size: 10x the chain, same bytes.
    sketch_ratio = bytes_by[(big, "sketch")] / bytes_by[(small, "sketch")]
    assert sketch_ratio < 1.10, (
        f"sketch bytes grew {sketch_ratio:.2f}x with the DAG"
    )
    # Bloom pays for the whole DAG in its filter: its traffic must grow
    # with the chain while the sketch's stays put.  (At this modest d
    # the sketch's fixed per-cell cost still exceeds the small filter
    # in absolute bytes — the win is the asymptote, not this point.)
    bloom_ratio = bytes_by[(big, "bloom")] / bytes_by[(small, "bloom")]
    assert bloom_ratio > sketch_ratio + 0.05, (
        f"bloom {bloom_ratio:.2f}x vs sketch {sketch_ratio:.2f}x"
    )

    def kernel():
        left, right = _pair(CHAIN_SIZES[0], seed=17)
        SketchProtocol().run(left, right)

    benchmark(kernel)


def test_a14_fallback_converges_and_under_faults(results_dir):
    # Direct pair: a sketch that cannot grow or retry must take the
    # frontier fallback and still fully converge.
    left, right = _pair(30, divergence_each=12, seed=5)
    impatient = SketchProtocol(initial_diff=1, max_attempts=1, growth=1)
    stats = impatient.run(left, right)
    assert stats.converged
    assert impatient.fallbacks == 1
    assert left.state_digest() == right.state_digest()

    # A7-style fault matrix: the chaos harness under the sketch protocol
    # (drops, corruption, crashes at message granularity) must hold all
    # four invariants, fallback path included.
    from repro.faults.invariants import run_chaos

    report = run_chaos(seed=2, node_count=4, duration_ms=12_000,
                       protocol_factory=lambda push: SketchProtocol(push=push))
    assert report.ok, report.violations
    assert report.converged

    table = Table(
        "A14: sketch fallback + chaos",
        ["case", "fallbacks", "converged", "violations"],
    )
    table.add("pair-undersized", impatient.fallbacks, stats.converged, 0)
    table.add("chaos-seed-2", "-", report.converged,
              len(report.violations))
    table.emit(results_dir, "a14_sketch_fallback")

