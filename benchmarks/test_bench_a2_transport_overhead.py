"""Ablation A2 — byte-transport overhead of the reconciliation session.

The in-memory protocol classes hand Block objects across; a deployment
ships canonical bytes through a socket (``RemoteSession`` +
``ReconcileEndpoint``).  This ablation runs the same divergence through
both and reports bytes, messages, and wall time — quantifying what the
simulator's shortcut hides (it should be: nothing but encoding time;
the byte counts match because the in-memory stats already charge
canonical encodings).
"""

from __future__ import annotations

import time

from repro.reconcile import FrontierProtocol, ReconcileEndpoint, RemoteSession

from benchmarks.bench_util import Table, make_fleet


def _pair(divergence: int, seed: int):
    _, genesis, nodes, clock = make_fleet(2, seed=seed)
    left, right = nodes
    for _ in range(30):
        block = left.append_transactions([])
        right.receive_block(block)
    for _ in range(divergence):
        right.append_transactions([])
        left.append_transactions([])
    return left, right


def test_a2_transport_overhead(benchmark, results_dir):
    table = Table(
        "A2: in-memory protocol vs byte transport (30-block shared chain)",
        ["divergence", "mode", "bytes", "messages", "wall_ms"],
    )
    for divergence in (2, 8):
        left, right = _pair(divergence, seed=divergence)
        start = time.perf_counter()
        memory_stats = FrontierProtocol().run(left, right)
        memory_ms = (time.perf_counter() - start) * 1000
        assert memory_stats.converged
        table.add(divergence, "in-memory", memory_stats.total_bytes,
                  memory_stats.total_messages, round(memory_ms, 2))

        left, right = _pair(divergence, seed=divergence)
        endpoint = ReconcileEndpoint(right)
        start = time.perf_counter()
        remote_stats = RemoteSession(left, endpoint.handle).sync()
        remote_ms = (time.perf_counter() - start) * 1000
        assert remote_stats.converged
        assert left.state_digest() == right.state_digest()
        table.add(divergence, "byte-transport", remote_stats.total_bytes,
                  remote_stats.total_messages, round(remote_ms, 2))

        # Both drivers run the same protocol definition: the bytes that
        # cross the transport are the bytes the simulator accounts.
        assert remote_stats.total_bytes == memory_stats.total_bytes
        assert remote_stats.total_messages == memory_stats.total_messages
    table.emit(results_dir, "a2_transport_overhead")

    def kernel():
        left, right = _pair(2, seed=77)
        RemoteSession(left, ReconcileEndpoint(right).handle).sync()

    benchmark(kernel)
