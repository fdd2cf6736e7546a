"""Ablation A2 — transport overhead of the reconciliation session.

The in-memory protocol classes hand Block objects across; a deployment
ships canonical bytes through a socket (``run_session`` against
``serve_connection``).  This ablation runs the same divergence through
both, the network driver over the ``StreamTransport`` that ships, joined
by the test suite's in-memory pipe (``stream_pair``: real frames through
asyncio streams, no socket), and reports bytes, messages, and wall time —
quantifying what the simulator's shortcut hides (it should be: nothing
but encoding and event-loop time; the byte counts match because the
in-memory stats already charge canonical encodings).
"""

from __future__ import annotations

import asyncio
import time

from repro.live.protocol import run_session, serve_connection
from repro.reconcile import FrontierProtocol

from benchmarks.bench_util import Table, make_fleet
from tests.live.memory_runtime import stream_pair


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


def _over_loopback(left, right):
    """One frontier session on the network driver; returns the stats
    and the session's wall time in ms (event-loop set-up excluded)."""
    async def scenario():
        near, far = stream_pair()
        server = asyncio.ensure_future(serve_connection(right, far))
        start = time.perf_counter()
        stats = await run_session(FrontierProtocol(), left, near)
        elapsed_ms = (time.perf_counter() - start) * 1000
        await near.close()
        await server
        return stats, elapsed_ms

    return asyncio.run(scenario())


def test_a2_transport_overhead(benchmark, results_dir):
    table = Table(
        "A2: in-memory protocol vs network driver over the memory pipe "
        "(30-block shared chain)",
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
        remote_stats, remote_ms = _over_loopback(left, right)
        assert remote_stats.converged
        assert left.state_digest() == right.state_digest()
        table.add(divergence, "memory", remote_stats.total_bytes,
                  remote_stats.total_messages, round(remote_ms, 2))

        # Both drivers run the same protocol definition: the bytes that
        # cross the transport are the bytes the simulator accounts.
        assert remote_stats.total_bytes == memory_stats.total_bytes
        assert remote_stats.total_messages == memory_stats.total_messages
    table.emit(results_dir, "a2_transport_overhead")

    def kernel():
        left, right = _pair(2, seed=77)
        _over_loopback(left, right)

    benchmark(kernel)
