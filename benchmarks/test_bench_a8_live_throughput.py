"""Ablation A8 — live network runtime vs message-level sim driver.

The live runtime (``repro.live``) puts the reconciliation protocols on
real frame transports.  By the byte-parity guarantee the traffic is
identical to the sim's message-level driver — so the question this
ablation answers is *what the asyncio/framing machinery costs*:
blocks/sec of end-to-end delivery and bytes per delivered block, over
:class:`~repro.live.transport.StreamTransport` over the in-memory pipe
(``tests.live.memory_runtime.stream_pair``, live) vs
:func:`~repro.reconcile.engine.drive_to_completion` (sim), frontier vs
bloom.  Bytes-per-block must match exactly between the two stacks; the
wall-clock gap is the runtime overhead.
"""

from __future__ import annotations

import asyncio
import time

from repro.live.protocol import run_session, serve_connection
from repro.reconcile import FrontierProtocol
from repro.reconcile.engine import drive_to_completion

from benchmarks.bench_util import Table, make_fleet
from benchmarks.protocols import BloomProtocol
from tests.live.memory_runtime import stream_pair

DIVERGENCES = (4, 16, 64)

PROTOCOLS = {"frontier": FrontierProtocol, "bloom": BloomProtocol}


def _pair(divergence: int, seed: int):
    _, genesis, nodes, clock = make_fleet(2, seed=seed)
    left, right = nodes
    for _ in range(10):
        block = left.append_transactions([])
        right.receive_block(block)
    for _ in range(divergence):
        left.append_transactions([])
        right.append_transactions([])
    return left, right


def _run_sim(protocol_name: str, divergence: int):
    left, right = _pair(divergence, seed=divergence)
    protocol = PROTOCOLS[protocol_name]()
    start = time.perf_counter()
    stats = drive_to_completion(protocol, left, right)
    wall_s = time.perf_counter() - start
    assert stats.converged
    assert left.state_digest() == right.state_digest()
    return stats, wall_s


def _run_live(protocol_name: str, divergence: int):
    left, right = _pair(divergence, seed=divergence)
    protocol = PROTOCOLS[protocol_name]()

    async def scenario():
        init_end, resp_end = stream_pair()
        server = asyncio.ensure_future(serve_connection(right, resp_end))
        stats = await run_session(protocol, left, init_end)
        await init_end.close()
        await server
        return stats

    start = time.perf_counter()
    stats = asyncio.run(scenario())
    wall_s = time.perf_counter() - start
    assert stats.converged
    assert left.state_digest() == right.state_digest()
    return stats, wall_s


def test_a8_live_throughput(benchmark, results_dir):
    table = Table(
        "A8: live runtime (memory pipe) vs sim message driver "
        "(10-block shared chain, both sides diverge)",
        ["divergence", "protocol", "stack", "blocks", "bytes",
         "B/block", "blocks/s", "wall_ms"],
    )
    for divergence in DIVERGENCES:
        for protocol_name in ("frontier", "bloom"):
            rows = {}
            for stack, runner in (
                ("sim", _run_sim), ("live", _run_live)
            ):
                stats, wall_s = runner(protocol_name, divergence)
                moved = stats.blocks_pulled + stats.blocks_pushed
                per_block = stats.total_bytes / max(1, moved)
                table.add(
                    divergence, protocol_name, stack, moved,
                    stats.total_bytes, round(per_block, 1),
                    int(moved / wall_s) if wall_s > 0 else "-",
                    round(wall_s * 1000, 2),
                )
                rows[stack] = stats
            # The parity guarantee, visible in the numbers: both stacks
            # move the same blocks for the same bytes.
            assert rows["sim"].total_bytes == rows["live"].total_bytes
            assert rows["sim"].blocks_pulled == rows["live"].blocks_pulled
            assert rows["sim"].blocks_pushed == rows["live"].blocks_pushed
    table.emit(results_dir, "a8_live_throughput")

    def kernel():
        _run_live("frontier", 8)

    benchmark(kernel)
