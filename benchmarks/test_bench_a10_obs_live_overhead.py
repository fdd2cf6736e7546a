"""Ablation A10 — observability overhead on the live hot path.

The fleet observability plane hangs two things off the live runtime:
trace events (``session.*``, ``block.*``) and metrics through the obs
bus, and the per-node HTTP ops endpoint.  Like the sim-side A5, the
promise is that a node pays for observability only when it is switched
on — the disabled path is one ``is None`` check per hook.  (Profiling
is ``serve --profile-dump``, cProfile over the whole run: nothing in
the hot path to switch off.)

This ablation times anti-entropy sessions over
:class:`~repro.live.transport.LoopbackTransport` (the deterministic
live stack, no socket noise) in three configurations:

* ``off``   — the shipped default: no obs, no ops server;
* ``trace`` — trace events to a ring buffer plus the metrics registry;
* ``full``  — tracing **and** a bound, idle
  :class:`~repro.obs.live.OpsServer` in the same event loop.

Acceptance: ``full`` must stay within 5 % of ``off``.  Runs are
interleaved and per-configuration minima over several repetitions are
compared, mirroring A5.
"""

from __future__ import annotations

import asyncio
import time

from repro.live.antientropy import AntiEntropyLoop
from repro.live.protocol import serve_connection
from repro.live.transport import LoopbackTransport
from repro.obs import Observability, RingBufferSink
from repro.obs.live import OpsServer

from benchmarks.bench_util import Table, make_fleet

DIVERGENCE = 24
REPETITIONS = 5


class _OnePeer:
    """The minimal peer-manager surface AntiEntropyLoop drives."""

    def __init__(self, transport):
        self._transport = transport

    def connected_peers(self):
        return ["peer"]

    def connection(self, name):
        return self._transport


def _pair(seed: int):
    _, genesis, nodes, clock = make_fleet(2, seed=seed)
    left, right = nodes
    for _ in range(10):
        block = left.append_transactions([])
        right.receive_block(block)
    for _ in range(DIVERGENCE):
        left.append_transactions([])
        right.append_transactions([])
    return left, right


def _run_session(obs=None, with_ops=False):
    left, right = _pair(seed=7)

    async def scenario():
        ops = None
        if with_ops:
            ops = OpsServer(
                registry=None if obs is None else obs.registry,
                status=lambda: {"name": "bench"},
            )
            await ops.start()
        init_end, resp_end = LoopbackTransport.pair()
        server = asyncio.ensure_future(serve_connection(right, resp_end))
        loop = AntiEntropyLoop(left, _OnePeer(init_end), obs=obs)
        stats = await loop.run_once("peer")
        await init_end.close()
        await server
        if ops is not None:
            await ops.stop()
        return stats

    start = time.perf_counter()
    stats = asyncio.run(scenario())
    wall_s = time.perf_counter() - start
    assert stats is not None and stats.converged
    assert left.state_digest() == right.state_digest()
    return wall_s


def _timed_off() -> float:
    return _run_session()


def _timed_trace() -> float:
    obs = Observability(sinks=[RingBufferSink()])
    return _run_session(obs=obs)


def _timed_full() -> float:
    obs = Observability(sinks=[RingBufferSink()])
    return _run_session(obs=obs, with_ops=True)


def test_a10_obs_live_overhead(benchmark, results_dir):
    configs = {
        "off": _timed_off,
        "trace": _timed_trace,
        "full": _timed_full,
    }
    best: dict[str, float] = {name: float("inf") for name in configs}
    for _ in range(REPETITIONS):
        for name, runner in configs.items():
            best[name] = min(best[name], runner())

    table = Table(
        "A10: observability overhead on live loopback anti-entropy "
        f"({DIVERGENCE} blocks diverged each way, best of "
        f"{REPETITIONS})",
        ["config", "runtime_s", "vs_off"],
    )
    for name in configs:
        table.add(name, f"{best[name]:.4f}",
                  f"{100 * (best[name] / best['off'] - 1):+.1f}%")
    table.emit(results_dir, "a10_obs_live_overhead")

    # Sanity: the instrumented configuration really observed the work.
    obs = Observability(sinks=[RingBufferSink()])
    _run_session(obs=obs, with_ops=True)
    kinds = {event.type for event in obs.events()}
    assert "session.start" in kinds and "session.completed" in kinds
    rendered = obs.registry.render_prometheus()
    for family in ("reconcile_sessions_total", "reconcile_bytes_total",
                   "reconcile_messages_total", "reconcile_rounds_total",
                   "reconcile_blocks_total"):
        assert f'{family}{{protocol="frontier"' in rendered, family

    # Acceptance: the fully observed node costs at most 5% over the
    # shipped default (small absolute floor absorbs timer jitter).
    allowance = max(0.05 * best["off"], 0.005)
    assert best["full"] <= best["off"] + allowance, (
        f"observability-on path too slow: {best['full']:.4f}s vs "
        f"off {best['off']:.4f}s"
    )

    benchmark(_timed_off)
