"""Ablation A10 — observability overhead on the live hot path.

The fleet observability plane hangs two things off the live runtime:
trace events (``session.*``, ``block.*``) and metrics through the obs
bus, and the per-node HTTP ops endpoint.  Like the sim-side A5, the
promise is that a node pays for observability only when it is switched
on — the disabled path is one ``is None`` check per hook.  (Profiling
is ``serve --profile-dump``, cProfile over the whole run: nothing in
the hot path to switch off.)

This ablation times anti-entropy sessions over
:class:`~repro.live.transport.StreamTransport` over the in-memory pipe
(``tests.live.memory_runtime.stream_pair``: the live stack without
socket noise) in three configurations:

* ``off``   — the shipped default: no obs, no ops server;
* ``trace`` — trace events to a ring buffer plus the metrics registry;
* ``full``  — tracing **and** a bound, idle
  :class:`~repro.obs.live.OpsServer` in the same event loop.

Each configuration keeps one event loop for the whole run (and ``full``
one ops server, bound before the first session and closed after the
last).  Each diverged pair is built outside the timed region, and only
``AntiEntropyLoop.run_once`` is timed, so loop and server start-up are
not charged to a session.  Repetitions are interleaved across the
configurations.

Acceptance: ``full``'s best session must stay within 5 % of ``off``'s,
mirroring A5.
"""

from __future__ import annotations

import asyncio
import statistics
import time

from repro.live.antientropy import AntiEntropyLoop
from repro.live.protocol import serve_connection
from repro.obs import Observability, RingBufferSink
from repro.obs.live import OpsServer

from benchmarks.bench_util import Table, make_fleet
from tests.live.memory_runtime import stream_pair

DIVERGENCE = 24
REPETITIONS = 5
SESSIONS = 4  # timed sessions per configuration and repetition


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


class _Config:
    """One configuration: its own event loop, obs and ops server."""

    def __init__(self, obs=None, with_ops=False):
        self.obs = obs
        self.loop = asyncio.new_event_loop()
        self.ops = None
        if with_ops:
            self.ops = OpsServer(registry=obs.registry,
                                 status=lambda: {"name": "bench"})
            self.loop.run_until_complete(self.ops.start())

    def session_s(self, pair) -> float:
        """Wall seconds of one ``run_once`` that heals *pair*."""
        return self.loop.run_until_complete(self._session(*pair))

    async def _session(self, left, right) -> float:
        init_end, resp_end = stream_pair()
        server = asyncio.ensure_future(serve_connection(right, resp_end))
        loop = AntiEntropyLoop(left, _OnePeer(init_end), obs=self.obs)
        start = time.perf_counter()
        stats = await loop.run_once("peer")
        wall_s = time.perf_counter() - start
        await init_end.close()
        await server
        assert stats is not None and stats.converged
        assert left.state_digest() == right.state_digest()
        return wall_s

    def close(self):
        if self.ops is not None:
            self.loop.run_until_complete(self.ops.stop())
        self.loop.close()


def test_a10_obs_live_overhead(benchmark, results_dir):
    configs = {
        "off": _Config(),
        "trace": _Config(obs=Observability(sinks=[RingBufferSink()])),
        "full": _Config(obs=Observability(sinks=[RingBufferSink()]),
                        with_ops=True),
    }
    times: dict[str, list[float]] = {name: [] for name in configs}
    try:
        for _ in range(REPETITIONS):
            for name, config in configs.items():
                for _ in range(SESSIONS):
                    times[name].append(config.session_s(_pair(seed=7)))
        benchmark.pedantic(configs["off"].session_s,
                           setup=lambda: ((_pair(seed=7),), {}), rounds=3)
    finally:
        for config in configs.values():
            config.close()
    best = {name: min(runs) for name, runs in times.items()}

    table = Table(
        "A10: observability overhead on live anti-entropy over the memory pipe "
        f"({DIVERGENCE} blocks diverged each way, "
        f"{REPETITIONS * SESSIONS} timed sessions per config)",
        ["config", "best_s", "median_s", "vs_off"],
    )
    for name in configs:
        table.add(name, f"{best[name]:.4f}",
                  f"{statistics.median(times[name]):.4f}",
                  f"{100 * (best[name] / best['off'] - 1):+.1f}%")
    table.emit(results_dir, "a10_obs_live_overhead")

    # Sanity: the instrumented configuration really observed the work.
    obs = configs["full"].obs
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
