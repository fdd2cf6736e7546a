"""Experiment A13 — the gateway client plane under open-loop load.

Three tables:

* **Rate sweep** — offered Poisson rate vs. sustained accepted tx/s,
  client-observed p50/p90/p99 (latency measured from the *scheduled*
  arrival, so queueing delay is charged to the server — no coordinated
  omission), blocks cut, and the share of them that waited for the
  cut rate (``held %``: the ``hold_off`` cuts over all cuts).  The
  20/s point is the near-idle edge the perf ledger's ``edge_steady``
  runs: there the cut rate (40 partial blocks a second at the 25 ms
  default, with a one-second burst) always holds a token, so every
  transaction is cut at once and ``held %`` must read 0; the busier
  points run past the burst and wait for the rate — and the same
  transactions make more, smaller blocks, which is what the blocks
  column is for.
* **Client sweep** — latency vs. distinct client-id population at a
  fixed rate; the admission table is LRU-bounded, so a million ids must
  cost the same as ten.
* **Graceful degradation** — two deliberate overload regimes, offered
  at 2x the sweep's best sustained rate:

  - *admission clamp*: one client id against a small token bucket —
    the surplus must come back as polite 429 + Retry-After;
  - *queue shed*: a tiny batch queue behind a slow cut rate (4 partial
    blocks a second, a burst of 4) — the surplus must be shed
    oldest-first, again as 429.

  In both, the hard assertion is **zero transport/5xx errors**: every
  offered request gets an orderly answer, and accepted requests still
  complete.  That is the A13 claim — the edge degrades by refusing
  work, never by falling over.

Every timed point starts on a warm pool: the generator's connections
are dialed, and each has been answered once, before its clock starts
(:class:`_WarmPool`, a runtime whose ``dial`` hands them out), so no
latency includes a TCP handshake.  A percentile is printed only where
at least :data:`TAIL_SAMPLES` latencies lie beyond it, ``-`` otherwise:
p50 needs 20 accepted requests, p90 100 and p99 1 000.  A sweep point
runs long enough to expect :data:`P90_SAMPLES` arrivals (the 20/s
point 6.5 s, not 1 s), so every sweep point has a p90; only the
nightly sizes reach p99.

Every block is signed on the ``cryptography`` backend, pinned as the
perf ledger pins it (``benchmarks.ledger.common.pin_backend``), so the
latencies are the gateway's and not pure-Python signing; each table
header names the backend.

Run with ``A13_FULL=1`` for the nightly sizes; the default is a PR-
smoke subset.  The headline numbers also land in
``results/a13_gateway.json`` for the perf-trend CSV
(``benchmarks/append_trend.py``).
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.core.genesis import create_genesis
from repro.crypto import backend as crypto_backend
from repro.crypto.keys import KeyPair
from repro.gateway import GatewayNode
from repro.gateway.loadgen import run_loadgen
from repro.live.node import LiveNode
from repro.runtime import Runtime

from benchmarks.bench_util import Table
from benchmarks.ledger.common import pin_backend

FULL = os.environ.get("A13_FULL", "") not in ("", "0")

# (sweep rates, client populations, seconds per point)
RATES = (20, 250, 500, 1000) if FULL else (20, 100, 200)
CLIENTS = (10, 10_000, 1_000_000) if FULL else (10, 1_000, 1_000_000)
DURATION = 3.0 if FULL else 1.0
CONNECTIONS = 16
#: A percentile is reported only with this many latencies beyond it.
TAIL_SAMPLES = 10
#: Arrivals a sweep point expects: ten beyond its p90, and Poisson room.
P90_SAMPLES = 130

# Generous per-client admission for the capacity sweeps: the bucket
# must never be what limits a well-behaved population.
OPEN_ADMISSION = dict(admission_rate=100_000.0, admission_burst=100_000.0)


def _seconds(rate: float) -> float:
    """A point's length: :data:`DURATION`, or long enough for a p90."""
    return max(DURATION, P90_SAMPLES / rate)


def _tail(summary: dict, q: int):
    """The point's *q*-th percentile, or ``None`` with fewer than
    :data:`TAIL_SAMPLES` accepted latencies beyond it."""
    if summary["accepted"] * (100 - q) < TAIL_SAMPLES * 100:
        return None
    return summary[f"p{q}_ms"]


def _cell(value) -> str:
    return "-" if value is None else str(value)


class _WarmPool(Runtime):
    """The system runtime, but ``dial`` first hands out connections
    opened, and answered once each, before the timed point."""

    def __init__(self):
        self._ready: list = []

    async def warm(self, port: int, count: int) -> None:
        for _ in range(count):
            reader, writer = await super().dial("127.0.0.1", port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: a13\r\n\r\n")
            await reader.readuntil(b"\r\n\r\nok\n")
            self._ready.append((reader, writer))

    async def dial(self, host: str, port: int):
        if self._ready:
            return self._ready.pop()
        return await super().dial(host, port)


def _gateway(tmp_path, tag: str, **kwargs) -> GatewayNode:
    owner = KeyPair.deterministic(13)
    genesis = create_genesis(owner, chain_name="a13", timestamp=0)
    live = LiveNode(
        owner, tmp_path / f"{tag}.blocks", genesis=genesis, fsync=False,
        name=f"a13-{tag}",
    )
    return GatewayNode([live], **kwargs)


async def _measure(tmp_path, tag: str, *, rate: float,
                   num_clients: int = 10_000, duration_s: float = DURATION,
                   gateway_kwargs: dict | None = None,
                   loadgen_kwargs: dict | None = None) -> dict:
    gateway = _gateway(tmp_path, tag, **(gateway_kwargs or OPEN_ADMISSION))
    await gateway.start()
    try:
        live = gateway.default_host.live
        live.node.create_crdt("ledger", "append_log", "str",
                              {"append": "*"})
        live._persist_blocks()
        pool = _WarmPool()
        await pool.warm(gateway.http_port, CONNECTIONS)
        report = await run_loadgen(
            "127.0.0.1", gateway.http_port,
            rate=rate, duration_s=duration_s, num_clients=num_clients,
            connections=CONNECTIONS, seed=13, runtime=pool,
            **(loadgen_kwargs or {}),
        )
        batcher = gateway.default_host.batcher
        blocks = batcher.batches_flushed
        held = batcher.cuts["hold_off"]
    finally:
        await gateway.stop()
    summary = report.summary() | {
        "blocks": blocks,
        "held_pct": round(100.0 * held / blocks, 1) if blocks else 0.0,
    }
    # The invariants every regime must keep: an orderly answer for
    # every offered request, and no transport or server errors.
    assert summary["errors"] == 0, summary
    assert report.completed + report.overruns == report.offered
    return summary


def _sweep_rates(tmp_path, table: Table) -> list[dict]:
    summaries = []
    for rate in RATES:
        summary = asyncio.run(
            _measure(tmp_path, f"rate{rate}", rate=rate,
                     duration_s=_seconds(rate))
        )
        assert summary["accepted"] > 0
        if rate == RATES[0]:
            # Near-idle: under the cut rate, no transaction waits for it.
            assert summary["held_pct"] == 0.0, summary
        table.add(
            rate, round(_seconds(rate), 1), summary["offered"],
            summary["accepted"], round(summary["accepted_rate"], 1),
            *(_cell(_tail(summary, q)) for q in (50, 90, 99)),
            summary["blocks"], summary["held_pct"],
        )
        summaries.append(summary)
    return summaries


def _sweep_clients(tmp_path, table: Table) -> None:
    rate = RATES[1]  # the first loaded point; RATES[0] is near-idle
    for population in CLIENTS:
        summary = asyncio.run(
            _measure(tmp_path, f"pop{population}", rate=rate,
                     num_clients=population, duration_s=_seconds(rate))
        )
        assert summary["rate_limited"] == 0  # open admission
        table.add(
            population, summary["accepted"],
            round(summary["accepted_rate"], 1),
            *(_cell(_tail(summary, q)) for q in (50, 90, 99)),
        )


def _overload(tmp_path, table: Table, saturation: float) -> dict:
    offered = max(2.0 * saturation, 50.0)

    clamp = asyncio.run(_measure(
        tmp_path, "clamp", rate=offered, duration_s=DURATION,
        num_clients=1,
        gateway_kwargs=dict(
            admission_rate=saturation / 4.0,
            admission_burst=max(saturation / 4.0, 1.0),
        ),
    ))
    # The clamp refuses the surplus politely and keeps serving.
    assert clamp["rate_limited"] > 0, clamp
    assert clamp["accepted"] > 0, clamp
    table.add("admission-clamp", int(offered), clamp["accepted"],
              clamp["rate_limited"], clamp["shed"],
              *(_cell(_tail(clamp, q)) for q in (50, 90)))

    shed = asyncio.run(_measure(
        tmp_path, "shed", rate=offered, duration_s=DURATION,
        gateway_kwargs=dict(
            max_batch=4, max_queue=4, max_delay_s=0.25,
            **OPEN_ADMISSION,
        ),
    ))
    # A full queue sheds oldest-first instead of growing without bound.
    assert shed["shed"] > 0, shed
    assert shed["accepted"] > 0, shed
    table.add("queue-shed", int(offered), shed["accepted"],
              shed["rate_limited"], shed["shed"],
              *(_cell(_tail(shed, q)) for q in (50, 90)))
    return {"clamp": clamp, "shed": shed}


@pytest.fixture
def signing_backend():
    """The pinned backend's name; the previous selection comes back
    afterwards, so later benchmarks in this process are unaffected."""
    previous = crypto_backend.active()
    try:
        yield pin_backend()
    finally:
        crypto_backend.set_backend(previous)


def test_a13_gateway(benchmark, results_dir, tmp_path, signing_backend):
    rate_table = Table(
        f"A13.1: open-loop rate sweep (>= {DURATION:.0f}s per point, "
        f"10k client ids, {CONNECTIONS} warm connections, "
        f"{signing_backend} backend)",
        ["offered/s", "seconds", "offered", "accepted", "accepted/s",
         "p50_ms", "p90_ms", "p99_ms", "blocks", "held %"],
    )
    sweep = _sweep_rates(tmp_path, rate_table)
    rate_table.emit(results_dir, "a13_gateway_rates")

    client_table = Table(
        f"A13.2: latency vs client population (rate {RATES[1]}/s, "
        f"{signing_backend} backend — the LRU-bounded admission table "
        "must make 1M ids cost like 10)",
        ["clients", "accepted", "accepted/s", "p50_ms", "p90_ms",
         "p99_ms"],
    )
    _sweep_clients(tmp_path, client_table)
    client_table.emit(results_dir, "a13_gateway_clients")

    saturation = max(s["accepted_rate"] for s in sweep)
    overload_table = Table(
        "A13.3: graceful degradation at 2x sustained rate "
        f"({signing_backend} backend; zero errors is the gate; surplus "
        "becomes 429s, not crashes)",
        ["regime", "offered/s", "accepted", "rate_limited", "shed",
         "p50_ms", "p90_ms"],
    )
    overload = _overload(tmp_path, overload_table, saturation)
    overload_table.emit(results_dir, "a13_gateway_overload")

    best = max(sweep, key=lambda s: s["accepted_rate"])
    headline = {
        "full": FULL,
        "sustained_tx_s": round(best["accepted_rate"], 1),
        # None (an empty trend cell) where the point is too short.
        "p50_ms": _tail(best, 50),
        "p90_ms": _tail(best, 90),
        "p99_ms": _tail(best, 99),
        "overload_rate_limited": overload["clamp"]["rate_limited"],
        "overload_shed": overload["shed"]["shed"],
        "overload_errors": (overload["clamp"]["errors"]
                            + overload["shed"]["errors"]),
    }
    (results_dir / "a13_gateway.json").write_text(
        json.dumps(headline, indent=2, sort_keys=True) + "\n"
    )

    def kernel():
        asyncio.run(_measure(tmp_path, "kernel", rate=50.0,
                             num_clients=100, duration_s=0.3))

    benchmark(kernel)
