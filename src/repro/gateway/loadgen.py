"""Open-loop load generation against a gateway (benchmark A13).

A closed-loop client (send, wait, send) slows down exactly when the
server does, flattering every latency number it reports.  This
generator is **open-loop**: arrivals follow a Poisson process at the
offered rate no matter how the gateway is doing, and each request's
latency is measured from its *scheduled arrival time* — so queueing
delay inside the generator counts against the gateway, the way a real
crowd of independent clients would experience it (coordinated
omission stays fixed, not hidden).

Client identity is sampled per request from ``num_clients`` distinct
ids — millions of simulated clients cost the generator nothing, and
exercise the gateway's LRU-bounded admission table.  Requests travel
over a fixed pool of keep-alive connections; when every connection is
busy and an arrival's turn is already :data:`LATE_BUDGET_S` past due,
the request is counted as an *overrun* instead of being sent late
enough to be meaningless.

Nothing here imports beyond the standard library plus :mod:`repro`
itself; an optional :class:`~repro.obs.Observability` records the
latency histogram; connections are dialed through a *runtime*.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
from typing import Optional

from repro.runtime import SYSTEM, Runtime

DEFAULT_NUM_CLIENTS = 1_000_000
DEFAULT_CONNECTIONS = 16
MAX_RECORDED_LATENCIES = 250_000
LATE_BUDGET_S = 5.0  # an arrival later than this is an overrun

_LOADGEN_BUCKETS_MS = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
)


class GatewayClient:
    """A minimal keep-alive HTTP/1.1 client for one gateway connection."""

    def __init__(self, host: str, port: int, runtime: Runtime = SYSTEM):
        self.host = host
        self.port = port
        self._runtime = runtime
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await self._runtime.dial(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = None
            self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[dict] = None,
    ) -> tuple[int, dict, dict]:
        """``(status, headers, json-body)``; reconnects once on a
        connection that died between requests."""
        for attempt in (0, 1):
            if self._writer is None:
                await self.connect()
            try:
                return await self._roundtrip(method, path, body, headers)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                await self.close()
                if attempt:
                    raise
        raise ConnectionError("unreachable")

    async def _roundtrip(self, method, path, body, headers):
        payload = b""
        if body is not None:
            payload = json.dumps(body, sort_keys=True).encode("utf-8")
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(payload)}",
            "Content-Type: application/json",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self._writer.write(head + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("gateway closed the connection")
        try:
            status = int(status_line.split(b" ", 2)[1])
        except (IndexError, ValueError) as exc:
            raise ConnectionError(f"bad status line {status_line!r}") from exc
        response_headers: dict = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        try:
            decoded = json.loads(raw) if raw else {}
        except ValueError:
            decoded = {"raw": raw.decode("latin-1")}
        if not isinstance(decoded, dict):
            decoded = {"value": decoded}
        return status, response_headers, decoded


def percentile(sorted_values: list, q: float) -> float:
    """The q-th percentile (0..100) of an ascending list, 0.0 if empty."""
    if not sorted_values:
        return 0.0
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(sorted_values[low])
    frac = rank - low
    return float(
        sorted_values[low] * (1 - frac) + sorted_values[high] * frac
    )


class LoadReport:
    """What an open-loop run offered and what came back."""

    def __init__(self, offered_rate: float, duration_s: float):
        self.offered_rate = offered_rate
        self.duration_s = duration_s
        self.offered = 0
        self.accepted = 0
        self.rate_limited = 0
        self.shed = 0
        self.rejected = 0
        self.errors = 0
        self.overruns = 0
        self.latencies_ms: list[float] = []
        self.elapsed_s = 0.0

    def record_latency(self, latency_ms: float) -> None:
        if len(self.latencies_ms) < MAX_RECORDED_LATENCIES:
            self.latencies_ms.append(latency_ms)

    @property
    def completed(self) -> int:
        return (
            self.accepted + self.rate_limited + self.shed
            + self.rejected + self.errors
        )

    @property
    def accepted_rate(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.accepted / self.elapsed_s

    def latency_percentiles(self) -> dict:
        ordered = sorted(self.latencies_ms)
        return {
            "p50_ms": round(percentile(ordered, 50), 3),
            "p90_ms": round(percentile(ordered, 90), 3),
            "p99_ms": round(percentile(ordered, 99), 3),
            "max_ms": round(percentile(ordered, 100), 3),
        }

    def summary(self) -> dict:
        return {
            "offered_rate": self.offered_rate,
            "duration_s": self.duration_s,
            "elapsed_s": round(self.elapsed_s, 3),
            "offered": self.offered,
            "accepted": self.accepted,
            "accepted_rate": round(self.accepted_rate, 1),
            "rate_limited": self.rate_limited,
            "shed": self.shed,
            "rejected": self.rejected,
            "errors": self.errors,
            "overruns": self.overruns,
            **self.latency_percentiles(),
        }


async def run_loadgen(
    host: str,
    port: int,
    *,
    rate: float,
    duration_s: float,
    num_clients: int = DEFAULT_NUM_CLIENTS,
    connections: int = DEFAULT_CONNECTIONS,
    crdt: str = "ledger",
    op: str = "append",
    chain: Optional[str] = None,
    seed: int = 0,
    obs=None,
    runtime: Runtime = SYSTEM,
) -> LoadReport:
    """Drive one open-loop run and return its :class:`LoadReport`."""
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    if connections < 1:
        raise ValueError("need at least one connection")
    rng = random.Random(seed)
    path = "/v1/tx" if chain is None else f"/v1/c/{chain}/tx"
    report = LoadReport(rate, duration_s)
    histogram = None
    if obs is not None and obs.enabled:
        histogram = obs.registry.histogram(
            "loadgen_latency_ms",
            "open-loop submit latency from scheduled arrival",
            buckets=_LOADGEN_BUCKETS_MS,
        )

    loop = asyncio.get_running_loop()
    start = loop.time()
    # The full Poisson arrival schedule, materialized up front so the
    # dispatcher only sleeps and enqueues (a float per arrival: 10k
    # arrivals/s for 60s is ~5 MB — fine; the tx bodies are not
    # materialized until send time).
    schedule: list[float] = []
    offset = 0.0
    while True:
        offset += rng.expovariate(rate)
        if offset >= duration_s:
            break
        schedule.append(start + offset)

    queue: asyncio.Queue = asyncio.Queue()
    done = object()

    async def dispatcher() -> None:
        for arrival in schedule:
            delay = arrival - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            report.offered += 1
            queue.put_nowait(arrival)
        # The run is its whole window, not the time to the last arrival:
        # throughput divides by ``elapsed_s``.
        while loop.time() < start + duration_s:
            await asyncio.sleep(start + duration_s - loop.time())
        for _ in range(connections):
            queue.put_nowait(done)

    async def worker(index: int) -> None:
        worker_rng = random.Random(seed * 1_000_003 + index)
        client = GatewayClient(host, port, runtime)
        sequence = 0
        try:
            while True:
                arrival = await queue.get()
                if arrival is done:
                    return
                now = loop.time()
                if now - arrival > LATE_BUDGET_S:
                    # Too far behind to be a meaningful measurement:
                    # the gateway already failed this arrival's clock.
                    report.overruns += 1
                    continue
                client_id = f"c{worker_rng.randrange(num_clients)}"
                sequence += 1
                body = {
                    "crdt": crdt,
                    "op": op,
                    "args": [f"w{index}-{sequence}"],
                }
                try:
                    status, _, payload = await client.request(
                        "POST", path, body=body,
                        headers={"X-Client-Id": client_id},
                    )
                except (ConnectionError, OSError,
                        asyncio.IncompleteReadError):
                    report.errors += 1
                    continue
                latency_ms = (loop.time() - arrival) * 1000.0
                if status == 200:
                    report.accepted += 1
                    report.record_latency(latency_ms)
                    if histogram is not None:
                        histogram.observe(latency_ms)
                elif status == 429:
                    if payload.get("error") == "shed":
                        report.shed += 1
                    else:
                        report.rate_limited += 1
                elif 400 <= status < 500:
                    report.rejected += 1
                else:
                    report.errors += 1
        finally:
            await client.close()

    workers = [
        asyncio.ensure_future(worker(index)) for index in range(connections)
    ]
    dispatch = asyncio.ensure_future(dispatcher())
    try:
        await dispatch
        await asyncio.gather(*workers)
    finally:
        dispatch.cancel()
        for task in workers:
            task.cancel()
        await asyncio.gather(dispatch, *workers, return_exceptions=True)
    report.elapsed_s = loop.time() - start
    if obs is not None and obs.enabled:
        obs.emit("loadgen.done", **report.summary())
    return report
