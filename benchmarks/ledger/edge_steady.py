"""edge_steady: the client edge under steady open-loop load.

A gateway-embedded replica G plus replicas R1 and R2, full static mesh
over loopback TCP, every program default: fsync on, frontier protocol,
1.0 +- 0.2 s gossip driven by the program's own loop, 25 ms / 128-tx
batching, default admission.  The repository's own open-loop generator
offers Poisson arrivals over two keep-alive connections (one process,
one thread); latency counts from each request's *scheduled* arrival.
Latencies here are timer-bound (batch deadline, gossip interval) and
stay in raw milliseconds; CPU is calibrated by an in-loop sampler.
"""

from __future__ import annotations

import asyncio
import random
import time

from benchmarks.ledger import common
from benchmarks.ledger.calibrate import Calibrator, SyncRef
from benchmarks.ledger.common import WorkloadFailure
from benchmarks.ledger.harness import Tally
from repro.gateway import GatewayNode
from repro.gateway.loadgen import GatewayClient, run_loadgen
from repro.live.node import LiveNode
from repro.obs import Observability

NAME = "edge_steady"
HISTORY = 1000
RATE = 20.0
CLIENT_IDS = 10_000
CONNECTIONS = 2
DRAIN_CAP_S = 10.0
WARMUP_POSTS = 5
GOSSIP_SEED = 1300
REPLICAS = ("G", "R1", "R2")


class SessionLog:
    """An in-memory trace sink keeping ``session.completed`` events."""

    def __init__(self):
        self.completed: list[dict] = []

    def write(self, event) -> None:
        if event.type == "session.completed":
            self.completed.append(event.fields)

    def close(self) -> None:
        pass


async def _setup(cfg, scratch, rep: int, cal: Calibrator):
    rng = random.Random(cfg.seed * 41 + rep)
    total = 0.0
    chain = None

    def make_chain() -> None:
        nonlocal chain
        chain = common.Chain(cfg.seed * 8 + rep, members=len(REPLICAS))

    total += cal.run_slice(make_chain).cal_wall_s
    total += chain.build_history(
        cal, scratch / f"history{rep}.blocks", HISTORY, rng
    )
    log = SessionLog()
    obs = Observability(enabled=True, sinks=[log])
    nodes = []
    for index, name in enumerate(REPLICAS):
        def load(index=index, name=name) -> None:
            path = chain.restart_copy(scratch / f"{name}{rep}.blocks")
            nodes.append(LiveNode(
                chain.keys[index], path, name=name, obs=obs,
                seed=GOSSIP_SEED + index,
            ))
        total += cal.run_slice(load).cal_wall_s
    gateway = GatewayNode([nodes[0]])

    async def bring_up() -> None:
        await gateway.start()
        for node in nodes[1:]:
            await node.start()
        await common.connect_mesh(nodes)
        client = GatewayClient("127.0.0.1", gateway.http_port)
        try:
            for index in range(WARMUP_POSTS):
                status, _, _ = await client.request(
                    "POST", "/v1/tx",
                    body={"crdt": common.LEDGER_CRDT, "op": "append",
                          "args": [f"warm-{index}"]},
                    headers={"X-Client-Id": "warm-up"},
                )
                if status != 200:
                    raise WorkloadFailure(f"warm-up POST answered {status}")
        finally:
            await client.close()

    # What bring-up waits for is timers (poll sleeps, the warm-up
    # posts' batch deadline), not fsync: that part stays raw.
    total += (await cal.run_sampled(bring_up(), raw_wait=True)).cal_wall_s
    return gateway, nodes, log, total


async def _teardown(gateway, nodes) -> None:
    if gateway is not None:
        await common.stop_all([gateway])
    await common.stop_all(nodes[1:])


def _schedule(seed: int, rate: float, duration_s: float) -> list[float]:
    """The generator's arrival offsets: ``run_loadgen`` draws them from
    ``random.Random(seed)`` exactly like this before it sends anything."""
    rng = random.Random(seed)
    offsets, offset = [], 0.0
    while True:
        offset += rng.expovariate(rate)
        if offset >= duration_s:
            return offsets
        offsets.append(offset)


async def run(cfg) -> dict:
    scratch = common.make_scratch(NAME)
    sync = SyncRef(scratch / "ref.bin")
    setup_cal = Calibrator(sync=sync)
    gateway, nodes = None, []
    try:
        common.warm_up(scratch)
        setups = []
        for rep in range(cfg.setup_repeats):
            await _teardown(gateway, nodes)
            setup_cal.forget()
            gateway, nodes, log, seconds = await _setup(
                cfg, scratch, rep, setup_cal
            )
            setups.append(seconds)

        arrivals = common.Arrivals(clock=time.monotonic)
        local_blocks: list = []
        g_live = nodes[0]
        g_live.block_listener = arrivals.listener(
            "G", also=_chain(g_live.block_listener, local_blocks)
        )
        for node in nodes[1:]:
            node.block_listener = arrivals.listener(node.name)

        cal = Calibrator(sync=sync)
        tally = Tally()
        duration = cfg.duration_s
        offsets = _schedule(cfg.seed, RATE, duration)
        sessions0 = len(log.completed)
        box = {}

        def delivered() -> bool:
            return all(
                len(arrivals.seen.get(block.hash, ())) == len(REPLICAS)
                for block in local_blocks
            )

        async def window() -> None:
            box["start"] = asyncio.get_running_loop().time()
            box["report"] = await run_loadgen(
                "127.0.0.1", gateway.http_port, rate=RATE,
                duration_s=duration, num_clients=CLIENT_IDS,
                connections=CONNECTIONS, crdt=common.LEDGER_CRDT,
                seed=cfg.seed,
            )
            box["drained"] = await common.wait_until(
                delivered, DRAIN_CAP_S, poll_s=0.02
            )

        with cfg.window(tally):
            window0 = time.perf_counter()
            tally.add_slice(await cal.run_sampled(window(), raw_wait=True))
            window_wall = time.perf_counter() - window0

        report = box["report"]
        failed = report.offered - report.accepted
        tally.write_ms = list(report.latencies_ms)
        # The k-th transaction G committed is the k-th scheduled
        # arrival: the generator sends in schedule order and the
        # batcher keeps submit order.
        committed = [
            block for block in local_blocks for _ in block.transactions
        ]
        if len(committed) != report.accepted:
            raise WorkloadFailure(
                f"G committed {len(committed)} transactions, the generator "
                f"counted {report.accepted} accepted"
            )
        if report.accepted == len(offsets):
            for offset, block in zip(offsets, committed):
                seen = arrivals.seen.get(block.hash, {})
                if len(seen) < len(REPLICAS):
                    failed += 1
                    continue
                arrival = box["start"] + offset
                last = max(seen[name][0] for name in REPLICAS[1:])
                if seen["G"][0] < arrival - 0.001:
                    raise WorkloadFailure(
                        "a transaction was committed before its scheduled "
                        "arrival: the arrival matching is off"
                    )
                tally.deliver_ms.append((last - arrival) * 1000.0)
        for fields in log.completed[sessions0:]:
            tally.sessions += 1
            tally.session_bytes += fields["bytes_i2r"] + fields["bytes_r2i"]
            tally.session_rounds += fields["rounds"]
            tally.blocks_moved += (
                fields["blocks_pulled"] + fields["blocks_pushed"]
            )
        tally.deliveries = len(local_blocks) * len(REPLICAS)
        tally.remote_deliveries = len(local_blocks) * (len(REPLICAS) - 1)
        lag = cal.timer_lag_s or [0.0]
        tally.extra.update({
            "loadgen_lag_ms": max(lag) * 1000.0,
            "loadgen_lag_p50_ms": common.median(lag) * 1000.0,
            "loadgen_overruns": report.overruns,
            "loadgen_elapsed_s": report.elapsed_s,
            "blocks_created": len(local_blocks),
            "drained": box["drained"],
        })
        if len({node.dag_digest() for node in nodes}) != 1:
            failed = max(failed, 1)
        return cfg.result(
            NAME, tally, cal, setups=setups, window_wall_s=window_wall,
            attempted=report.offered, failed=failed,
        )
    finally:
        await _teardown(gateway, nodes)
        sync.close()
        common.drop_scratch(scratch)


def _chain(existing, local_blocks: list):
    """Keep the gateway's own listener (its push feed) and note every
    block G itself created, in creation order."""
    def on_block(block, origin: str) -> None:
        if origin == "local":
            local_blocks.append(block)
        if existing is not None:
            existing(block, origin)
    return on_block
