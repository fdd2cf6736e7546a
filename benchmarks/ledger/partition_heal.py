"""partition_heal: writes under partition, reconciliation after heal.

Three replicas, full mesh, gossip timer parked (``interval_s=3600``) so
the harness drives every session itself: the number is the code's, not
the timer's.  Each round isolates all three, each appends its share of
one-transaction blocks, all three rejoin, and three back-to-back
sessions (a->b, c->a, b->c) must leave the three DAG digests equal.
"""

from __future__ import annotations

import random
import time

from benchmarks.ledger import common
from benchmarks.ledger.calibrate import Calibrator, SyncRef
from benchmarks.ledger.common import APPEND_SLICE, WorkloadFailure
from benchmarks.ledger.harness import Tally
from repro.live.node import LiveNode

NAME = "partition_heal"
HISTORY = 1000
ROUNDS = 24
APPENDS = 50          # per replica per round
WARMUP_APPENDS = 5
NAMES = ("a", "b", "c")
#: initiator -> responder, in order; leaves all three equal.
SESSIONS = (("a", "b"), ("c", "a"), ("b", "c"))


async def _setup(cfg, scratch, rep: int, cal: Calibrator):
    rng = random.Random(cfg.seed * 31 + rep)
    total = 0.0

    chain = None

    def make_chain() -> None:
        nonlocal chain
        chain = common.Chain(cfg.seed * 8 + rep, members=3)

    total += cal.run_slice(make_chain).cal_wall_s
    total += chain.build_history(
        cal, scratch / f"history{rep}.blocks", HISTORY, rng
    )
    nodes = []
    for index, name in enumerate(NAMES):
        def load(index=index, name=name) -> None:
            path = chain.restart_copy(scratch / f"{name}{rep}.blocks")
            nodes.append(LiveNode(
                chain.keys[index], path, name=name, interval_s=3600.0,
                seed=cfg.seed * 8 + index,
            ))
        total += cal.run_slice(load).cal_wall_s
    total += (await cal.run_sampled(common.start_mesh(nodes))).cal_wall_s
    return chain, nodes, rng, total


async def _round(cal, nodes, by_name, arrivals, rng, appends, tally):
    """One partition/heal cycle; returns False when the digests differ."""
    for node in nodes:
        await node.isolate()
    created = []
    todo = [node for node in nodes for _ in range(appends)]
    expected = len(nodes[0].node.dag) + len(todo)
    for offset in range(0, len(todo), APPEND_SLICE):
        raw: list[float] = []

        def work() -> None:
            for node in todo[offset:offset + APPEND_SLICE]:
                tx = common.payload_tx(rng)
                start = time.perf_counter()
                block = node.append_transactions([tx])
                raw.append(time.perf_counter() - start)
                created.append(block.hash)

        piece = cal.run_slice(work)
        tally.add_slice(piece)
        tally.write_ms.extend(r * piece.scale * 1000.0 for r in raw)

    heal_start = time.perf_counter()
    scales = []
    for index, (initiator, responder) in enumerate(SESSIONS):
        stats_box = []

        async def step() -> None:
            if index == 0:
                # All three rejoin before the loop yields, so no dial
                # meets a still-isolated peer and sleeps a backoff.
                for node in nodes:
                    node.rejoin()
                await common.wait_connected(nodes)
                tally.reconnect_ms.append(
                    (time.perf_counter() - heal_start) * 1000.0
                )
            stats_box.append(
                await by_name[initiator].antientropy.run_once(responder)
            )
            if index == len(SESSIONS) - 1:
                # The last push has no acknowledgement: wait for it.
                await common.wait_until(
                    lambda: all(len(n.node.dag) == expected for n in nodes),
                    5.0,
                )

        piece = await cal.run_sampled(step(), common.SESSION_SAMPLE_S)
        tally.add_slice(piece)
        scales.append(piece.scale)
        if index == 0:
            tally.reconnect_ms[-1] *= piece.scale
        stats = stats_box[0]
        if stats is None or stats.interrupted or not stats.converged:
            return False
        tally.add_session(stats)

    if len({n.dag_digest() for n in nodes}) != 1:
        return False
    scale = sum(scales) / len(scales)
    for block_hash in created:
        seen = arrivals.seen.pop(block_hash)
        if len(seen) != len(nodes):
            return False
        last = max(when for when, _ in seen.values())
        tally.deliver_ms.append((last - heal_start) * scale * 1000.0)
        tally.remote_deliveries += len(nodes) - 1
        tally.deliveries += len(nodes)
    return True


async def run(cfg) -> dict:
    scratch = common.make_scratch(NAME)
    sync = SyncRef(scratch / "ref.bin")
    setup_cal = Calibrator(sync=sync)
    nodes = []
    try:
        common.warm_up(scratch)
        setups = []
        for rep in range(cfg.setup_repeats):
            await common.stop_all(nodes)
            setup_cal.forget()
            chain, nodes, rng, seconds = await _setup(
                cfg, scratch, rep, setup_cal
            )
            by_name = {node.name: node for node in nodes}
            arrivals = common.Arrivals()
            for node in nodes:
                node.block_listener = arrivals.listener(node.name)
            warm = Tally()
            ok = await _round(setup_cal, nodes, by_name, arrivals, rng,
                              WARMUP_APPENDS, warm)
            if not ok:
                raise WorkloadFailure("warm-up round did not converge")
            setups.append(seconds + warm.cal_wall_s)

        cal = Calibrator(sync=sync)
        tally = Tally()
        rounds = cfg.count(ROUNDS)
        failed = 0
        with cfg.window(tally):
            window0 = time.perf_counter()
            for _ in range(rounds):
                ok = await _round(cal, nodes, by_name, arrivals, rng,
                                  APPENDS, tally)
                if not ok:
                    failed += 1
                    if failed > 3:
                        break
            window_wall = time.perf_counter() - window0
        return cfg.result(
            NAME, tally, cal, setups=setups, window_wall_s=window_wall,
            attempted=rounds, failed=failed,
        )
    finally:
        await common.stop_all(nodes)
        sync.close()
        common.drop_scratch(scratch)
