"""cold_join: an empty replica pulls a deep chain, writes, restarts.

A source replica holds a single-author chain; each join starts a fresh
replica with an empty store, connects it, and one session must bring it
to the source's DAG digest — one frontier level per round trip, cold
verification caches (every join uses a chain of its own seed-derived
keys, so nothing is remembered from the join before).  The joiner then
accepts writes, stops, and its store is read back with ``load_node``.
"""

from __future__ import annotations

import random
import time

from benchmarks.ledger import common
from benchmarks.ledger.calibrate import Calibrator, SyncRef
from benchmarks.ledger.common import APPEND_SLICE
from benchmarks.ledger.harness import Tally
from repro.chain.verifycache import shared_cache
from repro.crypto import backend as crypto_backend
from repro.live.node import LiveNode
from repro.live.peers import PeerSpec
from repro.storage import load_node

NAME = "cold_join"
DEPTH = 400
JOINS = 10
WRITES = 100


async def _setup(cfg, scratch, rep: int, cal: Calibrator):
    rng = random.Random(cfg.seed * 37 + rep)
    total = 0.0
    chain = None

    def make_chain() -> None:
        nonlocal chain
        # Member 0 writes the chain; one more member per join.
        chain = common.Chain(cfg.seed * 8 + rep, members=1 + cfg.count(JOINS))

    total += cal.run_slice(make_chain).cal_wall_s
    total += chain.build_history(
        cal, scratch / f"history{rep}.blocks", DEPTH, rng
    )
    box = []

    def load() -> None:
        path = chain.restart_copy(scratch / f"source{rep}.blocks")
        box.append(LiveNode(chain.keys[0], path, name="source",
                            interval_s=3600.0, seed=cfg.seed))

    total += cal.run_slice(load).cal_wall_s
    source = box[0]
    total += (await cal.run_sampled(source.start())).cal_wall_s
    return chain, source, rng, total


async def _join(cfg, cal, chain, source, scratch, rng, index: int,
                tally) -> bool:
    """One cold join; returns False on a digest mismatch."""
    # Cold: nothing verified in an earlier join may be remembered.
    shared_cache().clear()
    crypto_backend.clear_memo()
    path = scratch / f"joiner{index}.blocks"
    key = chain.keys[1 + index]
    joiner = LiveNode(
        key, path, genesis=chain.genesis, name=f"joiner{index}",
        interval_s=3600.0, seed=cfg.seed + index,
        peers=[PeerSpec("source", "127.0.0.1", source.listen_port)],
    )
    arrivals = common.Arrivals()
    joiner.block_listener = arrivals.listener("joiner")
    await joiner.start()
    try:
        await common.wait_connected([joiner], want=1)
        box = []

        async def session() -> None:
            box.append(await joiner.antientropy.run_once("source"))

        cal.forget()
        join_start = time.perf_counter()
        piece = await cal.run_sampled(session(), common.SESSION_SAMPLE_S)
        tally.add_slice(piece)
        stats = box[0]
        if (stats is None or stats.interrupted or not stats.converged
                or joiner.dag_digest() != source.dag_digest()):
            return False
        tally.add_session(stats)
        pulled = len(arrivals.seen)
        for seen in arrivals.seen.values():
            when, _origin = seen["joiner"]
            tally.deliver_ms.append(
                (when - join_start) * piece.scale * 1000.0
            )
        tally.remote_deliveries += pulled
        tally.deliveries += pulled

        for offset in range(0, WRITES, APPEND_SLICE):
            raw: list[float] = []

            def work() -> None:
                for _ in range(min(APPEND_SLICE, WRITES - offset)):
                    tx = common.payload_tx(rng)
                    start = time.perf_counter()
                    joiner.append_transactions([tx])
                    raw.append(time.perf_counter() - start)

            piece = cal.run_slice(work)
            tally.add_slice(piece)
            tally.write_ms.extend(r * piece.scale * 1000.0 for r in raw)
        tally.deliveries += WRITES
        expected = joiner.state_digest()
    finally:
        await joiner.stop()

    box = []

    def reload() -> None:
        box.append(load_node(key, path))

    piece = cal.run_slice(reload)
    tally.add_slice(piece)
    tally.extra["blocks_loaded"] = (
        tally.extra.get("blocks_loaded", 0) + len(box[0].dag)
    )
    return box[0].state_digest() == expected


async def run(cfg) -> dict:
    scratch = common.make_scratch(NAME)
    sync = SyncRef(scratch / "ref.bin")
    setup_cal = Calibrator(sync=sync)
    source = None
    try:
        common.warm_up(scratch)
        setups = []
        for rep in range(cfg.setup_repeats):
            if source is not None:
                await source.stop()
            setup_cal.forget()
            chain, source, rng, seconds = await _setup(
                cfg, scratch, rep, setup_cal
            )
            setups.append(seconds)

        cal = Calibrator(sync=sync)
        tally = Tally()
        joins = cfg.count(JOINS)
        failed = 0
        with cfg.window(tally):
            window0 = time.perf_counter()
            for index in range(joins):
                ok = await _join(cfg, cal, chain, source, scratch, rng,
                                 index, tally)
                failed += 0 if ok else 1
            window_wall = time.perf_counter() - window0
        return cfg.result(
            NAME, tally, cal, setups=setups, window_wall_s=window_wall,
            attempted=joins, failed=failed,
        )
    finally:
        if source is not None:
            await source.stop()
        sync.close()
        common.drop_scratch(scratch)
