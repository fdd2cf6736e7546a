"""Ablation A12 — the fast crypto & wire plane.

Three questions, one table each:

* **Primitives** — Ed25519 sign/s and verify/s per backend.  The
  ``cryptography`` backend (OpenSSL) must produce byte-identical
  signatures; the speed gap is what the feature flag buys.
* **Codec & framing** — canonical-wire encode/decode MB/s on a real
  block-push payload, and frame reassembly MB/s through
  :class:`~repro.wire.framing.FrameDecoder`.
* **End-to-end** — the A8 live workload (memory pipe) with **cold
  verification caches** per backend (a fresh peer's blocks have never
  been seen, which is exactly the regime the crypto plane targets), and
  the verified-block LRU ablation: one author's blocks fanned out to
  *n* in-process replicas with the shared cache vs. with per-node
  private caches.

Run with ``A12_FULL=1`` for the nightly sizes; the default is a PR-
smoke subset.  The acceptance thresholds (accelerated >= 10x live
blocks/s, shared LRU >= 1.5x on the pure backend) are asserted whenever
the accelerated backend is installed — the measured margins are an
order of magnitude wider.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro import wire
from repro.chain.validation import BlockValidator
from repro.chain.verifycache import VerifiedBlockCache, shared_cache
from repro.crypto import backend
from repro.crypto.keys import KeyPair
from repro.live.protocol import run_session, serve_connection
from repro.reconcile import FrontierProtocol
from repro.wire.framing import FrameDecoder, frame_header

from benchmarks.bench_util import Table, make_fleet
from tests.live.memory_runtime import stream_pair

FULL = os.environ.get("A12_FULL", "") not in ("", "0")

# (pure verify samples, accel verify samples, divergence, fanout nodes,
#  fanout blocks).  The live divergence stays at 64 even in smoke mode:
# smaller sessions are dominated by fixed event-loop setup, which
# understates the crypto gap the ablation exists to measure.
SIZES = (30, 2000, 64, 8, 40) if FULL else (8, 400, 64, 4, 12)
PURE_SAMPLES, ACCEL_SAMPLES, DIVERGENCE, FANOUT_NODES, FANOUT_BLOCKS = SIZES

ACCEL = "cryptography" in backend.available_backends()


def _cold_caches() -> None:
    backend.clear_memo()
    shared_cache().clear()


# -- primitives ------------------------------------------------------------


def _bench_primitives(table: Table) -> None:
    key = KeyPair.deterministic(1)
    messages = [f"a12 primitive {i}".encode() for i in range(ACCEL_SAMPLES)]
    signatures = {}

    for name in ("pure", "cryptography") if ACCEL else ("pure",):
        b = backend.get_backend(name)
        samples = PURE_SAMPLES if name == "pure" else ACCEL_SAMPLES

        start = time.perf_counter()
        signatures[name] = [
            b.sign(key.private_key, messages[i]) for i in range(samples)
        ]
        sign_wall = time.perf_counter() - start

        start = time.perf_counter()
        for i in range(samples):
            assert b.verify(key.public_key, messages[i],
                            signatures[name][i])
        verify_wall = time.perf_counter() - start

        table.add(name, "sign", samples,
                  int(samples / sign_wall) if sign_wall else "-")
        table.add(name, "verify", samples,
                  int(samples / verify_wall) if verify_wall else "-")

    if ACCEL:
        overlap = min(PURE_SAMPLES, ACCEL_SAMPLES)
        assert (signatures["pure"][:overlap]
                == signatures["cryptography"][:overlap]), (
            "backends must produce byte-identical signatures"
        )


# -- codec & framing -------------------------------------------------------


def _push_payload() -> bytes:
    """A realistic push_blocks message: a batch of signed blocks."""
    _, _, nodes, _ = make_fleet(1, seed=7)
    node = nodes[0]
    blocks = [node.append_transactions([]) for _ in range(50)]
    return wire.encode(
        {"type": "push_blocks", "blocks": [b.to_wire() for b in blocks]}
    )


def _bench_codec(table: Table) -> None:
    payload = _push_payload()
    value = wire.decode(payload)
    mb = len(payload) / 1e6
    rounds = 40 if FULL else 10

    start = time.perf_counter()
    for _ in range(rounds):
        encoded = wire.encode(value)
    encode_wall = time.perf_counter() - start
    assert encoded == payload

    start = time.perf_counter()
    for _ in range(rounds):
        wire.decode(payload)
    decode_wall = time.perf_counter() - start

    # Frame reassembly: many frames, fed in socket-sized chunks.
    frames = b"".join(
        frame_header(len(payload)) + payload for _ in range(rounds)
    )
    start = time.perf_counter()
    decoder = FrameDecoder()
    count = 0
    for offset in range(0, len(frames), 64 * 1024):
        count += len(decoder.feed(frames[offset:offset + 64 * 1024]))
    frame_wall = time.perf_counter() - start
    assert count == rounds and decoder.buffered == 0

    table.add("encode", round(mb * 1000, 1), rounds,
              round(rounds * mb / encode_wall, 1))
    table.add("decode", round(mb * 1000, 1), rounds,
              round(rounds * mb / decode_wall, 1))
    table.add("frame-decode", round(mb * 1000, 1), rounds,
              round(len(frames) / 1e6 / frame_wall, 1))


# -- end-to-end live sessions ----------------------------------------------


FANIN_AUTHORS = 8
FANIN_CHAIN = DIVERGENCE * 2 // FANIN_AUTHORS  # 128 blocks end to end


def _fanin_pair(seed: int):
    """A gossip fan-in: 8 author chains collected by one hub peer.

    ``left`` holds every author's chain; ``right`` is a fresh peer at
    genesis.  One live session then bulk-pushes all 128 blocks — the
    DAG levels are 8 wide, so the merge engine sees real verify
    batches instead of a one-block-per-round linear walk.
    """
    _, genesis, nodes, clock = make_fleet(FANIN_AUTHORS + 2, seed=seed)
    left, right = nodes[0], nodes[1]
    for author in nodes[2:]:
        for _ in range(FANIN_CHAIN):
            left.receive_block(author.append_transactions([]))
    return left, right


def _run_live_cold(name: str, seed: int) -> tuple[int, float]:
    """One live frontier session under backend *name*, cold caches.

    The pair is built under the fastest available backend (signatures
    are byte-identical, so the artifact is the same), then every
    verification cache is dropped and the session runs under the
    backend being measured — the fresh-peer worst case, where every
    transferred block pays full verification.
    """
    backend.set_backend("cryptography" if ACCEL else "pure")
    left, right = _fanin_pair(seed)
    backend.set_backend(name)
    protocol = FrontierProtocol()

    async def scenario():
        init_end, resp_end = stream_pair()
        server = asyncio.ensure_future(serve_connection(right, resp_end))
        stats = await run_session(protocol, left, init_end)
        await init_end.close()
        await server
        return stats

    _cold_caches()
    start = time.perf_counter()
    stats = asyncio.run(scenario())
    wall_s = time.perf_counter() - start
    assert stats.converged
    assert left.state_digest() == right.state_digest()
    return stats.blocks_pulled + stats.blocks_pushed, wall_s


def _bench_live(table: Table) -> dict:
    rates = {}
    previous = backend.active()
    reps = 3  # best-of: one noisy scheduler stall must not gate CI
    try:
        for name in ("pure", "cryptography") if ACCEL else ("pure",):
            best = None
            for _ in range(reps):
                moved, wall_s = _run_live_cold(name, seed=DIVERGENCE)
                if best is None or wall_s < best[1]:
                    best = (moved, wall_s)
            moved, wall_s = best
            rate = moved / wall_s if wall_s else 0.0
            rates[name] = rate
            table.add(name, moved, round(wall_s * 1000, 1), int(rate))
    finally:
        backend.set_backend(previous)
    if ACCEL:
        speedup = rates["cryptography"] / rates["pure"]
        table.add("speedup", "-", "-", f"{speedup:.1f}x")
        assert speedup >= 10.0, (
            f"accelerated backend only {speedup:.1f}x pure on the live "
            "workload (need >= 10x)"
        )
    return rates


# -- verified-block LRU ablation -------------------------------------------


def _fanout_wall(share_cache: bool) -> float:
    """Wall seconds to fan one author's blocks out to n replicas.

    ``share_cache=False`` gives every replica a private verdict cache —
    the pre-LRU world, where a block gossiped to n peers in one process
    is verified n times.
    """
    _, genesis, nodes, clock = make_fleet(FANOUT_NODES + 1, seed=21)
    author, receivers = nodes[0], nodes[1:]
    blocks = [author.append_transactions([]) for _ in range(FANOUT_BLOCKS)]
    if not share_cache:
        for node in receivers:
            node.validator = BlockValidator(
                node.dag, node.csm.resolve_member,
                verify_cache=VerifiedBlockCache(),
            )
    _cold_caches()
    start = time.perf_counter()
    for node in receivers:
        for block in blocks:
            node.receive_block(block)
    return time.perf_counter() - start


def _bench_lru(table: Table) -> float:
    previous = backend.active()
    try:
        backend.set_backend("pure")
        private_wall = _fanout_wall(share_cache=False)
        shared_wall = _fanout_wall(share_cache=True)
    finally:
        backend.set_backend(previous)
    speedup = private_wall / shared_wall if shared_wall else 0.0
    table.add("private-per-node", FANOUT_NODES, FANOUT_BLOCKS,
              round(private_wall * 1000, 1), "1.0x")
    table.add("shared-lru", FANOUT_NODES, FANOUT_BLOCKS,
              round(shared_wall * 1000, 1), f"{speedup:.1f}x")
    assert speedup >= 1.5, (
        f"shared verified-block LRU only {speedup:.2f}x over private "
        "caches on the pure backend (need >= 1.5x)"
    )
    return speedup


def test_a12_crypto_wire(benchmark, results_dir):
    primitives = Table(
        "A12.1: Ed25519 primitives per backend",
        ["backend", "op", "samples", "ops/s"],
    )
    _bench_primitives(primitives)
    primitives.emit(results_dir, "a12_primitives")

    codec = Table(
        "A12.2: canonical wire codec & framing "
        "(50-block push payload)",
        ["op", "payload_kB", "rounds", "MB/s"],
    )
    _bench_codec(codec)
    codec.emit(results_dir, "a12_codec")

    live = Table(
        "A12.3: live frontier session to a fresh peer, cold "
        f"verification caches ({FANIN_AUTHORS} author chains x "
        f"{FANIN_CHAIN} blocks)",
        ["backend", "blocks", "wall_ms", "blocks/s"],
    )
    _bench_live(live)
    live.emit(results_dir, "a12_live_backends")

    lru = Table(
        "A12.4: verified-block LRU ablation, pure backend "
        f"({FANOUT_BLOCKS} blocks x {FANOUT_NODES} replicas)",
        ["cache", "replicas", "blocks", "wall_ms", "speedup"],
    )
    _bench_lru(lru)
    lru.emit(results_dir, "a12_lru")

    def kernel():
        payload = wire.encode({"k": [i for i in range(64)]})
        wire.decode(payload)

    benchmark(kernel)
