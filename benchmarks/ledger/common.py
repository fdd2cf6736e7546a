"""Pieces the live workloads share: chains, stores, meshes, tallies."""

from __future__ import annotations

import asyncio
import os
import pathlib
import random
import shutil
import statistics
import tempfile
import time
from typing import Iterable, Optional, Sequence

from repro.chain.block import Transaction
from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.crypto import backend as crypto_backend
from repro.crypto.keys import KeyPair
from repro.live.node import LiveNode
from repro.live.peers import PeerSpec
from repro.membership.authority import CertificateAuthority
from repro.storage.blockstore import BlockStore

from benchmarks.ledger.calibrate import Calibrator

LEDGER_CRDT = "ledger"
#: Blocks per pre-population slice.
PREPOPULATE_SLICE = 500
#: Appends per write slice (~45 ms of sign, validate, apply, fsync).
APPEND_SLICE = 50
#: Sampler spacing inside CPU-bound awaited calls (sessions).
SESSION_SAMPLE_S = 0.100
POLL_S = 0.002
STOP_TIMEOUT_S = 3.0

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


class WorkloadFailure(Exception):
    """A correctness check of the benchmark itself did not hold."""


def pin_backend() -> str:
    """Select the OpenSSL backend or die: a silent fall-back to the pure
    backend is a 15x shift that would read as a regression."""
    try:
        return crypto_backend.set_backend(crypto_backend.CRYPTOGRAPHY).name
    except crypto_backend.BackendUnavailable as exc:
        raise SystemExit(
            f"error: the ledger needs the 'cryptography' backend: {exc}"
        )


def warm_up(scratch: pathlib.Path) -> None:
    """Untimed: backend load, one sign/verify, one temp-file fsync."""
    key = KeyPair.deterministic(1)
    signature = key.sign(b"warm-up")
    if not crypto_backend.verify(key.public_key, b"warm-up", signature):
        raise WorkloadFailure("warm-up signature did not verify")
    path = scratch / "warmup.bin"
    with path.open("wb") as handle:
        handle.write(b"x" * 4096)
        handle.flush()
        os.fsync(handle.fileno())
    path.unlink()


def make_scratch(workload: str) -> pathlib.Path:
    """A fresh directory inside the checkout (the contract allows reads
    and writes nowhere else)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))


def drop_scratch(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def payload_tx(rng: random.Random) -> Transaction:
    """One ledger append of 16 to 48 seed-drawn hex characters."""
    size = rng.randrange(16, 49)
    return Transaction(
        LEDGER_CRDT, "append", [f"{rng.getrandbits(4 * size):0{size}x}"]
    )


class Chain:
    """Owner, member keys, genesis, and an on-disk shared history."""

    def __init__(self, seed: int, members: int):
        base = (seed + 1) * 1_000_003
        self.owner = KeyPair.deterministic(base)
        authority = CertificateAuthority(self.owner)
        self.keys = [
            KeyPair.deterministic(base + 1 + index) for index in range(members)
        ]
        self.genesis = create_genesis(
            self.owner, chain_name="ledger", timestamp=0,
            founding_members=[
                authority.issue(key.public_key, "sensor", issued_at=0)
                for key in self.keys
            ],
        )
        self.history_path: Optional[pathlib.Path] = None
        self.history_blocks = 0

    def build_history(self, cal: Calibrator, path: pathlib.Path, blocks: int,
                      rng: random.Random, author: int = 0) -> float:
        """Append *blocks* one-transaction blocks by one author on top of
        the ledger CRDT's creation, write them to *path*; returns the
        calibrated seconds it took (sliced every 500 blocks)."""
        clock = iter(range(1_000, 10**12, 10))
        node = VegvisirNode(self.keys[author], self.genesis,
                            clock=lambda: next(clock))
        total = 0.0

        def create() -> None:
            node.create_crdt(LEDGER_CRDT, "append_log", "str",
                             {"append": "*"})

        def chunk(count: int):
            def work() -> None:
                for _ in range(count):
                    node.append_transactions([payload_tx(rng)])
            return work

        total += cal.run_slice(create).cal_wall_s
        remaining = blocks - 1
        while remaining > 0:
            count = min(PREPOPULATE_SLICE, remaining)
            total += cal.run_slice(chunk(count)).cal_wall_s
            remaining -= count

        def save() -> None:
            with BlockStore(path, fsync=False) as store:
                store.append_all(node.dag.blocks())

        total += cal.run_slice(save).cal_wall_s
        self.history_path = path
        self.history_blocks = len(node.dag)
        return total

    def restart_copy(self, path: pathlib.Path) -> pathlib.Path:
        """A private copy of the history file for one replica."""
        shutil.copyfile(self.history_path, path)
        return path


async def start_mesh(nodes: Sequence[LiveNode]) -> None:
    for node in nodes:
        await node.start()
    await connect_mesh(nodes)


async def connect_mesh(nodes: Sequence[LiveNode]) -> None:
    """Every listener is up before the first dial, then wait for
    readiness: no dial meets a closed port, so no backoff sleep lands
    inside the clock."""
    for node in nodes:
        for other in nodes:
            if other is not node:
                node.add_peer(
                    PeerSpec(other.name, "127.0.0.1", other.listen_port)
                )
    await wait_connected(nodes)


async def wait_connected(nodes: Sequence[LiveNode],
                         want: Optional[int] = None,
                         timeout_s: float = 10.0) -> None:
    """Until every node holds *want* outbound connections (default: one
    to each of the others), polling every 2 ms."""
    if want is None:
        want = len(nodes) - 1
    deadline = time.perf_counter() + timeout_s
    while any(len(n.peer_manager.connected_peers()) < want for n in nodes):
        if time.perf_counter() > deadline:
            raise WorkloadFailure("mesh did not connect within the timeout")
        await asyncio.sleep(POLL_S)


async def wait_until(predicate, timeout_s: float, poll_s: float = 0.0) -> bool:
    deadline = time.perf_counter() + timeout_s
    while not predicate():
        if time.perf_counter() > deadline:
            return False
        await asyncio.sleep(poll_s)
    return True


async def stop_all(nodes: Iterable) -> None:
    """``stop()`` each of *nodes* (live nodes or gateways), with a
    deadline.  On Python 3.11 a ``stop()`` that lands while a gossip
    session's ``wait_for`` is returning loses its cancellation and then
    awaits the gossip loop forever (seen about once in ten teardowns of
    ``edge_steady``).  Timing the stuck ``stop()`` out cancels the loop
    a second time — it is asleep by then — and ``stop()`` runs to its
    end, which is the result ``wait_for`` hands back."""
    for node in nodes:
        await asyncio.wait_for(node.stop(), STOP_TIMEOUT_S)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Arrivals:
    """Per-replica first-persist times of blocks, via ``block_listener``."""

    def __init__(self, clock=time.perf_counter):
        self.seen: dict = {}
        self._clock = clock

    def listener(self, replica: str, also=None):
        def on_block(block, origin: str) -> None:
            self.seen.setdefault(block.hash, {})[replica] = (
                self._clock(), origin
            )
            if also is not None:
                also(block, origin)
        return on_block
