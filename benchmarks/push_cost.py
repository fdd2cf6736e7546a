"""What a pushed write costs: CPU, pushes and bytes per remote delivery.

Three ``LiveNode``\\ s (G, R1, R2) on one event loop over loopback, on
program defaults (fsync on) except the anti-entropy timer, which is
parked (``interval_s=3600``): every block that reaches a replica after
the start was pushed.  G dials R1 and R2 and knows neither frontier;
then G appends one empty block every ``--period-ms`` until it has
written ``--blocks``, and the run waits until R1 and R2 hold them all.
The first append converges each link with one full session (a pull,
then a push), and every later one is a plain push.

The crypto backend is ``cryptography``, as in the perf ledger.
Printed, over that window: the process's CPU per remote delivery (user
and system time, ``getrusage``), the number of pushes G made, the bytes
of the sessions per remote delivery (both directions, from the
``session.completed`` events, the two first sessions included), and a
block's delivery time (append on G to its arrival on the later of R1
and R2): the p50, and the first block's, which rides those sessions.
Usage::

    PYTHONPATH=src python benchmarks/push_cost.py [--blocks 200] \\
        [--period-ms 30] [--seed 1]
"""

from __future__ import annotations

import argparse
import asyncio
import resource
import statistics
import tempfile
import time
from pathlib import Path

from repro.core.genesis import create_genesis
from repro.crypto import backend as crypto_backend
from repro.crypto.keys import KeyPair
from repro.live import LiveNode, PeerSpec
from repro.membership.authority import CertificateAuthority
from repro.obs import Observability

NAMES = ("G", "R1", "R2")
PARKED_S = 3600.0
TIMEOUT_S = 30.0


class SessionLog:
    """Keeps the fields of every ``session.completed`` event."""

    def __init__(self):
        self.completed: list[dict] = []

    def write(self, event) -> None:
        if event.type == "session.completed":
            self.completed.append(event.fields)

    def close(self) -> None:
        pass


async def _until(predicate, timeout_s: float = TIMEOUT_S) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError("timed out")
        await asyncio.sleep(0.002)


async def measure(blocks: int, period_s: float, seed: int,
                  scratch: Path) -> dict:
    owner = KeyPair.deterministic(seed * 10)
    authority = CertificateAuthority(owner)
    keys = [KeyPair.deterministic(seed * 10 + 1 + i) for i in range(3)]
    genesis = create_genesis(
        owner, chain_name="push-cost", timestamp=0,
        founding_members=[
            authority.issue(key.public_key, "sensor", issued_at=0)
            for key in keys
        ],
    )
    log = SessionLog()
    obs = Observability(enabled=True, sinks=[log])
    nodes = [
        LiveNode(key, scratch / f"{name}.blocks", genesis=genesis,
                 name=name, interval_s=PARKED_S, seed=seed + i, obs=obs)
        for i, (key, name) in enumerate(zip(keys, NAMES))
    ]
    g, replicas = nodes[0], nodes[1:]
    arrived: dict = {}
    for replica in replicas:
        replica.block_listener = (
            lambda block, _origin, name=replica.name:
            arrived.setdefault(block.hash, {}).setdefault(
                name, time.monotonic()
            )
        )
    for node in nodes:
        await node.start()
    try:
        for replica in replicas:
            g.add_peer(PeerSpec(replica.name, "127.0.0.1",
                                replica.listen_port))
        await _until(lambda: len(g.peer_manager.connected_peers()) == 2)

        written: dict = {}
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.monotonic()
        for index in range(blocks):
            await asyncio.sleep(
                max(0.0, start + index * period_s - time.monotonic())
            )
            written[g.append_transactions([]).hash] = time.monotonic()
        await _until(lambda: all(
            len(arrived.get(h, ())) == len(replicas) for h in written
        ))
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        if g.antientropy.sessions_completed - g.antientropy.pushes != 2:
            raise RuntimeError("the first append did not converge each link")
    finally:
        for node in nodes:
            await node.stop()

    deliveries = blocks * len(replicas)
    session_bytes = sum(
        fields["bytes_i2r"] + fields["bytes_r2i"] for fields in log.completed
    )
    deliver_ms = [
        1000.0 * (max(arrived[h].values()) - at) for h, at in written.items()
    ]
    return {
        "blocks": blocks,
        "period_ms": period_s * 1000.0,
        "remote_deliveries": deliveries,
        "cpu_ms_per_delivery": 1000.0 * (
            usage1.ru_utime - usage0.ru_utime
            + usage1.ru_stime - usage0.ru_stime
        ) / deliveries,
        "utime_ms_per_delivery":
            1000.0 * (usage1.ru_utime - usage0.ru_utime) / deliveries,
        "stime_ms_per_delivery":
            1000.0 * (usage1.ru_stime - usage0.ru_stime) / deliveries,
        "pushes": g.antientropy.pushes,
        "bytes_per_delivery": session_bytes / deliveries,
        "deliver_p50_ms": statistics.median(deliver_ms),
        "first_deliver_ms": deliver_ms[0],
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--blocks", type=int, default=200)
    parser.add_argument("--period-ms", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    # The OpenSSL backend, as the perf ledger pins it: the pure one
    # would bury the push in signing.
    crypto_backend.set_backend(crypto_backend.CRYPTOGRAPHY)
    with tempfile.TemporaryDirectory(prefix="push-cost-") as scratch:
        result = asyncio.run(measure(
            args.blocks, args.period_ms / 1000.0, args.seed, Path(scratch)
        ))
    for key, value in result.items():
        print(f"{key:24} {value:.3f}" if isinstance(value, float)
              else f"{key:24} {value}")


if __name__ == "__main__":
    main()
