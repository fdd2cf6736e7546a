#!/usr/bin/env python3
"""A live Vegvisir cluster on localhost: boot, partition, heal, converge.

Real TCP sockets, no simulator.  The script:

1. boots N nodes (default 3), each listening on a free localhost port
   and dialing every other node;
2. lets each node mint blocks and shows gossip spreading them;
3. partitions one node by killing its connections mid-flight, keeps
   minting on both sides of the cut;
4. heals the partition and shows every DAG converge to the same digest.

Exit code 0 iff the cluster converges (the CI smoke job runs this with
a hard timeout).

Run:  python examples/live_cluster.py [N]
"""

import asyncio
import pathlib
import sys
import tempfile

from repro import CertificateAuthority, KeyPair, create_genesis
from repro.live import LiveNode, PeerSpec

#: The whole run must finish well inside CI's 60 s budget.
DEADLINE_S = 55.0


def digests(nodes):
    return [node.dag_digest()[:12] for node in nodes]


async def await_convergence(nodes, deadline_s, expect_blocks=None):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + deadline_s
    while loop.time() < deadline:
        if len({node.dag_digest() for node in nodes}) == 1 and (
            expect_blocks is None
            or len(nodes[0].node.dag) >= expect_blocks
        ):
            return True
        await asyncio.sleep(0.05)
    return False


async def main(node_count: int) -> int:
    owner = KeyPair.deterministic(1)
    authority = CertificateAuthority(owner)
    keys = [KeyPair.deterministic(i + 2) for i in range(node_count)]
    genesis = create_genesis(
        owner, chain_name="live-demo", founding_members=[
            authority.issue(key.public_key, "sensor") for key in keys
        ],
    )

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="vegvisir-live-"))
    nodes = [
        LiveNode(
            key, workdir / f"node{i}.blocks", genesis=genesis,
            name=f"node{i}", interval_s=0.1,
            seed=i + 1,
        )
        for i, key in enumerate(keys)
    ]

    # --- 1. boot and mesh ------------------------------------------------
    for node in nodes:
        await node.start()
    for node in nodes:
        for other in nodes:
            if other is not node:
                node.add_peer(
                    PeerSpec(other.name, "127.0.0.1", other.listen_port)
                )
    print(f"booted {node_count} nodes on ports "
          f"{[node.listen_port for node in nodes]}")

    try:
        # --- 2. mint and gossip ------------------------------------------
        for node in nodes:
            node.append_transactions([])
        total = 1 + node_count
        if not await await_convergence(nodes, 20.0, expect_blocks=total):
            print("FAIL: initial gossip did not converge")
            return 1
        print(f"gossip converged: {total} blocks everywhere, "
              f"digest {nodes[0].dag_digest()[:12]}")

        # --- 3. partition: cut node0's links mid-flight ------------------
        victim = nodes[0]
        await victim.isolate()
        print(f"partitioned {victim.name} (connections killed)")
        victim.append_transactions([])
        for node in nodes[1:]:
            node.append_transactions([])
        if not await await_convergence(
            nodes[1:], 20.0, expect_blocks=total + node_count - 1
        ):
            print("FAIL: majority side did not converge during partition")
            return 1
        assert len({n.dag_digest() for n in nodes}) == 2
        print(f"during partition: {victim.name} holds "
              f"{len(victim.node.dag)} blocks, majority holds "
              f"{len(nodes[1].node.dag)}")

        # --- 4. heal and re-converge -------------------------------------
        victim.rejoin()
        print(f"healed partition, {victim.name} redialing...")
        if not await await_convergence(
            nodes, 25.0, expect_blocks=total + node_count
        ):
            print("FAIL: cluster did not re-converge after heal")
            return 1
        print(f"re-converged: all {node_count} nodes at "
              f"{len(nodes[0].node.dag)} blocks, digests {digests(nodes)}")
        assert len(set(digests(nodes))) == 1
        print("converged after heal: True")
        return 0
    finally:
        for node in nodes:
            await node.stop()


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    raise SystemExit(asyncio.run(asyncio.wait_for(main(count), DEADLINE_S)))
