#!/usr/bin/env python3
"""A zero-configuration Vegvisir cluster: no peer lists, only beacons.

Real UDP multicast and TCP sockets, no simulator.  Every node boots
knowing nothing but its own key and the shared genesis block — no
``--peer`` addresses at all.  The script:

1. boots 3 nodes that announce themselves over signed multicast
   beacons and build their peer directories from what they hear;
2. shows each discovered pair establish exactly one TCP connection
   (the lower node id dials) and the DAGs converge;
3. stops one node: its beacons cease and the survivors' directories
   expire it;
4. restarts it (same key, same store) and shows it rejoin with a
   fresh epoch and the cluster re-converge.

Exit code 0 iff every phase succeeds (the CI smoke job runs this with
a hard timeout).

Run:  python examples/discovery_cluster.py
"""

import asyncio
import os
import pathlib
import tempfile

from repro import CertificateAuthority, KeyPair, create_genesis
from repro.discovery import DiscoveryConfig
from repro.live import LiveNode

DEADLINE_S = 55.0
NODE_COUNT = 3

#: A group/port of our own so concurrent runs never cross-talk.
GROUP = f"239.86.90.{1 + os.getpid() % 200}"
PORT = 28_000 + os.getpid() % 10_000


def make_node(workdir, keys, genesis, index):
    return LiveNode(
        keys[index], workdir / f"node{index}.blocks", genesis=genesis,
        name=f"node{index}", interval_s=0.1,
        seed=index + 1,
        discovery=DiscoveryConfig(
            group=GROUP, port=PORT,
            beacon_interval_s=0.2, ttl_s=0.8, expiry_s=1.6,
        ),
    )


async def await_condition(predicate, deadline_s):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + deadline_s
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.05)
    return False


async def main() -> int:
    owner = KeyPair.deterministic(1)
    authority = CertificateAuthority(owner)
    keys = [KeyPair.deterministic(i + 2) for i in range(NODE_COUNT)]
    genesis = create_genesis(
        owner, chain_name="discovery-demo", founding_members=[
            authority.issue(key.public_key, "sensor") for key in keys
        ],
    )
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="vegvisir-discover-"))
    nodes = [
        make_node(workdir, keys, genesis, index)
        for index in range(NODE_COUNT)
    ]

    # --- 1. boot with empty peer lists -----------------------------------
    for node in nodes:
        await node.start()
    print(f"booted {NODE_COUNT} nodes with ZERO configured peers, "
          f"beaconing on {GROUP}:{PORT}")

    try:
        # --- 2. discover and converge ------------------------------------
        if not await await_condition(
            lambda: all(
                len(node.discovery.directory) == NODE_COUNT - 1
                for node in nodes
            ), 15.0,
        ):
            print("FAIL: directories never filled")
            return 1
        print("every directory full: each node heard "
              f"{NODE_COUNT - 1} signed beacons")
        for node in nodes:
            node.append_transactions([])
        if not await await_condition(
            lambda: len({n.dag_digest() for n in nodes}) == 1
            and len(nodes[0].node.dag) >= 1 + NODE_COUNT, 20.0,
        ):
            print("FAIL: discovered cluster did not converge")
            return 1
        dialers = sum(
            len(node.peer_manager.dynamic_peers()) for node in nodes
        )
        print(f"converged: {len(nodes[0].node.dag)} blocks everywhere, "
              f"digest {nodes[0].dag_digest()[:12]}, "
              f"{dialers} dial edges for {NODE_COUNT} pairs")

        # --- 3. leave: beacons stop, survivors expire the entry ----------
        await nodes[2].stop()
        print(f"stopped {nodes[2].name}: beacons ceased")
        if not await await_condition(
            lambda: all(
                len(node.discovery.directory) == NODE_COUNT - 2
                for node in nodes[:2]
            ), 10.0,
        ):
            print("FAIL: survivors never expired the silent node")
            return 1
        print("survivors expired it from their directories")

        # --- 4. rejoin: same key and store, fresh epoch ------------------
        nodes[2] = make_node(workdir, keys, genesis, 2)
        await nodes[2].start()
        nodes[0].append_transactions([])
        if not await await_condition(
            lambda: len({n.dag_digest() for n in nodes}) == 1
            and len(nodes[2].node.dag) >= 2 + NODE_COUNT, 20.0,
        ):
            print("FAIL: cluster did not re-converge after rejoin")
            return 1
        rejoins = [
            event.kind
            for event in nodes[0].discovery.directory.events
            if event.kind == "rejoined"
        ]
        print(f"rejoined (epoch bumped, {len(rejoins)} rejoin event) "
              f"and re-converged at {len(nodes[0].node.dag)} blocks")
        return 0
    finally:
        for node in nodes:
            await node.stop()


if __name__ == "__main__":
    raise SystemExit(
        asyncio.run(asyncio.wait_for(main(), DEADLINE_S))
    )
