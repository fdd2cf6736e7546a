"""The live discovery service: real UDP multicast on loopback.

Each test uses its own multicast group/port pair (derived from the
process id) so parallel CI shards never cross-talk.
"""

import asyncio
import os
import socket

import pytest

from repro import CertificateAuthority, KeyPair, create_genesis
from repro.discovery import DiscoveryConfig, encode_beacon, frontier_digest
from repro.live import LiveNode
from repro.runtime import SYSTEM, ListenError

_PORT_BASE = 30_000 + (os.getpid() % 10_000)
_counter = [0]


def _endpoint():
    """A fresh (group, port) pair for one test."""
    _counter[0] += 1
    return (
        f"239.86.{1 + _counter[0] % 200}.{1 + os.getpid() % 200}",
        _PORT_BASE + _counter[0],
    )


def _config(group, port, **kwargs):
    kwargs.setdefault("beacon_interval_s", 0.1)
    kwargs.setdefault("ttl_s", 0.4)
    kwargs.setdefault("expiry_s", 0.9)
    return DiscoveryConfig(group=group, port=port, **kwargs)


def _fleet(tmp_path, count=3):
    owner = KeyPair.deterministic(1)
    authority = CertificateAuthority(owner)
    keys = [KeyPair.deterministic(index + 2) for index in range(count)]
    genesis = create_genesis(
        owner, chain_name="svc", founding_members=[
            authority.issue(key.public_key, "sensor") for key in keys
        ],
    )
    return keys, genesis


def _node(tmp_path, keys, genesis, index, group, port, **kwargs):
    return LiveNode(
        keys[index], tmp_path / f"node{index}.blocks", genesis=genesis,
        name=f"n{index}", interval_s=0.08,
        seed=index + 1, fsync=False,
        discovery=_config(group, port, **kwargs),
    )


async def _await(predicate, timeout_s=15.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.03)
    return False


class TestZeroConfigCluster:
    def test_three_nodes_discover_and_converge(self, tmp_path):
        group, port = _endpoint()
        keys, genesis = _fleet(tmp_path)

        async def scenario():
            nodes = [
                _node(tmp_path, keys, genesis, index, group, port)
                for index in range(3)
            ]
            for node in nodes:
                await node.start()
            try:
                assert await _await(
                    lambda: all(
                        len(node.discovery.directory) == 2
                        for node in nodes
                    )
                ), "directories never filled"
                for node in nodes:
                    node.append_transactions([])
                assert await _await(
                    lambda: len({n.dag_digest() for n in nodes}) == 1
                    and len(nodes[0].node.dag) >= 4
                ), "DAGs never converged"
                # The tie-break holds: every discovered pair has
                # exactly one dialer.
                dialers = sum(
                    len(node.peer_manager.dynamic_peers())
                    for node in nodes
                )
                assert dialers == 3  # one per pair of 3 nodes
            finally:
                for node in nodes:
                    await node.stop()

        asyncio.run(scenario())

    def test_leave_expires_and_rejoin_reconverges(self, tmp_path):
        group, port = _endpoint()
        keys, genesis = _fleet(tmp_path)

        async def scenario():
            nodes = [
                _node(tmp_path, keys, genesis, index, group, port)
                for index in range(3)
            ]
            for node in nodes:
                await node.start()
            try:
                assert await _await(
                    lambda: all(
                        len(n.discovery.directory) == 2 for n in nodes
                    )
                )
                # --- leave: beacons stop, the others expire the entry.
                await nodes[2].stop()
                assert await _await(
                    lambda: all(
                        len(n.discovery.directory) == 1
                        for n in nodes[:2]
                    )
                ), "silent node never expired"
                assert any(
                    event.kind == "expired"
                    for event in nodes[0].discovery.directory.events
                )
                # --- rejoin: same identity, fresh epoch, new blocks.
                nodes[2] = _node(tmp_path, keys, genesis, 2, group, port)
                await nodes[2].start()
                nodes[0].append_transactions([])
                assert await _await(
                    lambda: len({n.dag_digest() for n in nodes}) == 1
                    and len(nodes[2].node.dag) >= 2
                ), "cluster did not re-converge after rejoin"
                assert any(
                    event.kind == "rejoined"
                    for event in nodes[0].discovery.directory.events
                )
            finally:
                for node in nodes:
                    await node.stop()

        asyncio.run(scenario())


class TestRejectionAccounting:
    def test_foreign_chain_beacons_counted_never_dialed(self, tmp_path):
        group, port = _endpoint()
        keys, genesis = _fleet(tmp_path)

        async def scenario():
            node = _node(tmp_path, keys, genesis, 0, group, port)
            await node.start()
            try:
                # A stranger on a different blockchain beacons into the
                # same group.
                stranger = KeyPair.deterministic(400)
                foreign_genesis = create_genesis(
                    stranger, chain_name="foreign"
                )
                from repro.core.node import VegvisirNode

                foreign = VegvisirNode(stranger, foreign_genesis)
                datagram = encode_beacon(
                    stranger, foreign.chain_id, 9, "intruder",
                    frontier_digest(foreign), 1, 1,
                )
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sender.setsockopt(
                    socket.IPPROTO_IP, socket.IP_MULTICAST_IF,
                    socket.inet_aton("127.0.0.1"),
                )
                sender.setsockopt(
                    socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1
                )
                for _ in range(3):
                    sender.sendto(datagram, (group, port))
                    sender.sendto(b"garbage datagram", (group, port))
                    await asyncio.sleep(0.05)
                sender.close()
                directory = node.discovery.directory
                assert await _await(
                    lambda: directory.rejections["foreign_chain"] >= 3
                    and directory.rejections["malformed"] >= 3
                ), "rejections never counted"
                assert len(directory) == 0
                assert node.peer_manager.dynamic_peers() == []
            finally:
                await node.stop()

        asyncio.run(scenario())

    def test_own_beacons_rejected_as_self(self, tmp_path):
        group, port = _endpoint()
        keys, genesis = _fleet(tmp_path)

        async def scenario():
            node = _node(tmp_path, keys, genesis, 0, group, port)
            await node.start()
            try:
                directory = node.discovery.directory
                assert await _await(
                    lambda: directory.rejections["self"] >= 2
                ), "multicast loopback never echoed our beacons"
                assert len(directory) == 0
            finally:
                await node.stop()

        asyncio.run(scenario())


class TestServiceLifecycle:
    def test_stop_leaves_no_tasks_behind(self, tmp_path):
        group, port = _endpoint()
        keys, genesis = _fleet(tmp_path)

        async def scenario():
            baseline = len(asyncio.all_tasks())
            nodes = [
                _node(tmp_path, keys, genesis, index, group, port)
                for index in range(2)
            ]
            for node in nodes:
                await node.start()
            await _await(
                lambda: all(len(n.discovery.directory) == 1 for n in nodes)
            )
            for node in nodes:
                await node.stop()
            await asyncio.sleep(0.05)
            assert len(asyncio.all_tasks()) == baseline

        asyncio.run(scenario())

    def test_beacons_carry_monotonic_epochs_across_restarts(
        self, tmp_path
    ):
        group, port = _endpoint()
        keys, genesis = _fleet(tmp_path)

        async def scenario():
            node = _node(tmp_path, keys, genesis, 0, group, port)
            await node.start()
            first_epoch = node.discovery.epoch
            await node.stop()
            node = _node(tmp_path, keys, genesis, 0, group, port)
            await node.start()
            second_epoch = node.discovery.epoch
            await node.stop()
            assert second_epoch > first_epoch

        asyncio.run(scenario())

    def test_bad_group_raises_listen_error(self):
        with pytest.raises(ListenError):
            asyncio.run(SYSTEM.multicast(
                asyncio.DatagramProtocol, "not-a-group", 47474
            ))

    def test_discovery_config_validates_interval(self):
        with pytest.raises(ValueError):
            DiscoveryConfig(beacon_interval_s=0)
