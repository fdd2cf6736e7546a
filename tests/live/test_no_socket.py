"""A live cluster on the in-memory runtime: two replicas, a gateway, and
no socket.

Every socket the event loop could open is refused for the whole test,
so a replica or a gateway that reached past its runtime fails here.
"""

import asyncio

import pytest

from repro.gateway import GatewayClient, GatewayNode
from repro.live import LiveNode, PeerSpec

from tests.live.memory_runtime import MemoryRuntime

QUIET = dict(interval_s=3600.0, fsync=False)


@pytest.fixture
def no_sockets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a socket was opened past the runtime")

    for name in ("create_server", "create_connection",
                 "create_datagram_endpoint"):
        monkeypatch.setattr(asyncio.base_events.BaseEventLoop, name, refuse)


def test_a_gateway_write_reaches_a_replica_with_no_socket(
        deployment, tmp_path, no_sockets):
    runtime = MemoryRuntime()

    async def scenario():
        replica = LiveNode(
            deployment.keys[0], tmp_path / "replica.blocks",
            genesis=deployment.genesis, name="replica", runtime=runtime,
            **QUIET,
        )
        edge = LiveNode(
            deployment.owner, tmp_path / "edge.blocks",
            genesis=deployment.genesis, name="edge", runtime=runtime,
            **QUIET,
        )
        gateway = GatewayNode([edge], runtime=runtime)
        arrived = asyncio.Event()
        origins = {}

        def on_block(block, origin):
            origins[block.hash] = origin
            arrived.set()

        replica.block_listener = on_block
        await replica.start()
        await gateway.start()
        client = GatewayClient("memory", gateway.http_port, runtime)
        try:
            edge.add_peer(PeerSpec("replica", "memory", replica.listen_port))
            while not edge.peer_manager.connected_peers():
                await asyncio.sleep(0.01)
            edge.node.create_crdt("ledger", "append_log", "str",
                                  {"append": "*"})
            edge._persist_blocks()
            status, _, reply = await client.request(
                "POST", "/v1/tx",
                body={"crdt": "ledger", "op": "append", "args": ["hi"]},
            )
            assert status == 200, reply
            assert reply["applied"] is True
            block = bytes.fromhex(reply["block"])
            while block not in {h.digest for h in origins}:
                arrived.clear()
                await asyncio.wait_for(arrived.wait(), 5.0)
            persisted = {h.digest: o for h, o in origins.items()}
            return block, persisted, replica.dag_digest(), edge.dag_digest()
        finally:
            await client.close()
            await gateway.stop()
            await replica.stop()

    block, persisted, replica_digest, edge_digest = asyncio.run(scenario())
    assert persisted[block] == "push:edge"
    assert replica_digest == edge_digest
    assert runtime.dials >= 2  # the peer link and the HTTP client
