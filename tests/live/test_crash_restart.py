"""Crash/restart at the live layer: a node killed mid-reconciliation
must recover exactly its on-disk prefix and re-converge after restart.

The "crash" is as abrupt as an in-process test can make it: every task
is cancelled and every socket dropped with no graceful stop and no
final persistence pass.  Durability comes solely from the per-merge
append+fsync discipline, so whatever instant the kill lands on, the
store holds a valid parent-closed prefix of the replica.
"""

import asyncio

import pytest

from repro.core.genesis import create_genesis
from repro.live import LiveNode, PeerSpec
from repro.storage import BlockStore, load_node, save_node

from tests.conftest import Deployment

FAST = dict(interval_s=0.02, session_timeout_s=5.0)


async def _crash(node):
    """Kill a LiveNode without any graceful shutdown path."""
    if node._loop_task is not None:
        # As LiveNode.stop() does: a tick may swallow the cancel, and
        # only the flag then ends the loop.  It persists nothing.
        node.antientropy.stop()
        node._loop_task.cancel()
        # A gossip task that outlives its cancel is a failure, not a hang.
        await asyncio.wait([node._loop_task], timeout=5.0)
        assert node._loop_task.done()
        if not node._loop_task.cancelled():
            node._loop_task.result()  # what killed it, if anything did
        node._loop_task = None
    await node.peer_manager.stop()
    # Note: no node._persist_blocks() — only what the merge hooks
    # already fsynced survives, exactly like a power cut.
    node.store.close()


class TestCrashRestart:
    def test_killed_node_recovers_prefix_and_reconverges(self, tmp_path):
        deployment = Deployment()

        async def scenario():
            provider = LiveNode(
                deployment.keys[0], tmp_path / "provider.blocks",
                genesis=deployment.genesis, name="provider", seed=1, **FAST,
            )
            victim = LiveNode(
                deployment.keys[1], tmp_path / "victim.blocks",
                genesis=deployment.genesis, name="victim", seed=2, **FAST,
            )
            await provider.start()
            await victim.start()
            victim.add_peer(
                PeerSpec("provider", "127.0.0.1", provider.listen_port)
            )

            # The provider keeps minting while the victim syncs, so the
            # kill lands between merges of an ongoing reconciliation.
            async def mint():
                for _ in range(400):
                    provider.append_transactions([])
                    await asyncio.sleep(0.005)

            minter = asyncio.ensure_future(mint())
            deadline = asyncio.get_running_loop().time() + 10.0
            while len(victim.node.dag) < 10:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)
            held_at_crash = set(victim.node.dag.hashes())
            await _crash(victim)
            minter.cancel()
            try:
                await minter
            except asyncio.CancelledError:
                pass

            # 1. The on-disk store is exactly the killed replica's DAG
            #    (every merge was persisted before the next round), and
            #    it passes full validation — parent closure included.
            recovered = load_node(
                deployment.keys[1], tmp_path / "victim.blocks"
            )
            assert set(recovered.dag.hashes()) == held_at_crash
            store = BlockStore(tmp_path / "victim.blocks")
            assert store.count() == len(held_at_crash)
            store.close()

            # 2. Restart from the same directory: the reborn node picks
            #    up precisely where the store left off...
            reborn = LiveNode(
                deployment.keys[1], tmp_path / "victim.blocks",
                name="victim", seed=3, **FAST,
            )
            assert set(reborn.node.dag.hashes()) == held_at_crash
            await reborn.start()
            reborn.add_peer(
                PeerSpec("provider", "127.0.0.1", provider.listen_port)
            )

            # ...and re-converges with the provider.
            deadline = asyncio.get_running_loop().time() + 20.0
            while asyncio.get_running_loop().time() < deadline:
                if reborn.dag_digest() == provider.dag_digest():
                    break
                await asyncio.sleep(0.05)
            assert reborn.dag_digest() == provider.dag_digest()
            assert len(reborn.node.dag) > len(held_at_crash)
            await reborn.stop()
            await provider.stop()

        asyncio.run(scenario())

    def test_repeated_crashes_never_corrupt_the_store(self, tmp_path):
        deployment = Deployment()

        async def scenario():
            provider = LiveNode(
                deployment.keys[0], tmp_path / "p.blocks",
                genesis=deployment.genesis, name="p", seed=1, **FAST,
            )
            await provider.start()
            for _ in range(40):
                provider.append_transactions([])

            grown = []
            for generation in range(3):
                victim = LiveNode(
                    deployment.keys[1], tmp_path / "v.blocks",
                    genesis=deployment.genesis, name="v",
                    seed=10 + generation, **FAST,
                )
                await victim.start()
                victim.add_peer(
                    PeerSpec("p", "127.0.0.1", provider.listen_port)
                )
                target = min(41, 10 * (generation + 1))
                deadline = asyncio.get_running_loop().time() + 10.0
                while (
                    len(victim.node.dag) < target
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.005)
                await _crash(victim)
                # Every generation must reload cleanly and monotonically
                # extend the previous one's prefix.
                recovered = load_node(
                    deployment.keys[1], tmp_path / "v.blocks"
                )
                grown.append(set(recovered.dag.hashes()))

            await provider.stop()
            for earlier, later in zip(grown, grown[1:]):
                assert earlier <= later

        asyncio.run(scenario())

    def test_restart_refuses_a_store_of_another_chain(self, tmp_path):
        """``genesis=`` names the chain to serve: a store that already
        holds a different chain is refused, not silently served."""
        deployment = Deployment()
        path = tmp_path / "n.blocks"
        save_node(deployment.node(0), path)
        other = create_genesis(
            deployment.owner, chain_name="other-chain", timestamp=0,
        )
        with pytest.raises(ValueError) as refused:
            LiveNode(deployment.keys[0], path, genesis=other)
        assert deployment.genesis.hash.hex() in str(refused.value)
        assert other.hash.hex() in str(refused.value)
