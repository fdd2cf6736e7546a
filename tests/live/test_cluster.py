"""Multi-node clusters on real TCP: convergence, partitions, clean
shutdown with zero leaked tasks or sockets."""

import asyncio

import pytest

from repro import wire
from repro.live import LiveNode, PeerSpec, antientropy
from repro.live.protocol import serve_connection
from repro.live.transport import TransportClosed
from repro.obs import Observability, RingBufferSink

from tests.conftest import Deployment
from tests.live.memory_runtime import stream_pair

FAST = dict(interval_s=0.04, jitter_s=0.01, session_timeout_s=5.0)


def _make_node(deployment, tmp_path, index, **kwargs):
    name = f"n{index}"
    kwargs = {**FAST, **kwargs}
    kwargs.setdefault("seed", index + 1)
    return LiveNode(
        deployment.keys[index], tmp_path / f"{name}.blocks",
        genesis=deployment.genesis, name=name, **kwargs,
    )


async def _start_mesh(nodes):
    """Start all nodes, then fully mesh them (every node dials every
    other — port 0 means addresses are only known after start)."""
    for node in nodes:
        await node.start()
    for node in nodes:
        for other in nodes:
            if other is not node:
                node.add_peer(
                    PeerSpec(other.name, "127.0.0.1", other.listen_port)
                )


async def _await_convergence(nodes, timeout_s=20.0, expect_blocks=None):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while asyncio.get_running_loop().time() < deadline:
        digests = {node.dag_digest() for node in nodes}
        if len(digests) == 1 and (
            expect_blocks is None
            or len(nodes[0].node.dag) == expect_blocks
        ):
            return True
        await asyncio.sleep(0.05)
    return False


class TestCluster:
    def test_three_nodes_converge_from_divergent_start(self, tmp_path):
        deployment = Deployment()

        async def scenario():
            nodes = [
                _make_node(deployment, tmp_path, i) for i in range(3)
            ]
            # Diverge while offline: each node mints its own blocks.
            for i, node in enumerate(nodes):
                for _ in range(i + 1):
                    node.append_transactions([])
            assert len({n.dag_digest() for n in nodes}) == 3
            await _start_mesh(nodes)
            try:
                # genesis + 1 + 2 + 3 local blocks
                converged = await _await_convergence(
                    nodes, expect_blocks=7
                )
            finally:
                for node in nodes:
                    await node.stop()
            assert converged
            return nodes

        nodes = asyncio.run(scenario())
        digests = {node.dag_digest() for node in nodes}
        assert len(digests) == 1
        assert len({node.state_digest() for node in nodes}) == 1

    def test_partition_heals_and_reconverges(self, tmp_path):
        deployment = Deployment()

        async def scenario():
            nodes = [
                _make_node(deployment, tmp_path, i) for i in range(3)
            ]
            await _start_mesh(nodes)
            try:
                assert await _await_convergence(nodes, expect_blocks=1)
                # Cut node 0 off, let both sides keep minting.
                await nodes[0].isolate()
                nodes[0].append_transactions([])
                nodes[1].append_transactions([])
                nodes[2].append_transactions([])
                assert await _await_convergence(
                    nodes[1:], expect_blocks=3
                )
                # The isolated node must NOT have learned anything.
                assert len(nodes[0].node.dag) == 2
                nodes[0].rejoin()
                converged = await _await_convergence(
                    nodes, expect_blocks=4
                )
            finally:
                for node in nodes:
                    await node.stop()
            assert converged

        asyncio.run(scenario())

    def test_shutdown_leaks_nothing(self, tmp_path):
        deployment = Deployment()

        async def scenario():
            baseline = set(asyncio.all_tasks())
            nodes = [
                _make_node(deployment, tmp_path, i) for i in range(3)
            ]
            await _start_mesh(nodes)
            nodes[0].append_transactions([])
            await _await_convergence(nodes, expect_blocks=2)
            for node in nodes:
                await node.stop()
            # Give cancelled callbacks one tick to unwind, then verify
            # nothing of the cluster survives.
            await asyncio.sleep(0.05)
            leaked = set(asyncio.all_tasks()) - baseline - {
                asyncio.current_task()
            }
            assert leaked == set()
            for node in nodes:
                assert node.peer_manager.listen_port is None
                assert node.peer_manager.connected_peers() == []

        asyncio.run(scenario())

    def test_stop_is_idempotent_and_serve_honors_request_stop(
        self, tmp_path
    ):
        deployment = Deployment()

        async def scenario():
            node = _make_node(deployment, tmp_path, 0)
            serve_task = asyncio.ensure_future(node.serve())
            for _ in range(100):
                if node.listen_port is not None:
                    break
                await asyncio.sleep(0.01)
            assert node.listen_port is not None
            node.request_stop()
            await serve_task
            await node.stop()  # second stop must be harmless

        asyncio.run(scenario())

    def test_stop_reraises_its_own_cancellation(self, tmp_path):
        """A task cancelled while inside ``stop()`` must end cancelled —
        after the clean-up, not instead of it."""
        deployment = Deployment()

        async def scenario():
            node = _make_node(deployment, tmp_path, 0)
            await node.start()
            stopper = asyncio.ensure_future(node.stop())
            await asyncio.sleep(0)  # stop() is now awaiting the gossip task
            stopper.cancel()
            try:
                await stopper
            except asyncio.CancelledError:
                pass
            assert stopper.cancelled()
            assert node._loop_task is None
            assert node.peer_manager.listen_port is None
            assert node.store._writer is None
            await node.stop()  # and a plain stop afterwards is harmless

        asyncio.run(scenario())

    def test_stop_survives_a_swallowed_cancel(self, tmp_path, monkeypatch):
        """A cancel that lands as a session's deadline returns can be
        swallowed (``asyncio.wait_for`` on Python 3.11 did); ``stop()``
        must not depend on that one cancel being delivered."""
        deployment = Deployment()
        real_wait_for = asyncio.wait_for
        real_within = antientropy._within
        armed = []

        async def swallowing_within(seconds, session):
            try:
                return await real_within(seconds, session)
            except asyncio.CancelledError:
                if not armed:
                    raise
                armed.clear()  # swallow exactly one

        async def scenario():
            in_session = asyncio.Event()

            async def stuck_session(*args, **kwargs):
                in_session.set()
                await asyncio.Event().wait()

            nodes = [_make_node(deployment, tmp_path, i) for i in range(2)]
            await _start_mesh(nodes)
            monkeypatch.setattr(
                "repro.live.antientropy.run_session", stuck_session
            )
            monkeypatch.setattr(antientropy, "_within", swallowing_within)
            try:
                await real_wait_for(in_session.wait(), 5.0)
                armed.append(True)
                clock = asyncio.get_running_loop().time
                started = clock()
                # The guard's own timeout would re-cancel the gossip
                # task and so hide the hang: judge by the clock.
                await real_wait_for(nodes[0].stop(), 5.0)
                assert clock() - started < 1.0
                assert not armed, "the cancel never reached the deadline"
            finally:
                monkeypatch.undo()
                for node in nodes:
                    await real_wait_for(node.stop(), 5.0)

        asyncio.run(scenario())

    def test_trace_events_cover_connect_and_sessions(self, tmp_path):
        deployment = Deployment()
        ring = RingBufferSink()
        obs = Observability(sinks=[ring])

        async def scenario():
            a = _make_node(deployment, tmp_path, 0, obs=obs)
            b = _make_node(deployment, tmp_path, 1)
            await a.start()
            await b.start()
            a.add_peer(PeerSpec("b", "127.0.0.1", b.listen_port))
            b.append_transactions([])
            try:
                assert await _await_convergence([a, b], expect_blocks=2)
                # Let at least one full session complete after convergence.
                await asyncio.sleep(0.2)
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(scenario())
        kinds = {event.type for event in ring.events()}
        assert "peer.connected" in kinds
        assert "session.completed" in kinds
        assert "node.started" in kinds
        completed = [
            e for e in ring.events() if e.type == "session.completed"
        ]
        assert any(e.fields["blocks_pulled"] > 0 for e in completed)

    def test_metrics_registry_counts_sessions(self, tmp_path):
        deployment = Deployment()
        obs = Observability()

        async def scenario():
            a = _make_node(deployment, tmp_path, 0, obs=obs)
            b = _make_node(deployment, tmp_path, 1)
            await a.start()
            await b.start()
            a.add_peer(PeerSpec("b", "127.0.0.1", b.listen_port))
            b.append_transactions([])
            try:
                assert await _await_convergence([a, b], expect_blocks=2)
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(scenario())
        rendered = obs.registry.render_prometheus()
        assert obs.registry.value(
            "reconcile_sessions_total", protocol="frontier"
        ) >= 1
        assert "live_dials_total" in rendered
        assert "live_blocks_persisted_total" in rendered


class TestUnframeableBatch:
    """A batch of bodies over the connection's frame limit: two nodes
    with ``max_frame_bytes=4096``, one of them 40 blocks ahead (with the
    default 16 MiB limit and no batch budget, a replica some 50k blocks
    ahead).  The session is interrupted; nothing else is."""

    AHEAD = 40

    def _pair(self, tmp_path, ahead_obs=None, **kwargs):
        deployment = Deployment()
        nodes = [
            _make_node(deployment, tmp_path, i, max_frame_bytes=4096,
                       obs=obs, **kwargs)
            for i, obs in enumerate([ahead_obs, None])
        ]
        for _ in range(self.AHEAD):
            nodes[0].append_transactions([])
        return nodes

    @staticmethod
    async def _connected(nodes):
        await _start_mesh(nodes)
        deadline = asyncio.get_running_loop().time() + 10.0
        while asyncio.get_running_loop().time() < deadline:
            if all(node.peer_manager.connected_peers() for node in nodes):
                return
            await asyncio.sleep(0.02)
        raise AssertionError("the pair never connected")

    def test_push_too_big_to_frame_interrupts_the_session(self, tmp_path):
        ring = RingBufferSink()

        async def scenario():
            # An hour between ticks: the sessions here are run by hand.
            ahead, behind = nodes = self._pair(
                tmp_path, interval_s=3600.0,
                ahead_obs=Observability(sinks=[ring]),
            )
            await self._connected(nodes)
            try:
                stats = await ahead.antientropy.run_once(behind.name)
                assert stats.interrupted and stats.blocks_pushed == 0
                assert ahead.antientropy.sessions_interrupted == 1
                assert not ahead._loop_task.done()
                # The stale stream was dropped for backoff to rebuild.
                assert ahead.peer_manager.connection(behind.name) is None
            finally:
                for node in nodes:
                    await node.stop()
            assert ahead.store._writer is None

        asyncio.run(scenario())
        [event] = [
            e for e in ring.events() if e.type == "session.interrupted"
        ]
        assert event.fields["reason"] == "protocol"

    def test_reply_too_big_to_frame_closes_the_connection(self):
        deployment = Deployment()
        source = deployment.node(0)
        for _ in range(self.AHEAD):
            source.append_transactions([])

        async def scenario():
            near, far = stream_pair(max_frame_bytes=4096)
            server = asyncio.ensure_future(serve_connection(source, far))
            await near.send(wire.encode({
                "type": "get_frontier",
                "have": [deployment.genesis.hash.digest],
            }))
            await asyncio.wait_for(server, 5.0)  # ended, and not by raising
            assert far.closed
            with pytest.raises(TransportClosed):
                await near.recv()

        asyncio.run(scenario())

    def test_the_periodic_loop_lives_on(self, tmp_path):
        async def scenario():
            ahead, behind = nodes = self._pair(tmp_path)
            await self._connected(nodes)
            try:
                deadline = asyncio.get_running_loop().time() + 10.0
                while (ahead.antientropy.sessions_interrupted < 2
                       or behind.antientropy.sessions_interrupted < 2):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                for node in nodes:
                    assert not node._loop_task.done()
            finally:
                for node in nodes:
                    await node.stop()
            for node in nodes:
                assert node.store._writer is None
                assert node.peer_manager.listen_port is None

        asyncio.run(scenario())

    def test_stop_cleans_up_before_reraising_what_killed_the_loop(
        self, tmp_path, monkeypatch
    ):
        deployment = Deployment()

        async def scenario():
            node = _make_node(deployment, tmp_path, 0)

            async def broken_tick():
                raise RuntimeError("tick failed")

            monkeypatch.setattr(node.antientropy, "run_tick", broken_tick)
            await node.start()
            await asyncio.wait([node._loop_task], timeout=5.0)
            assert node._loop_task.done()
            try:
                await node.stop()
            except RuntimeError as exc:
                assert str(exc) == "tick failed"
            else:
                raise AssertionError("stop() hid the loop's failure")
            assert node._loop_task is None
            assert node.peer_manager.listen_port is None
            assert node.store._writer is None
            await node.stop()  # nothing left to re-raise

        asyncio.run(scenario())
