"""Multi-node clusters on real TCP: convergence, partitions, clean
shutdown with zero leaked tasks or sockets."""

import asyncio

from repro.live import LiveNode, PeerSpec
from repro.obs import Observability, RingBufferSink

from tests.conftest import Deployment

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
        """On Python 3.11 a cancel that lands as a session's
        ``asyncio.wait_for`` returns is swallowed; ``stop()`` must not
        depend on that one cancel being delivered."""
        deployment = Deployment()
        real_wait_for = asyncio.wait_for
        armed = []

        async def swallowing_wait_for(awaitable, timeout):
            try:
                return await real_wait_for(awaitable, timeout)
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
            monkeypatch.setattr(asyncio, "wait_for", swallowing_wait_for)
            try:
                await real_wait_for(in_session.wait(), 5.0)
                armed.append(True)
                clock = asyncio.get_running_loop().time
                started = clock()
                # The guard's own timeout would re-cancel the gossip
                # task and so hide the hang: judge by the clock.
                await real_wait_for(nodes[0].stop(), 5.0)
                assert clock() - started < 1.0
                assert not armed, "the cancel never reached wait_for"
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
        assert "live_sessions_total" in rendered
        assert 'outcome="completed"' in rendered
        assert "live_dials_total" in rendered
        assert "live_blocks_persisted_total" in rendered


class TestPipelinedSessions:
    """The anti-entropy `pipeline` knob: concurrent sessions per tick,
    each to a distinct peer."""

    def test_pipeline_rejects_nonpositive(self, tmp_path):
        deployment = Deployment()
        try:
            _make_node(deployment, tmp_path, 0, pipeline=0)
        except ValueError as exc:
            assert "pipeline" in str(exc)
        else:
            raise AssertionError("pipeline=0 accepted")

    def test_run_tick_hits_distinct_peers(self, tmp_path):
        """One pipelined tick reconciles with several peers at once."""
        deployment = Deployment()

        async def scenario():
            hub = _make_node(deployment, tmp_path, 0, pipeline=3,
                             interval_s=30.0)  # tick only when driven
            spokes = [
                _make_node(deployment, tmp_path, i, interval_s=30.0)
                for i in (1, 2, 3)
            ]
            nodes = [hub] + spokes
            await _start_mesh(nodes)
            for i, spoke in enumerate(spokes):
                spoke.append_transactions([])
            deadline = asyncio.get_running_loop().time() + 10.0
            try:
                while asyncio.get_running_loop().time() < deadline:
                    if len(hub.peer_manager.connected_peers()) == 3:
                        break
                    await asyncio.sleep(0.02)
                stats = await hub.antientropy.run_tick()
                assert len(stats) == 3
                pulled = sum(s.blocks_pulled for s in stats)
                assert pulled == 3
                assert hub.antientropy.sessions_completed == 3
                # genesis + one block per spoke
                assert len(hub.node.dag) == 4
            finally:
                for node in nodes:
                    await node.stop()

        asyncio.run(scenario())

    def test_pipelined_cluster_converges(self, tmp_path):
        deployment = Deployment()

        async def scenario():
            nodes = [
                _make_node(deployment, tmp_path, i, pipeline=3)
                for i in range(4)
            ]
            for i, node in enumerate(nodes):
                for _ in range(i + 1):
                    node.append_transactions([])
            await _start_mesh(nodes)
            try:
                assert await _await_convergence(nodes, expect_blocks=11)
            finally:
                for node in nodes:
                    await node.stop()

        asyncio.run(scenario())
