"""The fleet observability plane on real TCP: ops endpoints on running
nodes, per-node wall-clock traces, and the causal cross-node merge."""

import asyncio
import json
import time

from repro.live import LiveNode, PeerSpec
from repro.obs import JsonlFileSink, Observability
from repro.obs.merge import NodeTrace, merge_traces

from tests.conftest import Deployment
from tests.obs.test_metrics import assert_valid_exposition

FAST = dict(interval_s=0.04, jitter_s=0.01, session_timeout_s=5.0)


def _wall_ms() -> int:
    return int(time.time() * 1000)


def _make_node(deployment, tmp_path, index, **kwargs):
    name = f"n{index}"
    kwargs = {**FAST, **kwargs}
    kwargs.setdefault("seed", index + 1)
    return LiveNode(
        deployment.keys[index], tmp_path / f"{name}.blocks",
        genesis=deployment.genesis, name=name, **kwargs,
    )


async def _start_mesh(nodes):
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


async def _http_get(port, path) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode("ascii"))
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


def _body(response: bytes) -> bytes:
    return response.split(b"\r\n\r\n", 1)[1]


class TestLiveOps:
    def test_ops_endpoint_serves_running_node(self, tmp_path):
        deployment = Deployment()
        obs = Observability(clock=_wall_ms)

        async def scenario():
            node = _make_node(
                deployment, tmp_path, 0, obs=obs, ops_port=0
            )
            await node.start()
            try:
                assert node.ops is not None and node.ops.port
                health = await _http_get(node.ops.port, "/healthz")
                assert health.endswith(b"ok\n")
                metrics = await _http_get(node.ops.port, "/metrics")
                status = json.loads(
                    _body(await _http_get(node.ops.port, "/status"))
                )
            finally:
                await node.stop()
            return metrics, status, node

        metrics, status, node = asyncio.run(scenario())
        assert_valid_exposition(_body(metrics).decode("utf-8"))
        assert status["name"] == "n0"
        assert status["id"] == node.node.user_id.hex()
        assert status["chain"] == node.chain_id.hex()
        assert status["blocks"] == 1
        assert status["frontier_digest"]
        assert status["peers"] == {
            "connected": [], "dynamic": [], "unsent": {},
        }
        assert status["sessions"] == {
            "completed": 0, "interrupted": 0, "pushes": 0,
        }

    def test_restart_reports_every_block_it_reads(self, tmp_path):
        """A restart rebuilds the replica through the handle the node
        appends with, so ``/metrics`` counts each stored block read."""
        deployment = Deployment()
        stored = 5

        async def scenario():
            first = _make_node(deployment, tmp_path, 0)
            await first.start()
            for _ in range(stored - 1):
                first.append_transactions([])
            await first.stop()
            reborn = _make_node(
                deployment, tmp_path, 0, obs=Observability(clock=_wall_ms),
                ops_port=0,
            )
            await reborn.start()
            try:
                return await _http_get(reborn.ops.port, "/metrics")
            finally:
                await reborn.stop()

        text = _body(asyncio.run(scenario())).decode("utf-8")
        series = dict(
            line.rsplit(" ", 1) for line in text.splitlines()
            if line.startswith("blockstore_")
        )
        # An untouched counter has no sample line: that is a zero.
        assert int(series.get("blockstore_blocks_read_total", 0)) == stored

    def test_ops_port_conflict_fails_cleanly(self, tmp_path):
        from repro.runtime import ListenError

        deployment = Deployment()

        async def scenario():
            blocker = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            taken = blocker.sockets[0].getsockname()[1]
            node = _make_node(deployment, tmp_path, 0, ops_port=taken)
            try:
                await node.start()
            except ListenError:
                pass
            else:
                raise AssertionError("expected ListenError")
            finally:
                blocker.close()
                await blocker.wait_closed()
            # The failed start must not leak the gossip listener.
            assert node.peer_manager.listen_port is None

        asyncio.run(scenario())

    def test_three_node_cluster_traces_merge_causally(self, tmp_path):
        """The acceptance scenario: three real-TCP nodes, one wall-clock
        JSONL trace each, merged into a single causally ordered
        timeline."""
        deployment = Deployment()
        trace_paths = [tmp_path / f"n{i}.trace.jsonl" for i in range(3)]
        observers = [
            Observability(
                clock=_wall_ms, sinks=[JsonlFileSink(trace_paths[i])]
            )
            for i in range(3)
        ]

        async def scenario():
            nodes = [
                _make_node(
                    deployment, tmp_path, i, obs=observers[i], ops_port=0
                )
                for i in range(3)
            ]
            # Diverge first so reconciliation moves blocks both ways.
            for i, node in enumerate(nodes):
                for _ in range(i + 1):
                    node.append_transactions([])
            await _start_mesh(nodes)
            try:
                converged = await _await_convergence(
                    nodes, expect_blocks=7
                )
                assert converged
                # Let at least one post-convergence session complete.
                await asyncio.sleep(0.2)
                statuses = [
                    json.loads(
                        _body(await _http_get(node.ops.port, "/status"))
                    )
                    for node in nodes
                ]
                metrics = [
                    _body(await _http_get(node.ops.port, "/metrics"))
                    for node in nodes
                ]
            finally:
                for node in nodes:
                    await node.stop()
            return statuses, metrics

        statuses, metrics = asyncio.run(scenario())
        for obs in observers:
            obs.close()

        # Live /status agreed on the converged replica.
        assert len({s["frontier_digest"] for s in statuses}) == 1
        assert len({s["dag_digest"] for s in statuses}) == 1
        assert all(s["blocks"] == 7 for s in statuses)
        for payload in metrics:
            text = payload.decode("utf-8")
            assert_valid_exposition(text)
            assert 'reconcile_sessions_total{protocol="frontier"}' in text
            # The node's own store reports through the node's registry:
            # at least the genesis record was appended.
            series = dict(
                line.rsplit(" ", 1) for line in text.splitlines()
                if line.startswith("blockstore_")
            )
            assert int(series["blockstore_appends_total"]) >= 1
            assert int(series["blockstore_bytes_written_total"]) > 0
            assert "# TYPE blockstore_blocks_read_total counter" in text

        # Merge the three per-node traces into one timeline.
        traces = [NodeTrace.load(path) for path in trace_paths]
        result = merge_traces(traces)
        assert result.nodes == ["n0", "n1", "n2"]
        assert result.malformed_lines == 0
        assert result.edge_count > 0
        assert result.order_violations == 0
        assert len(result.events) == sum(
            len(trace.events) for trace in traces
        )

        # The acceptance ordering: every responder-side block-add that a
        # push batch produced comes after its initiator's
        # session.completed.  Verify the cumulative-count invariant over
        # the merged order: at any prefix, the push-attributed persists
        # at Y from X never exceed the blocks X's completed sessions
        # toward Y have pushed so far.
        pushed_so_far: dict = {}
        persisted_so_far: dict = {}
        for record in result.events:
            if record["type"] == "session.completed":
                pair = (record["src"], record["peer"])
                pushed_so_far[pair] = (
                    pushed_so_far.get(pair, 0) + record["blocks_pushed"]
                )
            elif record["type"] == "block.persisted":
                origin = record.get("origin", "")
                if origin.startswith("push:"):
                    pair = (origin[len("push:"):], record["src"])
                    persisted_so_far[pair] = (
                        persisted_so_far.get(pair, 0) + 1
                    )
                    assert persisted_so_far[pair] <= pushed_so_far.get(
                        pair, 0
                    ), f"persist before its session for {pair}"
        assert sum(persisted_so_far.values()) > 0, "no pushes observed"

        # Determinism: reversed input order, byte-identical output.
        again = merge_traces(list(reversed(traces)))
        assert again.to_jsonl() == result.to_jsonl()

    def test_block_events_carry_origin_attribution(self, tmp_path):
        from repro.obs import RingBufferSink

        deployment = Deployment()
        rings = [RingBufferSink(), RingBufferSink()]
        observers = [
            Observability(clock=_wall_ms, sinks=[ring]) for ring in rings
        ]

        async def scenario():
            a = _make_node(deployment, tmp_path, 0, obs=observers[0])
            b = _make_node(deployment, tmp_path, 1, obs=observers[1])
            await a.start()
            await b.start()
            a.add_peer(PeerSpec("n1", "127.0.0.1", b.listen_port))
            a.append_transactions([])
            b.append_transactions([])
            try:
                assert await _await_convergence([a, b], expect_blocks=3)
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(scenario())
        a_events = [event.as_dict() for event in rings[0].events()]
        b_events = [event.as_dict() for event in rings[1].events()]
        assert any(
            e["type"] == "block.created" and "block" in e
            for e in a_events
        )
        a_origins = {
            e["origin"] for e in a_events if e["type"] == "block.persisted"
        }
        assert "local" in a_origins
        assert "pull:n1" in a_origins  # a dialed b, so a pulls from b
        b_origins = {
            e["origin"] for e in b_events if e["type"] == "block.persisted"
        }
        assert "local" in b_origins
        assert "push:n0" in b_origins  # a pushed its block to b
        started = next(
            e for e in a_events if e["type"] == "node.started"
        )
        assert started["id"]
        assert any(
            "seq" in e for e in a_events
            if e["type"] == "session.completed"
        )

    def test_status_includes_discovery_summary_when_enabled(
        self, tmp_path
    ):
        import os

        from repro.discovery import DiscoveryConfig

        deployment = Deployment()
        config = DiscoveryConfig(
            group=f"239.86.77.{1 + os.getpid() % 200}",
            port=31_000 + os.getpid() % 10_000,
            beacon_interval_s=0.1,
        )

        async def scenario():
            node = _make_node(
                deployment, tmp_path, 0, ops_port=0,
                obs=Observability(clock=_wall_ms),
                discovery=config,
            )
            await node.start()
            try:
                status = json.loads(
                    _body(await _http_get(node.ops.port, "/status"))
                )
            finally:
                await node.stop()
            return status

        status = asyncio.run(scenario())
        summary = status["discovery"]
        assert summary["peers"] == 0
        assert "beacons_received" in summary
        assert "rejections" in summary


class TestSessionReport:
    """A live session reports what a simulated one does: the field set
    and the ``reconcile_*`` families of ``repro.reconcile.stats``."""

    def _run_pair(self, tmp_path, prepare, settled):
        """Node a (traced, ops endpoint) dials b; *prepare* diverges
        them, and once *settled*(a's completed sessions) holds, returns
        those sessions and a's ``/metrics`` text."""
        from repro.obs import RingBufferSink

        deployment = Deployment()
        ring = RingBufferSink()
        obs = Observability(clock=_wall_ms, sinks=[ring])

        def completed():
            return [
                event.as_dict() for event in ring.events()
                if event.type == "session.completed"
            ]

        async def scenario():
            a = _make_node(deployment, tmp_path, 0, obs=obs, ops_port=0)
            b = _make_node(deployment, tmp_path, 1)
            await a.start()
            await b.start()
            try:
                await prepare(a, b)
                a.add_peer(PeerSpec("n1", "127.0.0.1", b.listen_port))
                deadline = asyncio.get_running_loop().time() + 20.0
                while not settled(completed()):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                assert await _await_convergence([a, b])
                return _body(await _http_get(a.ops.port, "/metrics"))
            finally:
                await a.stop()
                await b.stop()

        text = asyncio.run(scenario()).decode("utf-8")
        assert_valid_exposition(text)
        return completed(), text

    def test_frontier_session_is_reported(self, tmp_path):
        async def diverge(a, b):
            for _ in range(6):
                a.append_transactions([])
            for _ in range(5):
                b.append_transactions([])

        def pulled(done):
            return [
                s for s in done
                if s["protocol"] == "frontier" and s["blocks_pulled"]
            ]

        sessions, text = self._run_pair(
            tmp_path, diverge, lambda done: bool(pulled(done)),
        )
        session = pulled(sessions)[0]
        assert session["blocks_pulled"] == 5
        # The whole shared field set rides along, not the old subset.
        for field in ("messages_i2r", "messages_r2i", "duplicates",
                      "invalid", "rounds", "bytes_i2r", "bytes_r2i",
                      "blocks_pulled", "blocks_pushed", "converged",
                      "peer", "seq"):
            assert field in session, field
        assert 'reconcile_rounds_total{protocol="frontier"}' in text
