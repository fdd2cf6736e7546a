"""Writes are pushed: a replica sends its own new blocks to every
connected peer, at once but after the writer's caller has had its loop
turn, with at most one push in flight per peer.  A peer whose frontier
the writer knows on the current connection gets a plain push; on a
connection it knows nothing of, the first write runs one full session
(pull, then push), and a connection whose session tore or did not
converge gets no second one."""

import asyncio

from repro import wire
from repro.crypto.sha import DIGEST_SIZE
from repro.live import LiveNode, PeerSpec
from repro.live.transport import TransportClosed
from repro.obs import Observability, RingBufferSink

from tests.conftest import Deployment

#: The timer never ticks: every session here is started by hand, so a
#: block that arrives was pushed.
PARKED = dict(interval_s=3600.0, session_timeout_s=5.0)
#: No scenario here may wait longer than this, whatever breaks.
SCENARIO_LIMIT_S = 60.0
#: Long enough for any push to have landed: a push takes milliseconds.
SETTLE_S = 0.3


def _nodes(tmp_path, count=2, **kwargs):
    deployment = Deployment()
    return [
        LiveNode(
            deployment.keys[index], tmp_path / f"{name}.blocks",
            genesis=deployment.genesis, name=name, seed=index + 1,
            **PARKED, **(kwargs if index == 0 else {}),
        )
        for index, name in enumerate("abc"[:count])
    ]


async def _until(predicate, timeout_s=5.0) -> bool:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


async def _dial(node, other) -> None:
    """*node* dials *other* and waits for the connection."""
    node.add_peer(PeerSpec(other.name, "127.0.0.1", other.listen_port))
    assert await _until(
        lambda: node.peer_manager.connection(other.name) is not None
    )


def _run(nodes, body):
    """Start *nodes*, run ``body(*nodes)``, stop them whatever happens."""
    async def scenario():
        for node in nodes:
            await node.start()
        try:
            return await asyncio.wait_for(body(*nodes), SCENARIO_LIMIT_S)
        finally:
            for node in nodes:
                await asyncio.wait_for(node.stop(), 10.0)
    return asyncio.run(scenario())


async def _converge(a, b) -> None:
    stats = await a.antientropy.run_once(b.name)
    assert stats.converged and not stats.interrupted


class TestPush:
    def test_a_write_reaches_a_current_peer_without_a_tick(self, tmp_path):
        async def body(a, b):
            await _dial(a, b)
            await _converge(a, b)
            # Each write within 100 ms, the second too: no hold-off
            # stands between a push and the next.
            for _ in range(2):
                block = a.append_transactions([])
                assert await _until(
                    lambda: b.node.has_block(block.hash), 0.1
                )
            # One session by hand, one push per write, no tick.
            assert a.antientropy.sessions_completed == 3
            assert a.antientropy.pushes == 2

        _run(_nodes(tmp_path), body)

    def test_appends_in_one_loop_turn_ride_one_push(self, tmp_path):
        async def body(a, b):
            await _dial(a, b)
            await _converge(a, b)
            written = [a.append_transactions([]).hash for _ in range(20)]
            assert await _until(
                lambda: all(b.node.has_block(h) for h in written)
            )
            await asyncio.sleep(SETTLE_S)  # a second push would be done
            assert a.antientropy.pushes == 1

        _run(_nodes(tmp_path), body)

    def test_the_writers_caller_runs_before_the_push(self, tmp_path):
        async def body(a, b):
            await _dial(a, b)
            await _converge(a, b)
            transport = a.peer_manager.connection("b")
            real_send = transport.send
            frames = []

            async def send(payload):
                frames.append(payload)
                await real_send(payload)

            transport.send = send
            block = a.append_transactions([])
            # The caller's next loop turn (the gateway answering the
            # batch it cut) comes before any push frame is written.
            await asyncio.sleep(0)
            assert frames == []
            assert await _until(lambda: b.node.has_block(block.hash))
            assert len(frames) == 1

        _run(_nodes(tmp_path), body)

    def test_a_write_converges_a_connection_it_knows_nothing_of(
        self, tmp_path
    ):
        async def two_writes(a, b):
            loop = a.antientropy
            completed, pushes = loop.sessions_completed, loop.pushes
            # The first write on the connection: one full session.
            first = a.append_transactions([])
            assert await _until(
                lambda: b.node.has_block(first.hash)
                and loop.sessions_completed == completed + 1, 0.1
            )
            assert loop.pushes == pushes
            assert loop.unsent() == {"b": 0}
            # The session's push half taught it b's frontier.
            second = a.append_transactions([])
            assert await _until(
                lambda: b.node.has_block(second.hash)
                and loop.pushes == pushes + 1, 0.1
            )
            assert loop.sessions_completed == completed + 2

        async def body(a, b):
            await _dial(a, b)
            await two_writes(a, b)
            assert a.antientropy.pushes == 1
            # A new connection knows nothing of the old one's frontier.
            old = a.peer_manager.connection("b")
            await a.isolate()
            a.rejoin()
            assert await _until(
                lambda: a.peer_manager.connection("b") not in (None, old)
            )
            await two_writes(a, b)
            assert a.antientropy.sessions_interrupted == 0

        _run(_nodes(tmp_path), body)

    def test_a_connection_costs_the_pusher_one_session(self, tmp_path):
        ring = RingBufferSink()
        obs = Observability(sinks=[ring])

        def started(peer):
            return sum(
                1 for e in ring.events()
                if e.type == "session.start" and e.fields["peer"] == peer
            )

        async def body(a, b, c):
            await _dial(a, b)
            await _dial(a, c)
            torn = a.peer_manager.connection("b")

            async def tear(payload):
                # b drops out of reach as the session starts, and stays
                # out: no new connection comes up.
                await b.isolate()
                raise TransportClosed("torn mid-session")

            torn.send = tear
            # c names a tip it never offers a body for: the session ends
            # unconverged, so the push half never runs.
            unbridged = a.peer_manager.connection("c")
            real_recv = unbridged.recv

            async def recv():
                await real_recv()
                return wire.encode({
                    "type": "frontier_set",
                    "frontier": [bytes(DIGEST_SIZE)], "blocks": [],
                })

            unbridged.recv = recv
            written = []
            for _ in range(20):
                written.append(a.append_transactions([]).hash)
                await asyncio.sleep(0.01)
            await asyncio.sleep(SETTLE_S)
            assert (started("b"), started("c")) == (1, 1)
            assert a.antientropy.sessions_interrupted == 1
            assert a.antientropy.sessions_completed == 1
            assert a.antientropy.pushes == 0
            assert a.antientropy.unsent() == {}
            assert a.peer_manager.connection("c") is unbridged
            assert not any(
                node.node.has_block(h) for node in (b, c) for h in written
            )
            # A new connection to b gets a session of its own.
            b.rejoin()
            assert await _until(
                lambda: a.peer_manager.connection("b") not in (None, torn)
            )
            written.append(a.append_transactions([]).hash)
            assert await _until(
                lambda: all(b.node.has_block(h) for h in written)
            )
            assert started("b") == 2
            assert started("c") == 1

        _run(_nodes(tmp_path, count=3, obs=obs), body)

    def test_received_blocks_are_not_relayed(self, tmp_path):
        async def body(a, b, c):
            await _dial(a, b)
            await _dial(c, a)
            await _converge(a, b)
            await _converge(c, a)
            block = c.append_transactions([])
            # c pushes its write to a; a does not pass it on to b.
            assert await _until(lambda: a.node.has_block(block.hash))
            await asyncio.sleep(SETTLE_S)
            assert c.antientropy.pushes == 1
            assert a.antientropy.pushes == 0
            assert not b.node.has_block(block.hash)

        _run(_nodes(tmp_path, count=3), body)

    def test_stop_right_after_writes_sends_nothing(self, tmp_path):
        async def scenario():
            a, b = _nodes(tmp_path)
            await a.start()
            await b.start()
            try:
                await _dial(a, b)
                await _converge(a, b)
                written = [a.append_transactions([]).hash for _ in range(3)]
            finally:
                await a.stop()
            try:
                await asyncio.sleep(0.2)
                assert not any(b.node.has_block(h) for h in written)
                assert a.antientropy.sessions_completed == 1
            finally:
                await b.stop()

        asyncio.run(asyncio.wait_for(scenario(), SCENARIO_LIMIT_S))

    def test_a_torn_push_forgets_the_frontier(self, tmp_path):
        async def body(a, b):
            await _dial(a, b)
            await _converge(a, b)
            assert a.antientropy.unsent() == {"b": 0}
            torn = a.peer_manager.connection("b")

            async def broken_send(payload):
                raise TransportClosed("cut mid-push")

            torn.send = broken_send
            block = a.append_transactions([])
            assert await _until(
                lambda: a.antientropy.sessions_interrupted == 1
            )
            assert a.antientropy.unsent() == {}
            assert a.antientropy.pushes == 0
            # Backoff redials; the next session repairs the gap.
            assert await _until(
                lambda: a.peer_manager.connection("b") not in (None, torn)
            )
            await _converge(a, b)
            assert await _until(lambda: b.node.has_block(block.hash))
            assert a.antientropy.unsent() == {"b": 0}

        _run(_nodes(tmp_path), body)

    def test_a_block_appended_while_pushing_goes_in_the_next_pass(
        self, tmp_path
    ):
        async def body(a, b):
            await _dial(a, b)
            await _converge(a, b)
            transport = a.peer_manager.connection("b")
            real_send = transport.send
            racing = []

            async def send(payload):
                if not racing:
                    # The gateway appends while the first frame is out.
                    racing.append(a.append_transactions([]))
                await real_send(payload)

            transport.send = send
            first = a.append_transactions([])
            assert await _until(
                lambda: b.node.has_block(first.hash)
                and racing and b.node.has_block(racing[0].hash)
            )
            assert a.antientropy.pushes == 2
            assert a.antientropy.unsent() == {"b": 0}

        _run(_nodes(tmp_path), body)

    def test_a_stalled_peer_holds_up_no_other(self, tmp_path):
        async def body(a, b, c):
            await _dial(a, b)
            await _dial(a, c)
            await _converge(a, b)
            await _converge(a, c)

            async def stalled_send(payload):
                await asyncio.Event().wait()  # half-open: never drains

            a.peer_manager.connection("c").send = stalled_send
            # A session to c holds c's lock until its deadline (5 s).
            stuck = asyncio.ensure_future(a.antientropy.run_once("c"))
            for _ in range(2):
                block = a.append_transactions([])
                assert await _until(lambda: b.node.has_block(block.hash))
            assert not stuck.done()
            assert not c.node.has_block(block.hash)
            await stuck

        _run(_nodes(tmp_path, count=3), body)

    def test_a_push_is_reported_like_a_session(self, tmp_path):
        ring = RingBufferSink()
        obs = Observability(sinks=[ring])

        async def body(a, b):
            await _dial(a, b)
            await _converge(a, b)
            a.append_transactions([])
            a.append_transactions([])
            assert a.status()["peers"]["unsent"] == {"b": 2}
            assert await _until(lambda: a.antientropy.pushes == 1)
            status = a.status()
            assert status["peers"]["unsent"] == {"b": 0}
            assert status["sessions"] == {
                "completed": 2, "interrupted": 0, "pushes": 1,
            }
            assert obs.registry.value(
                "reconcile_sessions_total", protocol="push"
            ) == 1
            assert obs.registry.value(
                "reconcile_blocks_total", protocol="push", kind="pushed"
            ) == 2

        _run(_nodes(tmp_path, obs=obs), body)
        starts = [
            e.fields for e in ring.events() if e.type == "session.start"
        ]
        assert [s["protocol"] for s in starts] == ["frontier", "push"]
        [push] = [
            e.fields for e in ring.events()
            if e.type == "session.completed"
            and e.fields["protocol"] == "push"
        ]
        assert push["rounds"] == 0 and push["blocks_pushed"] == 2
        assert push["messages_i2r"] == 1 and push["messages_r2i"] == 0
        assert "held" not in push


class TestOneSessionPerConnection:
    def test_sessions_and_pushes_on_one_connection_take_turns(
        self, tmp_path
    ):
        async def body(a, b):
            await _dial(a, b)
            await _converge(a, b)

            async def pair(index):
                await asyncio.sleep(0.002 * index)
                a.append_transactions([])
                b.append_transactions([])
                return await asyncio.gather(
                    a.antientropy.run_once("b"),
                    a.antientropy.push_once("b"),
                )

            results = await asyncio.gather(*(pair(i) for i in range(50)))
            sessions = [s for both in results for s in both if s is not None]
            assert len(sessions) >= 50
            assert not any(s.interrupted for s in sessions)
            assert a.antientropy.sessions_interrupted == 0
            await _converge(a, b)
            assert await _until(lambda: a.dag_digest() == b.dag_digest())

        _run(_nodes(tmp_path), body)
