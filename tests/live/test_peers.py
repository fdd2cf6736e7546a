"""Peer management: specs, backoff, handshakes, dialing, teardown."""

import asyncio
import random

import pytest

from repro.core.genesis import create_genesis
from repro.crypto.keys import KeyPair
from repro.live.peers import (
    Backoff,
    HandshakeError,
    PeerManager,
    PeerSpec,
    handshake,
)
from repro.runtime import ListenError
from repro import wire

from tests.conftest import Deployment
from tests.live.memory_runtime import open_pair, stream_pair


def run(coro):
    return asyncio.run(coro)


class TestPeerSpec:
    def test_parse(self):
        spec = PeerSpec.parse("10.0.0.7:9000")
        assert (spec.host, spec.port) == ("10.0.0.7", 9000)
        assert spec.name == "10.0.0.7:9000"

    def test_parse_with_name(self):
        spec = PeerSpec.parse("localhost:1234", name="gateway")
        assert spec.name == "gateway"

    @pytest.mark.parametrize("bad", ["nocolon", ":", "host:", ":123",
                                     "host:port"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            PeerSpec.parse(bad)


class TestBackoff:
    def test_delays_grow_exponentially_to_cap(self):
        backoff = Backoff(base_s=1.0, cap_s=8.0, jitter=0.0)
        assert [backoff.next_delay() for _ in range(5)] == [
            1.0, 2.0, 4.0, 8.0, 8.0
        ]

    def test_jitter_is_deterministic_with_seeded_rng(self):
        a = Backoff(base_s=1.0, jitter=0.5, rng=random.Random(42))
        b = Backoff(base_s=1.0, jitter=0.5, rng=random.Random(42))
        assert [a.next_delay() for _ in range(6)] == [
            b.next_delay() for _ in range(6)
        ]

    def test_jitter_only_shrinks_delays(self):
        backoff = Backoff(base_s=2.0, jitter=0.5, rng=random.Random(7))
        for expected_raw in [2.0, 4.0, 8.0]:
            delay = backoff.next_delay()
            assert expected_raw * 0.5 <= delay <= expected_raw

    def test_reset_restarts_the_schedule(self):
        backoff = Backoff(base_s=1.0, jitter=0.0)
        backoff.next_delay()
        backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() == 1.0

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError):
            Backoff(jitter=1.5)

    def test_cap_applies_before_jitter(self):
        # Once raw delays saturate at the cap, jittered values stay in
        # [cap * (1 - jitter), cap] — the cap bounds the raw schedule,
        # jitter only ever shrinks it.
        backoff = Backoff(base_s=1.0, cap_s=4.0, jitter=0.5,
                          rng=random.Random(13))
        delays = [backoff.next_delay() for _ in range(10)]
        for delay in delays[3:]:  # attempts past the cap
            assert 2.0 <= delay <= 4.0

    def test_seeded_schedule_is_reproducible_end_to_end(self):
        def schedule(seed):
            backoff = Backoff(base_s=0.5, cap_s=6.0, jitter=0.5,
                              rng=random.Random(seed))
            out = [backoff.next_delay() for _ in range(4)]
            backoff.reset()
            out += [backoff.next_delay() for _ in range(4)]
            return out

        assert schedule(21) == schedule(21)
        assert schedule(21) != schedule(22)


class TestHandshake:
    def test_same_chain_handshake_succeeds(self):
        deployment = Deployment()
        left = deployment.node(0)
        right = deployment.node(1)

        async def scenario():
            async with open_pair() as (a, b):
                return await asyncio.gather(
                    handshake(a, left, "left"),
                    handshake(b, right, "right"),
                )

        left_hello, right_hello = run(scenario())
        assert left_hello["name"] == "right"
        assert right_hello["name"] == "left"
        assert bytes(left_hello["chain"]) == left.chain_id.digest

    def test_different_chain_refused(self):
        deployment = Deployment()
        left = deployment.node(0)
        stranger_key = KeyPair.deterministic(77)
        stranger = create_genesis(stranger_key, chain_name="other")
        from repro.core.node import VegvisirNode

        other = VegvisirNode(stranger_key, stranger)

        async def scenario():
            async with open_pair() as (a, b):
                return await asyncio.gather(
                    handshake(a, left, "left"),
                    handshake(b, other, "other"),
                    return_exceptions=True,
                )

        results = run(scenario())
        assert all(
            isinstance(result, HandshakeError) for result in results
        )

    def test_silent_peer_times_out(self):
        deployment = Deployment()
        left = deployment.node(0)

        async def scenario():
            async with open_pair() as (a, _b):
                with pytest.raises(HandshakeError, match="no hello"):
                    await handshake(a, left, "left", timeout_s=0.05)

        run(scenario())

    def test_garbage_hello_refused(self):
        deployment = Deployment()
        left = deployment.node(0)

        async def scenario():
            async with open_pair() as (a, b):
                await b.send(wire.encode({"type": "get_frontier", "have": []}))
                with pytest.raises(HandshakeError, match="not a live_hello"):
                    await handshake(a, left, "left", timeout_s=0.5)

        run(scenario())


class TestPeerManager:
    def _manager(self, node, name, **kwargs):
        kwargs.setdefault("handshake_timeout_s", 2.0)
        kwargs.setdefault("backoff_base_s", 0.02)
        kwargs.setdefault("seed", 1)
        return PeerManager(node, name, **kwargs)

    def test_dial_and_accept(self):
        deployment = Deployment()
        left, right = deployment.node(0), deployment.node(1)

        async def scenario():
            server = self._manager(right, "right")
            client = self._manager(left, "left")
            await server.start("127.0.0.1", 0)
            await client.start("127.0.0.1", 0)
            client.add_peer(
                PeerSpec("right", "127.0.0.1", server.listen_port)
            )
            for _ in range(100):
                if client.connected_peers() == ["right"]:
                    break
                await asyncio.sleep(0.02)
            assert client.connected_peers() == ["right"]
            assert client.connection("right") is not None
            await client.stop()
            await server.stop()
            assert client.connected_peers() == []

        run(scenario())

    def test_dial_retries_until_peer_appears(self):
        deployment = Deployment()
        left, right = deployment.node(0), deployment.node(1)

        async def scenario():
            client = self._manager(left, "left")
            await client.start("127.0.0.1", 0)
            # Reserve a port by binding and closing a throwaway server.
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            client.add_peer(PeerSpec("right", "127.0.0.1", port))
            await asyncio.sleep(0.1)
            assert client.connected_peers() == []
            # Now the peer comes up on that port; backoff finds it.
            server = self._manager(right, "right")
            await server.start("127.0.0.1", port)
            for _ in range(200):
                if client.connected_peers() == ["right"]:
                    break
                await asyncio.sleep(0.02)
            assert client.connected_peers() == ["right"]
            await client.stop()
            await server.stop()

        run(scenario())

    def test_foreign_chain_dial_rejected(self):
        deployment = Deployment()
        left = deployment.node(0)
        stranger_key = KeyPair.deterministic(99)
        from repro.core.node import VegvisirNode

        other = VegvisirNode(
            stranger_key, create_genesis(stranger_key, chain_name="other")
        )

        async def scenario():
            server = self._manager(other, "other")
            client = self._manager(left, "left")
            await server.start("127.0.0.1", 0)
            await client.start("127.0.0.1", 0)
            client.add_peer(
                PeerSpec("other", "127.0.0.1", server.listen_port)
            )
            await asyncio.sleep(0.3)
            assert client.connected_peers() == []
            await client.stop()
            await server.stop()

        run(scenario())

    def test_partition_severs_and_heal_reconnects(self):
        deployment = Deployment()
        left, right = deployment.node(0), deployment.node(1)

        async def scenario():
            server = self._manager(right, "right")
            client = self._manager(left, "left")
            await server.start("127.0.0.1", 0)
            await client.start("127.0.0.1", 0)
            client.add_peer(
                PeerSpec("right", "127.0.0.1", server.listen_port)
            )
            for _ in range(100):
                if client.connected_peers():
                    break
                await asyncio.sleep(0.02)
            assert client.connected_peers() == ["right"]

            await client.partition()
            assert client.partitioned
            assert client.connected_peers() == []
            await asyncio.sleep(0.1)
            assert client.connected_peers() == []

            client.heal()
            for _ in range(200):
                if client.connected_peers():
                    break
                await asyncio.sleep(0.02)
            assert client.connected_peers() == ["right"]
            await client.stop()
            await server.stop()

        run(scenario())

    def test_stop_leaves_no_tasks_behind(self):
        deployment = Deployment()
        left, right = deployment.node(0), deployment.node(1)

        async def scenario():
            baseline = len(asyncio.all_tasks())
            server = self._manager(right, "right")
            client = self._manager(left, "left")
            await server.start("127.0.0.1", 0)
            await client.start("127.0.0.1", 0)
            client.add_peer(
                PeerSpec("right", "127.0.0.1", server.listen_port)
            )
            for _ in range(100):
                if client.connected_peers():
                    break
                await asyncio.sleep(0.02)
            await client.stop()
            await server.stop()
            await asyncio.sleep(0.05)
            assert len(asyncio.all_tasks()) == baseline

        run(scenario())


    def test_stop_returns_when_a_cancel_was_swallowed(self):
        """asyncio.wait_for() before 3.12 hands back a result that raced
        a cancel() and loses the cancel.  A dial that completes just as
        the manager stops then carries on into an open connection, and
        stop() used to await that loop for ever."""
        deployment = Deployment()
        left, right = deployment.node(0), deployment.node(1)

        class LosesOneCancel(PeerManager):
            dialing = None

            async def _dial_once(self, spec):
                self.dialing.set()
                try:
                    await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    pass
                return await super()._dial_once(spec)

        async def scenario():
            baseline = len(asyncio.all_tasks())
            server = self._manager(right, "right")
            client = LosesOneCancel(
                left, "left", handshake_timeout_s=2.0, seed=1
            )
            client.dialing = asyncio.Event()
            await server.start("127.0.0.1", 0)
            await client.start("127.0.0.1", 0)
            client.add_peer(
                PeerSpec("right", "127.0.0.1", server.listen_port)
            )
            await client.dialing.wait()
            stopping = asyncio.ensure_future(client.stop())
            done, _ = await asyncio.wait({stopping}, timeout=5.0)
            assert done, "stop() is still waiting for the dial loop"
            await server.stop()
            await asyncio.sleep(0.05)
            assert len(asyncio.all_tasks()) == baseline

        run(scenario())


class TestListenError:
    def test_bound_port_raises_one_line_listen_error(self):
        deployment = Deployment()
        left, right = deployment.node(0), deployment.node(1)

        async def scenario():
            first = PeerManager(left, "first")
            await first.start("127.0.0.1", 0)
            second = PeerManager(right, "second")
            with pytest.raises(ListenError) as info:
                await second.start("127.0.0.1", first.listen_port)
            message = str(info.value)
            assert f"127.0.0.1:{first.listen_port}" in message
            assert "\n" not in message
            await first.stop()

        run(scenario())


class TestDynamicPeers:
    def _manager(self, node, name, **kwargs):
        kwargs.setdefault("handshake_timeout_s", 2.0)
        kwargs.setdefault("backoff_base_s", 0.02)
        kwargs.setdefault("seed", 1)
        return PeerManager(node, name, **kwargs)

    def test_add_remove_and_duplicate_accounting(self):
        deployment = Deployment()
        left = deployment.node(0)

        async def scenario():
            manager = self._manager(left, "left")
            await manager.start("127.0.0.1", 0)
            spec = PeerSpec("d:abc", "127.0.0.1", 1)
            assert manager.add_peer(spec, dynamic=True) is True
            assert manager.add_peer(spec, dynamic=True) is False
            assert manager.dynamic_peers() == ["d:abc"]
            assert manager.remove_peer("d:abc") is True
            assert manager.dynamic_peers() == []
            assert manager.remove_peer("d:abc") is False
            await manager.stop()

        run(scenario())

    def test_static_peers_cannot_be_removed(self):
        deployment = Deployment()
        left = deployment.node(0)

        async def scenario():
            manager = self._manager(left, "left")
            await manager.start("127.0.0.1", 0)
            manager.add_peer(PeerSpec("seed", "127.0.0.1", 1))
            assert manager.remove_peer("seed") is False
            assert manager.dynamic_peers() == []
            await manager.stop()

        run(scenario())

    def test_a_removed_peer_gets_no_connection_from_a_swallowed_cancel(
            self):
        """remove_peer() cancels the dial loop without awaiting it.
        Before Python 3.12 a dial's wait_for can swallow that cancel and
        return its new connection: the loop must close it, not publish
        it as the removed peer's."""
        deployment = Deployment()
        left = deployment.node(0)

        class LosesOneCancel(PeerManager):
            dialing = near = None

            async def _dial_once(self, spec):
                if self.dialing.is_set():  # a later dial loses nothing
                    await asyncio.sleep(3600)
                self.dialing.set()
                try:
                    await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    pass
                return self.near

        async def scenario():
            manager = LosesOneCancel(left, "left", seed=1)
            manager.dialing = asyncio.Event()
            manager.near, far = stream_pair()
            await manager.start("127.0.0.1", 0)
            manager.add_peer(PeerSpec("d:abc", "127.0.0.1", 1), dynamic=True)
            await asyncio.wait_for(manager.dialing.wait(), 5.0)
            loop = manager._maintain_tasks["d:abc"]
            assert manager.remove_peer("d:abc") is True
            await asyncio.wait({loop}, timeout=1.0)
            published = manager.connection("d:abc")
            ended = loop.done()
            await manager.stop()
            await far.close()
            return published, ended, manager.near

        published, ended, near = run(scenario())
        assert published is None
        assert ended and near.closed

    def test_backoff_resets_after_successful_handshake(self):
        deployment = Deployment()
        left, right = deployment.node(0), deployment.node(1)

        async def scenario():
            client = self._manager(left, "left")
            await client.start("127.0.0.1", 0)
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            client.add_peer(PeerSpec("right", "127.0.0.1", port))
            for _ in range(100):
                backoff = client._backoffs.get("right")
                if backoff is not None and backoff.attempt >= 2:
                    break
                await asyncio.sleep(0.02)
            assert client._backoffs["right"].attempt >= 2

            server = self._manager(right, "right")
            await server.start("127.0.0.1", port)
            for _ in range(200):
                if client.connected_peers() == ["right"]:
                    break
                await asyncio.sleep(0.02)
            assert client.connected_peers() == ["right"]
            assert client._backoffs["right"].attempt == 0
            await client.stop()
            await server.stop()

        run(scenario())
