"""Reconciliation over the network driver, and the responder's edge:
a session is complete over a framed link and robust to garbage and
hostile replies, every bad request gets one ``error`` frame before
``serve_connection`` closes the connection, and a hostile one-way push
leaves no more on the replica than its valid, placeable blocks."""

import asyncio

import pytest

from repro import wire
from repro.live.protocol import serve_connection
from repro.live.transport import StreamTransport, TransportClosed
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.session import (
    SAMPLE_LIMIT,
    Responder,
    decode_message,
    encode_message,
)

from tests.conftest import InFlight, over_loopback
from tests.live.memory_runtime import open_pair, stream_pair


def _diverged(deployment, left_appends=3, right_appends=5):
    left = deployment.node(0)
    right = deployment.node(1)
    shared = left.append_transactions([])
    right.receive_block(shared)
    for _ in range(left_appends):
        left.append_transactions([])
    for _ in range(right_appends):
        right.append_transactions([])
    return left, right


class Replace(InFlight):
    """A link on which every reply arrives as *payload*."""

    def __init__(self, payload: bytes):
        self._payload = payload

    def edit(self, reply: bytes) -> bytes:
        return self._payload


class TestLoopbackSession:
    def test_full_sync_over_bytes(self, deployment):
        left, right = _diverged(deployment)
        stats = over_loopback(FrontierProtocol(), left, right)
        assert stats.converged
        assert left.state_digest() == right.state_digest()

    def test_matches_in_memory_protocol_result(self, deployment):
        left_remote, right_remote = _diverged(deployment)
        over_loopback(FrontierProtocol(), left_remote, right_remote)

        deployment2 = type(deployment)()
        left_local, right_local = _diverged(deployment2)
        FrontierProtocol().run(left_local, right_local)

        assert (
            left_remote.dag.hashes() == right_remote.dag.hashes()
        )
        assert (
            left_local.dag.hashes() == right_local.dag.hashes()
        )

    def test_identical_replicas_two_messages(self, deployment):
        left, right = _diverged(deployment, 0, 0)
        over_loopback(FrontierProtocol(), left, right)
        stats = over_loopback(FrontierProtocol(), left, right)
        assert stats.converged
        assert stats.rounds == 1
        assert stats.total_messages == 2
        assert stats.blocks_pulled == 0
        assert stats.blocks_pushed == 0

    def test_garbage_transport_terminates_cleanly(self, deployment):
        left, right = _diverged(deployment)
        stats = over_loopback(
            FrontierProtocol(), left, right, Replace(b"\xff\xff")
        )
        assert stats.interrupted and not stats.converged

    def test_error_reply_terminates_cleanly(self, deployment):
        left, right = _diverged(deployment)
        error = wire.encode({"type": "error", "reason": "nope"})
        stats = over_loopback(FrontierProtocol(), left, right, Replace(error))
        assert stats.interrupted and not stats.converged

    def test_lying_responder_cannot_poison(self, deployment):
        """A responder that injects a forged block into its replies
        cannot get it into the initiator's DAG."""
        from repro.chain.block import Block
        from repro.crypto.keys import KeyPair

        left, right = _diverged(deployment)
        stranger = KeyPair.deterministic(601)
        forged = Block.create(
            stranger, [deployment.genesis.hash], deployment.clock() + 1
        )

        class Lying(InFlight):
            def edit(self, reply: bytes) -> bytes:
                response = wire.decode(reply)
                if response.get("type") == "frontier_set":
                    response["blocks"] = (
                        [forged.to_wire()] + response["blocks"]
                    )
                return wire.encode(response)

        stats = over_loopback(FrontierProtocol(), left, right, Lying())
        assert stats.converged  # honest blocks still make it
        assert not left.has_block(forged.hash)
        assert stats.invalid_blocks >= 1


#: A request every responder answers, and one none accepts.
FETCH_NOTHING = wire.encode({"type": "get_blocks", "hashes": []})
GARBAGE = b"\xff"


def _answers(node, *requests) -> list:
    """The decoded frames ``serve_connection(node)`` sends back when
    *requests* arrive on one connection, up to the close it must make
    itself."""
    async def scenario():
        async with open_pair() as (near, far):
            server = asyncio.ensure_future(serve_connection(node, far))
            for request in requests:
                await near.send(request)
            await asyncio.wait_for(server, 5.0)
            answers = []
            while True:
                try:
                    answers.append(wire.decode(await near.recv()))
                except TransportClosed:
                    return answers

    return asyncio.run(scenario())


def _chain(deployment, count):
    """*count* blocks one author chains on genesis, parents first; the
    replica under test (member 0) holds none of them."""
    author = deployment.node(1)
    return [author.append_transactions([]) for _ in range(count)]


def _after_pushes(node, batches) -> list:
    """``node``'s DAG after each of *batches* arrives as a one-way
    ``push_blocks`` on one ``serve_connection``.  Each push is followed
    by an empty fetch, whose reply proves the push was handled."""
    async def scenario():
        near, far = stream_pair()
        server = asyncio.ensure_future(serve_connection(node, far))
        held = []
        for batch in batches:
            await near.send(
                encode_message({"type": "push_blocks", "blocks": batch})
            )
            await near.send(FETCH_NOTHING)
            reply = wire.decode(await near.recv())
            assert reply == {"type": "blocks", "blocks": []}
            held.append(set(node.dag.hashes()))
        await near.close()
        await asyncio.wait_for(server, 5.0)
        return held

    return asyncio.run(scenario())


@pytest.fixture
def responders(monkeypatch):
    """Every responder ``serve_connection`` builds, kept so a test can
    read the stats a one-way push charges (it has no reply to read)."""
    import repro.live.protocol as live_protocol

    built = []

    class Kept(live_protocol.LiveResponder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(live_protocol, "LiveResponder", Kept)
    return built


#: Hostile pushes of a three-block chain c: (the batches sent, the chain
#: indices held after each, the duplicates charged in all).
PUSHES = {
    # The second copy changes nothing and is charged as duplicates.
    "replayed": (lambda c: [c, c], [{0, 1, 2}, {0, 1, 2}], 3),
    # Every child ahead of its parent: all of it is placed.
    "child-first": (lambda c: [c[::-1]], [{0, 1, 2}], 0),
    # Parent unknown: nothing is inserted, and nothing is kept to be
    # placed once the parent arrives.
    "orphans": (lambda c: [c[1:], c[:1]], [set(), {0}], 0),
}


class TestEndpointRobustness:
    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"",
            b"\x00",
            b"\xff" * 40,
            wire.encode("not a map"),
            wire.encode({"no_type": 1}),
            wire.encode({"type": "unknown_thing"}),
            wire.encode({"type": "get_frontier"}),  # missing have
            wire.encode({"type": "get_frontier", "have": 7}),
            wire.encode({"type": "get_frontier", "have": [b"short"]}),
            wire.encode({"type": "get_blocks", "hashes": [b"short"]}),
            wire.encode({"type": "push_blocks", "blocks": ["bad"]}),
            # Unsigned CRDT state is no message any replica accepts.
            wire.encode({"type": "delta_summary", "crdts": []}),
            wire.encode({"type": "delta_push", "crdts": [
                ["readings", "g_counter", [[b"\x01" * 32, 5]]],
            ]}),
            # A skip sample one hash over the limit, or not digests.
            wire.encode({"type": "get_blocks", "hashes": [],
                         "sample": [b"\x00" * 32] * (SAMPLE_LIMIT + 1)}),
            wire.encode({"type": "get_blocks", "hashes": [],
                         "sample": [b"short"]}),
            # Well-formed requests of the study protocols under
            # benchmarks/protocols: their replies carry every body they
            # match, uncut by the batch budget, and no replica answers
            # them.
            wire.encode({"type": "get_dag"}),
            wire.encode({"type": "bloom", "filter": {
                "bits": bytes(1), "bit_count": 8, "hash_count": 1,
            }}),
            wire.encode({"type": "height_digests", "digests": []}),
            wire.encode({"type": "sketch", "sketch": {
                "cells": 4, "k": 2, "seed": 0, "counts": [0] * 4,
                "keys": bytes(4 * 32), "checks": bytes(4 * 8),
            }}),
        ],
    )
    def test_bad_requests_get_error_replies(self, deployment,
                                            only_shipped_handlers,
                                            request_bytes):
        # One error frame, then the connection is closed: the request
        # behind it is never answered.
        answers = _answers(deployment.node(0), request_bytes, FETCH_NOTHING)
        assert [answer["type"] for answer in answers] == ["error"]

    def test_get_blocks_skips_unknown_hashes(self, deployment):
        request = wire.encode(
            {"type": "get_blocks", "hashes": [b"\x00" * 32]}
        )
        answers = _answers(deployment.node(0), request, GARBAGE)
        assert answers[0] == {"type": "blocks", "blocks": []}
        assert [answer["type"] for answer in answers[1:]] == ["error"]

    def test_sample_at_the_limit_is_answered(self, deployment):
        """Sixty-four hashes the responder never saw cut nothing: the
        reply lists every ancestor of the asked-for block it did not
        send, genesis included."""
        from repro.chain.block import Block

        node = deployment.node(0)
        chain = [node.append_transactions([]) for _ in range(3)]
        unknown = [bytes([n]) * 32 for n in range(SAMPLE_LIMIT)]
        request = wire.encode({"type": "get_blocks",
                               "hashes": [chain[-1].hash.digest],
                               "sample": unknown})
        [answer] = _answers(node, request, GARBAGE)[:1]
        assert [Block.from_wire(b) for b in answer["blocks"]] == chain[-1:]
        assert answer["hashes"] == sorted(
            h.digest for h in [deployment.genesis.hash, *(
                block.hash for block in chain[:-1])]
        )

    def test_one_way_message_gets_no_reply_frame(self, deployment):
        push = wire.encode({"type": "push_blocks", "blocks": []})
        answers = _answers(deployment.node(0), push, FETCH_NOTHING, GARBAGE)
        assert [answer["type"] for answer in answers] == ["blocks", "error"]

    def test_push_blocks_reports_invalid(self, deployment):
        from repro.chain.block import Block
        from repro.crypto.keys import KeyPair

        node = deployment.node(0)
        responder = Responder(node)
        stranger = KeyPair.deterministic(602)
        forged = Block.create(
            stranger, [deployment.genesis.hash], deployment.clock() + 1
        )
        # A push has no acknowledgement: the verdict lands in the stats
        # the connection's responder charges.
        assert responder.handle(decode_message(wire.encode(
            {"type": "push_blocks", "blocks": [forged.to_wire()]}
        ))) is None
        assert not node.has_block(forged.hash)
        assert responder.stats.invalid_blocks == 1

    @pytest.mark.parametrize("case", PUSHES)
    def test_hostile_push(self, deployment, responders, case):
        batches, held_after, duplicates = PUSHES[case]
        node = deployment.node(0)
        genesis_only = set(node.dag.hashes())
        chain = _chain(deployment, 3)
        held = _after_pushes(node, batches(chain))
        assert held == [
            genesis_only | {chain[index].hash for index in indices}
            for indices in held_after
        ]
        [responder] = responders
        assert responder.stats.duplicate_blocks == duplicates
        assert responder.stats.invalid_blocks == 0

    def test_frame_over_the_limit_closes_the_connection(self, deployment):
        """A frame longer than the serving end's limit poisons the
        stream: the connection closes and the serving task ends without
        raising.  (A loopback pair shares one limit, so its sender
        refuses such a frame; a socket carries whatever a peer writes.)"""
        node = deployment.node(0)
        genesis_only = set(node.dag.hashes())
        push = encode_message(
            {"type": "push_blocks", "blocks": _chain(deployment, 3)}
        )

        async def scenario():
            accepted = asyncio.get_running_loop().create_future()

            async def on_connect(reader, writer):
                accepted.set_result(StreamTransport(
                    reader, writer, max_frame_bytes=len(push) - 1,
                ))

            server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = StreamTransport(
                *await asyncio.open_connection("127.0.0.1", port)
            )
            try:
                serving = asyncio.ensure_future(
                    serve_connection(node, await accepted)
                )
                await client.send(push)
                await asyncio.wait_for(serving, 5.0)
                with pytest.raises(TransportClosed):
                    await client.recv()
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
        assert set(node.dag.hashes()) == genesis_only
