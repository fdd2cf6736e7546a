"""Reconciliation over the network driver, and the responder's edge:
a session is complete over a framed link and robust to garbage and
hostile replies, and every bad request gets one ``error`` frame before
``serve_connection`` closes the connection."""

import asyncio

import pytest

from repro import wire
from repro.live.protocol import serve_connection
from repro.live.transport import LoopbackTransport, TransportClosed
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.session import Responder, decode_message

from tests.conftest import InFlight, over_loopback


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
        near, far = LoopbackTransport.pair()
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
        ],
    )
    def test_bad_requests_get_error_replies(self, deployment,
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
