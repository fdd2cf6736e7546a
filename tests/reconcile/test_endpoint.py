"""Byte-transport reconciliation tests: the protocol must be complete
over a pure bytes channel and robust to garbage and hostile replies."""

import pytest

from repro import wire
from repro.reconcile.endpoint import (
    ReconcileEndpoint,
    RemoteSession,
    hello_message,
)
from repro.reconcile.frontier import FrontierProtocol


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


class TestRemoteSession:
    def test_full_sync_over_bytes(self, deployment):
        left, right = _diverged(deployment)
        endpoint = ReconcileEndpoint(right)
        stats = RemoteSession(left, endpoint.handle).sync()
        assert stats.converged
        assert left.state_digest() == right.state_digest()

    def test_matches_in_memory_protocol_result(self, deployment):
        left_remote, right_remote = _diverged(deployment)
        RemoteSession(
            left_remote, ReconcileEndpoint(right_remote).handle
        ).sync()

        deployment2 = type(deployment)()
        left_local, right_local = _diverged(deployment2)
        FrontierProtocol().run(left_local, right_local)

        assert (
            left_remote.dag.hashes() == right_remote.dag.hashes()
        )
        assert (
            left_local.dag.hashes() == right_local.dag.hashes()
        )

    def test_identical_replicas_two_messages_after_hello(self, deployment):
        left, right = _diverged(deployment, 0, 0)
        endpoint = ReconcileEndpoint(right)
        RemoteSession(left, endpoint.handle).sync()
        stats = RemoteSession(left, endpoint.handle).sync()
        assert stats.converged
        assert stats.rounds == 1
        assert stats.total_messages == 2  # the hello is not session traffic
        assert stats.blocks_pulled == 0
        assert stats.blocks_pushed == 0

    def test_foreign_chain_refused_at_hello(self, deployment):
        from repro.core.genesis import create_genesis
        from repro.core.node import VegvisirNode
        from repro.crypto.keys import KeyPair

        left = deployment.node(0)
        stranger = KeyPair.deterministic(600)
        foreign = VegvisirNode(
            stranger, create_genesis(stranger), clock=deployment.clock
        )
        stats = RemoteSession(left, ReconcileEndpoint(foreign).handle).sync()
        assert not stats.converged
        assert stats.total_messages == 0
        assert stats.blocks_pulled == 0
        # ...and the endpoint refuses a foreign initiator's hello too.
        refusal = ReconcileEndpoint(foreign).handle(
            wire.encode(hello_message(left))
        )
        assert wire.decode(refusal)["type"] == "error"

    def test_garbage_transport_terminates_cleanly(self, deployment):
        left, _ = _diverged(deployment)
        stats = RemoteSession(left, lambda request: b"\xff\xff").sync()
        assert not stats.converged

    def test_error_reply_terminates_cleanly(self, deployment):
        left, _ = _diverged(deployment)
        error = wire.encode({"type": "error", "reason": "nope"})
        stats = RemoteSession(left, lambda request: error).sync()
        assert not stats.converged

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
        endpoint = ReconcileEndpoint(right)

        def hostile(request: bytes) -> bytes:
            reply = endpoint.handle(request)
            if not reply:
                return reply  # a one-way message has no reply
            response = wire.decode(reply)
            if response.get("type") == "frontier_set":
                response["blocks"] = (
                    [forged.to_wire()] + response["blocks"]
                )
            return wire.encode(response)

        stats = RemoteSession(left, hostile).sync()
        assert stats.converged  # honest blocks still make it
        assert not left.has_block(forged.hash)
        assert stats.invalid_blocks >= 1


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
        endpoint = ReconcileEndpoint(deployment.node(0))
        response = wire.decode(endpoint.handle(request_bytes))
        assert response["type"] == "error"

    def test_get_blocks_skips_unknown_hashes(self, deployment):
        endpoint = ReconcileEndpoint(deployment.node(0))
        request = wire.encode(
            {"type": "get_blocks", "hashes": [b"\x00" * 32]}
        )
        response = wire.decode(endpoint.handle(request))
        assert response == {"type": "blocks", "blocks": []}

    def test_push_blocks_reports_invalid(self, deployment):
        from repro.chain.block import Block
        from repro.crypto.keys import KeyPair

        node = deployment.node(0)
        endpoint = ReconcileEndpoint(node)
        stranger = KeyPair.deterministic(602)
        forged = Block.create(
            stranger, [deployment.genesis.hash], deployment.clock() + 1
        )
        # A push has no acknowledgement: the verdict lands in the stats
        # the endpoint's responder charges.
        assert endpoint.handle(wire.encode(
            {"type": "push_blocks", "blocks": [forged.to_wire()]}
        )) == b""
        assert not node.has_block(forged.hash)
        assert endpoint.stats.invalid_blocks == 1


class TestFramedEndpoint:
    """The endpoint behind the shared stream framing (what TCP carries)."""

    def _framed(self, deployment):
        from repro.reconcile.endpoint import FramedEndpoint

        left, right = _diverged(deployment)
        return left, right, FramedEndpoint(ReconcileEndpoint(right))

    def test_full_sync_through_frames(self, deployment):
        from repro.wire.framing import decode_frames, encode_frame

        left, right, framed = self._framed(deployment)

        def transport(request: bytes) -> bytes:
            replies = decode_frames(framed.feed(encode_frame(request)))
            assert len(replies) <= 1
            return replies[0] if replies else b""

        stats = RemoteSession(left, transport).sync()
        assert stats.converged
        assert left.state_digest() == right.state_digest()

    def test_split_request_is_reassembled(self, deployment):
        from repro.wire.framing import decode_frames, encode_frame

        _, right, framed = self._framed(deployment)
        request = encode_frame(
            wire.encode({"type": "get_frontier", "have": []})
        )
        assert framed.feed(request[:3]) == b""
        assert framed.buffered == 3
        [reply] = decode_frames(framed.feed(request[3:]))
        assert wire.decode(reply)["type"] == "frontier_set"
        assert framed.buffered == 0

    def test_pipelined_requests_get_pipelined_replies(self, deployment):
        from repro.wire.framing import decode_frames, encode_frame

        _, right, framed = self._framed(deployment)
        hello = encode_frame(wire.encode(hello_message(right)))
        fetch = encode_frame(
            wire.encode({"type": "get_blocks", "hashes": []})
        )
        replies = decode_frames(framed.feed(hello + fetch))
        assert [wire.decode(r)["type"] for r in replies] == [
            "live_hello", "blocks",
        ]

    def test_one_way_message_gets_no_reply_frame(self, deployment):
        from repro.wire.framing import encode_frame

        _, _, framed = self._framed(deployment)
        push = encode_frame(wire.encode({"type": "push_blocks", "blocks": []}))
        assert framed.feed(push) == b""

    def test_oversize_frame_poisons_the_stream(self, deployment):
        _, _, framed = self._framed(deployment)
        announcement = (2**31).to_bytes(4, "big")
        with pytest.raises(wire.FrameError):
            framed.feed(announcement)
