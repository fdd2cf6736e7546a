"""Reconciliation protocol tests: the shipped protocol and every study
protocol must converge any pair of replicas of the same chain, and must
refuse foreign chains."""

import pytest

from repro.chain.block import Transaction
from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.reconcile import FrontierProtocol

from benchmarks.protocols import (
    BloomProtocol,
    FullExchangeProtocol,
    HeightSkipProtocol,
    PROTOCOLS,
)

# The shipped protocol and every study protocol run these tests.
ALL_PROTOCOLS = list(PROTOCOLS.values())


def _diverge(deployment, left_appends=5, right_appends=3):
    """Two replicas with common prefix then divergence."""
    left = deployment.node(0)
    right = deployment.node(1)
    shared = left.append_transactions([])
    right.receive_block(shared)
    for _ in range(left_appends):
        left.append_transactions([])
    for _ in range(right_appends):
        right.append_transactions([])
    return left, right


@pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS)
class TestConvergence:
    def test_bidirectional_convergence(self, deployment, protocol_cls):
        left, right = _diverge(deployment)
        stats = protocol_cls().run(left, right)
        assert stats.converged
        assert left.state_digest() == right.state_digest()

    def test_pull_only_when_push_disabled(self, deployment, protocol_cls):
        left, right = _diverge(deployment)
        stats = protocol_cls(push=False).run(left, right)
        assert stats.converged
        assert stats.blocks_pushed == 0
        # Left learned everything; right is unchanged.
        assert right.dag.hashes() < left.dag.hashes()

    def test_identical_replicas_cheap(self, deployment, protocol_cls):
        left, right = _diverge(deployment)
        protocol_cls().run(left, right)
        again = protocol_cls().run(left, right)
        assert again.converged
        assert again.blocks_pulled == 0
        assert again.blocks_pushed == 0

    def test_initiator_strictly_behind(self, deployment, protocol_cls):
        left = deployment.node(0)
        right = deployment.node(1)
        for _ in range(6):
            right.append_transactions([])
        stats = protocol_cls().run(left, right)
        assert stats.converged
        assert left.dag.hashes() == right.dag.hashes()

    def test_initiator_strictly_ahead(self, deployment, protocol_cls):
        left = deployment.node(0)
        right = deployment.node(1)
        for _ in range(6):
            left.append_transactions([])
        stats = protocol_cls().run(left, right)
        assert stats.converged
        assert left.dag.hashes() == right.dag.hashes()

    def test_foreign_chain_refused(self, deployment, protocol_cls):
        ours = deployment.node(0)
        other_owner = KeyPair.deterministic(900)
        foreign_genesis = create_genesis(other_owner, timestamp=0)
        foreign = VegvisirNode(
            other_owner, foreign_genesis, clock=deployment.clock
        )
        stats = protocol_cls().run(ours, foreign)
        assert not stats.converged
        assert stats.total_bytes == 0
        assert len(ours.dag) == 1 + len(
            [b for b in ours.dag.blocks()]
        ) - 1  # unchanged

    def test_crdt_state_transfers(self, deployment, protocol_cls):
        left = deployment.node(0)
        right = deployment.node(1)
        left.create_crdt("log", "append_log", "str", {"append": "*"})
        left.append_transactions([Transaction("log", "append", ["hello"])])
        protocol_cls().run(right, left)
        assert right.crdt_value("log") == ["hello"]


class TestFrontierSpecifics:
    def test_rounds_grow_with_divergence_depth(self, deployment):
        # Both sides diverged: one level of Fig. 3 per round trip for
        # the first three, whose last also names the rest of the gap by
        # hash — so four round trips at any depth past that.  (A side
        # that is simply behind is one round at any depth.)
        rounds = {}
        for depth in (1, 2, 3, 4, 5, 12, 40):
            left, right = _diverge(
                type(deployment)(), left_appends=2, right_appends=depth
            )
            stats = FrontierProtocol().run(left, right)
            assert stats.converged and stats.duplicate_blocks == 0
            assert left.dag.hashes() == right.dag.hashes()
            rounds[depth] = stats.rounds
        assert rounds == {1: 1, 2: 2, 3: 3, 4: 4, 5: 4, 12: 4, 40: 4}

    def test_level_deepening_does_not_resend_blocks(self, deployment):
        left, right = _diverge(deployment, left_appends=1, right_appends=8)
        stats = FrontierProtocol().run(left, right)
        assert stats.converged
        # Every pulled block was sent exactly once: pulled + duplicates
        # cannot exceed what the responder holds.
        assert stats.blocks_pulled <= len(right.dag)

    def test_max_level_cap_stops_runaway(self, deployment):
        left, right = _diverge(deployment, left_appends=1, right_appends=10)
        stats = FrontierProtocol(max_level=2).run(left, right)
        assert not stats.converged
        assert stats.rounds == 2
        assert stats.blocks_pulled == 0 and stats.blocks_pushed == 0

    def test_identical_one_round_trip(self, deployment):
        left, right = _diverge(deployment, 0, 0)
        FrontierProtocol().run(left, right)
        stats = FrontierProtocol().run(left, right)
        assert stats.rounds == 1
        assert stats.total_messages == 2


class TestFullExchangeSpecifics:
    def test_bandwidth_scales_with_chain_not_divergence(self, deployment):
        left, right = _diverge(deployment, left_appends=0, right_appends=1)
        for _ in range(10):  # long shared history
            block = left.append_transactions([])
            right.receive_block(block)
        full = FullExchangeProtocol().run(left, right)
        frontier_deployment = type(deployment)()
        f_left, f_right = _diverge(
            frontier_deployment, left_appends=0, right_appends=1
        )
        for _ in range(10):
            block = f_left.append_transactions([])
            f_right.receive_block(block)
        frontier = FrontierProtocol().run(f_left, f_right)
        assert full.total_bytes > 3 * frontier.total_bytes


class TestBloomSpecifics:
    def test_false_positive_repair(self, deployment):
        # An aggressive FP rate forces repair fetches yet must converge.
        left, right = _diverge(deployment, left_appends=2, right_appends=20)
        protocol = BloomProtocol(false_positive_rate=0.5)
        stats = protocol.run(left, right)
        assert stats.converged
        assert left.dag.hashes() == right.dag.hashes()
        # Each repair round re-sent blocks a false positive hid; the
        # protocol object counts them.
        assert stats.rounds > 1
        assert protocol.fp_resend > 0

    def test_low_fp_rate_single_round(self, deployment):
        left, right = _diverge(deployment, left_appends=2, right_appends=6)
        stats = BloomProtocol(false_positive_rate=0.0001).run(left, right)
        assert stats.converged


class TestHeightSkipSpecifics:
    def test_single_round_trip_on_divergence(self, deployment):
        left, right = _diverge(deployment, left_appends=4, right_appends=7)
        stats = HeightSkipProtocol().run(left, right)
        assert stats.converged
        assert stats.rounds == 1

    def test_digest_bytes_grow_with_height(self, deployment):
        left, right = _diverge(deployment, left_appends=0, right_appends=1)
        small = HeightSkipProtocol().run(left, right)
        for _ in range(20):
            block = left.append_transactions([])
            right.receive_block(block)
        right.append_transactions([])
        tall = HeightSkipProtocol().run(left, right)
        # The initiator's digest message includes one digest per height.
        from repro.reconcile.stats import INITIATOR_TO_RESPONDER
        assert (
            tall.bytes[INITIATOR_TO_RESPONDER]
            > small.bytes[INITIATOR_TO_RESPONDER]
        )
