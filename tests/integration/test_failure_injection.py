"""Failure injection: crashes mid-session, flaky transports, extreme
loss, repeated hostile input — the replica must stay correct (never
corrupt state) and live (recover once conditions allow)."""

from __future__ import annotations

import random

import pytest

from repro.net.links import LinkModel
from repro.reconcile import FrontierProtocol
from repro.sim import Scenario, Simulation

from tests.conftest import InFlight, over_loopback
from tests.reconcile.test_endpoint import _answers


def _diverged(deployment, left_appends=3, right_appends=6):
    left = deployment.node(0)
    right = deployment.node(1)
    shared = left.append_transactions([])
    right.receive_block(shared)
    for _ in range(left_appends):
        left.append_transactions([])
    for _ in range(right_appends):
        right.append_transactions([])
    return left, right


def _sync(left, right, wrap=None):
    return over_loopback(FrontierProtocol(), left, right, wrap)


class CrashingTransport(InFlight):
    """A link that carries N requests, then dies."""

    def __init__(self, survive_requests: int):
        self._remaining = survive_requests

    async def send(self, payload: bytes) -> None:
        if self._remaining <= 0:
            await self._end.close()  # the radio went away mid-session
        self._remaining -= 1
        await super().send(payload)


class CorruptingTransport(InFlight):
    """Randomly corrupts a fraction of responses."""

    def __init__(self, corrupt_rate: float, seed: int):
        self._rng = random.Random(seed)
        self._rate = corrupt_rate

    def edit(self, response: bytes) -> bytes:
        if self._rng.random() < self._rate:
            corrupted = bytearray(response)
            position = self._rng.randrange(len(corrupted))
            corrupted[position] ^= 0xFF
            return bytes(corrupted)
        return response


class TestMidSessionCrash:
    @pytest.mark.parametrize("survive", [0, 1, 2, 3])
    def test_crash_leaves_consistent_state(self, deployment, survive):
        left, right = _diverged(deployment)
        digest_before_blocks = len(left.dag)
        _sync(left, right, CrashingTransport(survive))
        # Partial progress is fine; corruption is not: whatever merged
        # must validate and the CSM must still be internally consistent.
        assert len(left.dag) >= digest_before_blocks
        for block in left.dag.blocks():
            assert left.csm.has_replayed(block.hash)

    def test_retry_after_crash_completes(self, deployment):
        left, right = _diverged(deployment)
        _sync(left, right, CrashingTransport(1))
        stats = _sync(left, right)
        assert stats.converged
        assert left.state_digest() == right.state_digest()

    def test_interrupted_push_recovers(self, deployment):
        # Crash exactly at the push request: pull completed, responder
        # missed the push; the *reverse* session heals it.
        left, right = _diverged(deployment, left_appends=4,
                                right_appends=1)
        # 1 frontier round = 1 request; the 2nd (push) dies.
        torn = _sync(left, right, CrashingTransport(1))
        assert torn.interrupted and torn.blocks_pulled == 1
        assert right.dag.hashes() < left.dag.hashes()
        reverse = _sync(right, left)
        assert reverse.converged
        assert left.state_digest() == right.state_digest()


class TestCorruption:
    def test_corrupted_responses_never_poison(self, deployment):
        left, right = _diverged(deployment)
        union_before = left.dag.hashes() | right.dag.hashes()
        for seed in range(6):
            _sync(left, right,
                  CorruptingTransport(corrupt_rate=0.5, seed=seed))
        # Whatever happened, every block on the replica is genuine.
        assert left.dag.hashes() <= union_before
        clean = _sync(left, right)
        assert clean.converged
        assert left.state_digest() == right.state_digest()


class TestExtremeLoss:
    def test_90_percent_contact_loss_eventually_converges(self):
        sim = Simulation(
            Scenario(node_count=4, duration_ms=30_000,
                     append_interval_ms=8_000,
                     gossip_interval_ms=500,
                     link=LinkModel(loss_rate=0.9, seed=5), seed=5)
        ).run()
        sim.run_quiescence(240_000)
        assert sim.converged()
        assert sim.metrics.contacts_lost > sim.metrics.sessions_completed


class TestHostileRequestFlood:
    def test_endpoint_survives_garbage_flood(self, deployment):
        node = deployment.node(0)
        before = node.state_digest()
        rng = random.Random(9)
        for _ in range(300):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 80)))
            # One error frame, then the connection is closed.
            answers = _answers(node, blob)
            assert [answer["type"] for answer in answers] == ["error"]
        assert node.state_digest() == before
