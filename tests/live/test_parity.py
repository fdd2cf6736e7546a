"""Live/sim byte parity: the frames a live session puts on the wire must
equal the in-process driver's wire messages, byte for byte.

Both drivers run the same protocol definition, so this holds by
construction; the suite is the tripwire on the drivers themselves
(framing, lowering, accounting, one-way messages).  Each test builds
*two* identical deployments (deterministic keys, fixed genesis,
lock-step clocks, same append sequence), steps the in-process driver on
one pair while recording every ``(direction, encoded message)``, runs
the asyncio driver over a loopback transport on the other pair while
tapping every frame payload, and compares the full ordered sequences —
plus the resulting stats and replica digests.
"""

import asyncio

import pytest

from repro import wire
from repro.live.protocol import run_session, serve_connection
from repro.reconcile import FrontierProtocol
from repro.reconcile.engine import ReconcileSession
from repro.reconcile.stats import (
    INITIATOR_TO_RESPONDER,
    RESPONDER_TO_INITIATOR,
)

from benchmarks.protocols import (
    BloomProtocol,
    FullExchangeProtocol,
    HeightSkipProtocol,
    SketchProtocol,
)
from tests.conftest import Deployment
from tests.live.memory_runtime import stream_pair


def _apply(deployment, left_appends, right_appends, shared_prefix=1):
    """A divergent pair, reproducibly (same calls ⇒ same bytes)."""
    left = deployment.node(0)
    right = deployment.node(1)
    for _ in range(shared_prefix):
        shared = left.append_transactions([])
        right.receive_block(shared)
    for _ in range(left_appends):
        left.append_transactions([])
    for _ in range(right_appends):
        right.append_transactions([])
    return left, right


def _sim_trace(protocol, initiator, responder):
    """Run the message-level sim driver, recording every wire message."""
    session = ReconcileSession(protocol, initiator, responder)
    trace = []
    while True:
        step = session.next_step()
        if step is None:
            break
        trace.append((step.direction, wire.encode(step.message)))
    return trace, session.stats


def _live_trace(protocol, initiator, responder):
    """Run the live split over loopback, tapping every frame payload."""
    trace = []

    def tap(direction, payload):
        trace.append((
            INITIATOR_TO_RESPONDER if direction == "send"
            else RESPONDER_TO_INITIATOR,
            payload,
        ))

    async def scenario():
        init_end, resp_end = stream_pair()
        init_end.tap = tap
        server = asyncio.ensure_future(
            serve_connection(responder, resp_end)
        )
        stats = await run_session(protocol, initiator, init_end)
        await init_end.close()
        await server
        return stats

    return trace, asyncio.run(scenario())


SCENARIOS = [
    # (left appends, right appends, shared prefix)
    pytest.param(5, 3, 1, id="diverged"),
    pytest.param(0, 6, 1, id="initiator-behind"),
    pytest.param(6, 0, 1, id="initiator-ahead"),
    pytest.param(0, 0, 1, id="identical"),
    pytest.param(12, 9, 4, id="deep"),
]

PROTOCOLS = [
    pytest.param(FrontierProtocol, {}, id="frontier"),
    pytest.param(FrontierProtocol, {"push": False}, id="frontier-pull-only"),
    pytest.param(FullExchangeProtocol, {}, id="full"),
    pytest.param(BloomProtocol, {}, id="bloom"),
    pytest.param(BloomProtocol, {"push": False}, id="bloom-pull-only"),
    pytest.param(HeightSkipProtocol, {}, id="height-skip"),
    pytest.param(SketchProtocol, {}, id="sketch"),
    pytest.param(SketchProtocol, {"push": False}, id="sketch-pull-only"),
    pytest.param(
        # A starved first sketch forces the doubling retry (and, on the
        # deep scenario, the frontier fallback) through the parity check.
        SketchProtocol, {"initial_diff": 1, "max_attempts": 2},
        id="sketch-undersized",
    ),
]


@pytest.mark.parametrize("protocol_cls,kwargs", PROTOCOLS)
@pytest.mark.parametrize("left_n,right_n,prefix", SCENARIOS)
class TestByteParity:
    def test_wire_traffic_is_byte_identical(
        self, protocol_cls, kwargs, left_n, right_n, prefix
    ):
        sim_left, sim_right = _apply(Deployment(), left_n, right_n, prefix)
        live_left, live_right = _apply(
            Deployment(), left_n, right_n, prefix
        )
        # The two worlds must start from identical replicas...
        assert sim_left.state_digest() == live_left.state_digest()
        assert sim_right.state_digest() == live_right.state_digest()

        sim_trace, sim_stats = _sim_trace(
            protocol_cls(**kwargs), sim_left, sim_right
        )
        live_trace, live_stats = _live_trace(
            protocol_cls(**kwargs), live_left, live_right
        )

        # ...exchange identical byte sequences...
        assert [d for d, _ in live_trace] == [d for d, _ in sim_trace]
        assert live_trace == sim_trace

        # ...account identically...
        assert live_stats.bytes == sim_stats.bytes
        assert live_stats.messages == sim_stats.messages
        assert live_stats.rounds == sim_stats.rounds
        assert live_stats.blocks_pulled == sim_stats.blocks_pulled
        assert live_stats.blocks_pushed == sim_stats.blocks_pushed
        assert live_stats.converged == sim_stats.converged

        # ...and end in identical replica states.
        assert live_left.state_digest() == sim_left.state_digest()
        assert live_right.state_digest() == sim_right.state_digest()


class TestLiveSemantics:
    """Live-only behaviour on top of the parity guarantee."""

    def test_session_converges_both_directions(self):
        left, right = _apply(Deployment(), 4, 4)
        _, stats = _live_trace(FrontierProtocol(), left, right)
        assert stats.converged
        assert left.dag.hashes() == right.dag.hashes()

    def test_repeat_session_is_cheap(self):
        left, right = _apply(Deployment(), 4, 2)
        _live_trace(FrontierProtocol(), left, right)
        _, again = _live_trace(FrontierProtocol(), left, right)
        assert again.converged
        assert again.blocks_pulled == 0
        assert again.blocks_pushed == 0

    def test_two_sessions_same_connection_reset_responder_memo(self):
        """The responder keeps nothing between requests, so back-to-back
        sessions on one connection stay correct."""
        left, right = _apply(Deployment(), 2, 2)

        async def scenario():
            init_end, resp_end = stream_pair()
            server = asyncio.ensure_future(
                serve_connection(right, resp_end)
            )
            first = await run_session(FrontierProtocol(), left, init_end)
            left.append_transactions([])
            right.append_transactions([])
            second = await run_session(FrontierProtocol(), left, init_end)
            await init_end.close()
            await server
            return first, second

        first, second = asyncio.run(scenario())
        assert first.converged and second.converged
        assert left.dag.hashes() == right.dag.hashes()

    def test_bloom_converges_over_loopback(self):
        left, right = _apply(Deployment(), 6, 5, shared_prefix=2)
        _, stats = _live_trace(BloomProtocol(), left, right)
        assert stats.converged
        assert left.dag.hashes() == right.dag.hashes()
