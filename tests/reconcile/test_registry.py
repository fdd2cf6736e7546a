"""The one protocol registry: every name runs on all three drivers."""

import asyncio

import pytest

from repro.live.protocol import run_session, serve_connection
from repro.live.transport import LoopbackTransport
from repro.reconcile import (
    PROTOCOLS_BY_NAME,
    ReconcileEndpoint,
    RemoteSession,
    protocol_class,
    protocol_factory,
)
from repro.reconcile.session import HANDLERS

from tests.conftest import Deployment


def _diverged():
    deployment = Deployment()
    left, right = deployment.node(0), deployment.node(1)
    shared = left.append_transactions([])
    right.receive_block(shared)
    for _ in range(4):
        left.append_transactions([])
    for _ in range(6):
        right.append_transactions([])
    return left, right


def _in_process(protocol, left, right):
    return protocol.run(left, right)


def _over_bytes(protocol, left, right):
    return RemoteSession(
        left, ReconcileEndpoint(right).handle, protocol
    ).sync()


def _over_asyncio(protocol, left, right):
    async def scenario():
        near_end, far_end = LoopbackTransport.pair()
        server = asyncio.ensure_future(serve_connection(right, far_end))
        stats = await run_session(protocol, left, near_end)
        await near_end.close()
        await server
        return stats

    return asyncio.run(scenario())


DRIVERS = [_in_process, _over_bytes, _over_asyncio]


@pytest.mark.parametrize("name", sorted(PROTOCOLS_BY_NAME))
def test_every_name_converges_on_every_driver(name):
    outcomes = []
    for drive in DRIVERS:
        left, right = _diverged()
        stats = drive(protocol_factory(name)(True), left, right)
        assert stats.converged and not stats.interrupted, drive.__name__
        assert left.state_digest() == right.state_digest(), drive.__name__
        outcomes.append((stats.as_dict(), left.state_digest()))
    # Same definition, three drivers: same accounting, same end state.
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


def test_unknown_name_lists_the_registry():
    with pytest.raises(ValueError) as raised:
        protocol_class("osmosis")
    assert str(sorted(PROTOCOLS_BY_NAME)) in str(raised.value)


def test_two_protocols_cannot_claim_one_request_type():
    from repro.reconcile.session import handles

    taken = next(iter(HANDLERS))
    with pytest.raises(ValueError):
        handles(taken)(lambda responder, message: None)
