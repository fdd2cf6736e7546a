"""The one protocol registry: every name runs on both drivers."""

import pytest

from repro.reconcile import (
    PROTOCOLS_BY_NAME,
    protocol_class,
    protocol_factory,
)
from repro.reconcile.session import HANDLERS

from tests.conftest import Deployment, over_loopback


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


def _over_asyncio(protocol, left, right):
    return over_loopback(protocol, left, right)


DRIVERS = [_in_process, _over_asyncio]


@pytest.mark.parametrize("name", sorted(PROTOCOLS_BY_NAME))
def test_every_name_converges_on_every_driver(name):
    outcomes = []
    for drive in DRIVERS:
        left, right = _diverged()
        stats = drive(protocol_factory(name)(True), left, right)
        assert stats.converged and not stats.interrupted, drive.__name__
        assert left.state_digest() == right.state_digest(), drive.__name__
        outcomes.append((stats.as_dict(), left.state_digest()))
    # Same definition, both drivers: same accounting, same end state.
    assert outcomes[1] == outcomes[0]


def test_unknown_name_lists_the_registry():
    with pytest.raises(ValueError) as raised:
        protocol_class("osmosis")
    assert str(sorted(PROTOCOLS_BY_NAME)) in str(raised.value)


def test_two_protocols_cannot_claim_one_request_type():
    from repro.reconcile.session import handles

    taken = next(iter(HANDLERS))
    with pytest.raises(ValueError):
        handles(taken)(lambda responder, message: None)
