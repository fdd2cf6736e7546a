"""The request registry: a shipped replica answers three request types,
and every study protocol, registered on import, runs on both drivers."""

import pytest

from repro.reconcile.session import HANDLERS

from benchmarks.protocols import PROTOCOLS
from benchmarks.protocols.chaos import main as chaos_main
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


def test_a_shipped_replica_answers_three_request_types(shipped_handlers):
    assert shipped_handlers == ["get_blocks", "get_frontier", "push_blocks"]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_every_name_converges_on_every_driver(name):
    outcomes = []
    for drive in DRIVERS:
        left, right = _diverged()
        stats = drive(PROTOCOLS[name](push=True), left, right)
        assert stats.converged and not stats.interrupted, drive.__name__
        assert left.state_digest() == right.state_digest(), drive.__name__
        outcomes.append((stats.as_dict(), left.state_digest()))
    # Same definition, both drivers: same accounting, same end state.
    assert outcomes[1] == outcomes[0]


def test_unknown_name_lists_the_registry(capsys):
    with pytest.raises(SystemExit):
        chaos_main(["--protocol", "osmosis", "--seeds", "1"])
    err = capsys.readouterr().err
    assert "osmosis" in err
    for name in PROTOCOLS:
        assert repr(name) in err


def test_two_protocols_cannot_claim_one_request_type():
    from repro.reconcile.session import handles

    taken = next(iter(HANDLERS))
    with pytest.raises(ValueError):
        handles(taken)(lambda responder, message: None)
