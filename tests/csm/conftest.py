"""Shared by the CSM suites: verdict comparison, and memberships too
large to sign for."""

import pytest

from repro.crypto.ed25519 import PublicKey
from repro.crypto.sha import Hash
from repro.csm.machine import clear_genesis_cache
from repro.membership.certificate import Certificate


def verdicts(machine, block_hash):
    """A replayed block's outcomes as comparable tuples."""
    return [
        (o.crdt_name, o.op, o.applied, o.reason)
        for o in machine.outcomes(block_hash)
    ]


def unsigned_founders(count):
    """Certificates for keys nobody holds, signed by nobody: enough for
    counting (`trusting_ca` stands in for the signature check)."""
    return [
        Certificate(PublicKey(Hash.of_value(["founder", i]).digest),
                    "sensor", issued_at=1, signature=bytes(64))
        for i in range(count)
    ]


@pytest.fixture
def trusting_ca(monkeypatch):
    """Every certificate verifies.  The count tests that ask for this are
    about how much bookkeeping a replica or a block costs, not about
    Ed25519, and a thousand pure-Python verifications would be most of
    tier-1's minute."""
    monkeypatch.setattr(Certificate, "verify", lambda self, ca_key: True)
    clear_genesis_cache()
    yield
    clear_genesis_cache()
