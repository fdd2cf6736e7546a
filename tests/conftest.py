"""Shared fixtures: deterministic keys, certificates, genesis, nodes.

Everything is seeded so the suite is bit-for-bit reproducible.  The
``chain`` fixture gives a small ready-made deployment: an owner, four
members with assorted roles, a genesis carrying all certificates, and a
shared monotonic test clock (and a runtime telling the time by it).
:func:`over_loopback` runs one session on
the network driver, and :class:`InFlight` tampers with its link.
:func:`shipped_handlers` is the responder table of a process that
imports only ``repro``, and :func:`only_shipped_handlers` puts a test
back in one.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.live.antientropy import SESSION_ERRORS
from repro.live.protocol import run_session, serve_connection
from repro.membership.authority import CertificateAuthority
from repro.reconcile.stats import ReconcileStats
from repro.runtime import Runtime

from tests.live.memory_runtime import stream_pair


class TestClock:
    """A shared monotonic clock; each call advances 10 ms."""

    def __init__(self, start_ms: int = 1_000):
        self.now = start_ms

    def __call__(self) -> int:
        self.now += 10
        return self.now


class ClockedRuntime(Runtime):
    """The system runtime, telling wall-clock time by *clock*."""

    def __init__(self, clock):
        self.wall_ms = clock


class Deployment:
    """A ready-to-use blockchain deployment for tests."""

    ROLES = ["medic", "sensor", "farmer", "superpeer"]

    def __init__(self):
        self.clock = TestClock()
        self.runtime = ClockedRuntime(self.clock)
        self.owner = KeyPair.deterministic(0)
        self.authority = CertificateAuthority(self.owner)
        self.keys = [KeyPair.deterministic(i + 1) for i in range(4)]
        self.certificates = [
            self.authority.issue(key.public_key, role, issued_at=1)
            for key, role in zip(self.keys, self.ROLES)
        ]
        self.genesis = create_genesis(
            self.owner,
            chain_name="test-chain",
            timestamp=0,
            founding_members=self.certificates,
        )

    def node(self, index: int = 0, **kwargs) -> VegvisirNode:
        """A member node (index into the four members)."""
        kwargs.setdefault("clock", self.clock)
        return VegvisirNode(self.keys[index], self.genesis, **kwargs)

    def owner_node(self, **kwargs) -> VegvisirNode:
        kwargs.setdefault("clock", self.clock)
        return VegvisirNode(self.owner, self.genesis, **kwargs)


class InFlight:
    """The initiator's end of a link, passing every reply through
    :meth:`edit` on its way in.  Called with the end it wraps, it
    returns itself: a ``wrap`` for :func:`over_loopback`."""

    def __call__(self, end):
        self._end = end
        return self

    async def send(self, payload: bytes) -> None:
        await self._end.send(payload)

    async def recv(self) -> bytes:
        return self.edit(await self._end.recv())

    def edit(self, reply: bytes) -> bytes:
        return reply


def over_loopback(protocol, left: VegvisirNode, right: VegvisirNode,
                  wrap=None, **session_kwargs) -> ReconcileStats:
    """One session on the network driver: *left* runs *protocol*'s
    initiator (``run_session``) against ``serve_connection(right)`` over
    a loopback pair.  *wrap*, if given, turns the initiator's end into
    the transport the session uses — the place to tamper with a link.

    A session the anti-entropy loop would count as interrupted comes
    back with ``stats.interrupted`` set; any other exception escapes.
    """
    async def scenario():
        near, far = stream_pair()
        server = asyncio.ensure_future(serve_connection(right, far))
        stats = ReconcileStats(protocol.name)
        try:
            await run_session(
                protocol, left, near if wrap is None else wrap(near), stats,
                **session_kwargs,
            )
        except SESSION_ERRORS:
            stats.interrupted = True
        finally:
            await near.close()
            await asyncio.wait_for(server, 5.0)
        return stats

    return asyncio.run(scenario())


@pytest.fixture
def deployment() -> Deployment:
    return Deployment()


@pytest.fixture
def clock() -> TestClock:
    return TestClock()


#: Imports every module under ``repro`` in a fresh interpreter whose
#: path holds only ``src`` (so ``benchmarks`` cannot be imported) and
#: prints the request types its responder answers.
_SHIPPED_HANDLERS = """
import importlib, pkgutil, repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
from repro.reconcile.session import HANDLERS
print(" ".join(sorted(HANDLERS)))
"""


@pytest.fixture(scope="session")
def shipped_handlers() -> list:
    """The request types a replica answers when nothing but ``repro`` is
    loaded.  Importing ``benchmarks.protocols`` registers the study
    protocols' handlers in this process, and test modules do."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _SHIPPED_HANDLERS], cwd=src,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=True,
    ).stdout
    return out.split()


@pytest.fixture
def only_shipped_handlers(monkeypatch, shipped_handlers):
    """The responder answers what a shipped replica answers, whatever
    study protocols this process imported."""
    from repro.reconcile import session

    monkeypatch.setattr(session, "HANDLERS", {
        kind: session.HANDLERS[kind] for kind in shipped_handlers
    })
