"""DAG reconciliation protocols (S9, paper §IV-G and Algorithm 1).

Blocks spread by opportunistic pairwise reconciliation: when two nodes
meet, the initiator pulls the blocks it lacks and then pushes the blocks
the responder lacks.  Five protocols share that contract but differ in
how they discover the difference:

* :class:`FrontierProtocol` — the paper's Algorithm 1, told what the
  asker holds: the initiator names its frontier, and the responder
  answers with its own frontier plus only the bodies the initiator can
  lack — the exact difference in one round trip when the initiator is
  simply behind, else its tips and a fetch-by-hash walk down the
  missing branches, which names the rest of a deep gap by hash at its
  third level: at most four round trips plus one per budget of bodies.
* :class:`FullExchangeProtocol` — the strawman the paper compares
  against: ship the entire DAG.
* :class:`BloomProtocol` — the §VI "more efficient reconciliation"
  direction: exchange a Bloom digest of held hashes, then transfer only
  probably-missing blocks, repairing false positives by explicit fetches.
* :class:`HeightSkipProtocol` — per-height digests locate the lowest
  diverging height in one round trip, then transfer everything above it.
* :class:`SketchProtocol` — an invertible sketch sized for the
  *difference*: one round trip, bytes independent of DAG size.

Each protocol is written **once**, as an initiator generator plus
responder handlers that each touch only their own replica
(:mod:`repro.reconcile.session`).  Two generic drivers run that pair
and know no message vocabulary: the in-process
:class:`ReconcileSession` (the simulator, atomically or one wire
message at a time — a session can be interrupted by mobility or
partition onset between any two messages), and the asyncio driver in
:mod:`repro.live.protocol` (every network link).  Both count the exact
canonical-wire bytes and messages each direction, so the bandwidth
experiments (F3, E5) measure real encodings.
"""

from repro.reconcile.bloom import BloomFilter, BloomProtocol
from repro.reconcile.engine import (
    Protocol,
    ReconcileSession,
    SessionStep,
    drive_to_completion,
)
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.full import FullExchangeProtocol
from repro.reconcile.session import (
    ReconcileError,
    Responder,
    SessionSide,
    merge_blocks,
)
from repro.reconcile.sketch import IBLT, SketchProtocol
from repro.reconcile.skip import HeightSkipProtocol
from repro.reconcile.stats import ReconcileStats

__all__ = [
    "BloomFilter",
    "BloomProtocol",
    "FrontierProtocol",
    "FullExchangeProtocol",
    "HeightSkipProtocol",
    "IBLT",
    "PROTOCOLS_BY_NAME",
    "Protocol",
    "ReconcileError",
    "ReconcileSession",
    "ReconcileStats",
    "Responder",
    "SessionSide",
    "SessionStep",
    "SketchProtocol",
    "drive_to_completion",
    "merge_blocks",
    "protocol_class",
    "protocol_factory",
]

#: The one registry: wire name -> protocol class, for the simulator, the
#: live runtime, the chaos runner and the CLI alike.  Every class
#: accepts a ``push`` keyword, and importing its module registered its
#: responder handlers.
PROTOCOLS_BY_NAME = {
    "frontier": FrontierProtocol,
    "full": FullExchangeProtocol,
    "bloom": BloomProtocol,
    "height_skip": HeightSkipProtocol,
    "sketch": SketchProtocol,
}


def protocol_class(name: str):
    """The protocol class registered under *name*.

    Raises ``ValueError`` naming the valid choices for anything else —
    the CLI surfaces that as its one-line ``error:`` exit.
    """
    try:
        return PROTOCOLS_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}: expected one of "
            f"{sorted(PROTOCOLS_BY_NAME)}"
        ) from None


def protocol_factory(name: str):
    """A ``Scenario.protocol_factory`` callable for a named protocol."""
    cls = protocol_class(name)
    return lambda push: cls(push=push)
