"""DAG reconciliation (S9, paper §IV-G and Algorithm 1).

Blocks spread by opportunistic pairwise reconciliation: when two nodes
meet, the initiator pulls the blocks it lacks and then pushes the blocks
the responder lacks.  A replica reconciles with one protocol,
:class:`FrontierProtocol` — the paper's Algorithm 1, told what the
asker holds: the initiator names its frontier, and the responder
answers with its own frontier plus only the bodies the initiator can
lack — the exact difference in one round trip when the initiator is
simply behind, else its tips and a fetch-by-hash walk down the missing
branches, which names the rest of a deep gap by hash at its third
level: at most four round trips plus one per budget of bodies.  Its
responder answers three request types (``get_frontier``,
``get_blocks``, ``push_blocks``), every reply cut at the batch budget.

The protocols the paper compares against (full exchange, Bloom, height
digests, invertible sketches) are study code under
``benchmarks/protocols/``; they plug into the same two halves.

A protocol is written **once**, as an initiator generator plus
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

from repro.reconcile.engine import (
    Protocol,
    ReconcileSession,
    SessionStep,
    drive_to_completion,
)
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.session import (
    ReconcileError,
    Responder,
    SessionSide,
    merge_blocks,
)
from repro.reconcile.stats import ReconcileStats

__all__ = [
    "FrontierProtocol",
    "Protocol",
    "ReconcileError",
    "ReconcileSession",
    "ReconcileStats",
    "Responder",
    "SessionSide",
    "SessionStep",
    "drive_to_completion",
    "merge_blocks",
]
