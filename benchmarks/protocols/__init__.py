"""The reconciliation protocols the paper's own is measured against.

A replica ships one protocol, :class:`~repro.reconcile.FrontierProtocol`
(Algorithm 1 over Fig. 3's levels, §IV-G), and answers three request
types: ``get_frontier``, ``get_blocks`` and ``push_blocks``.  The four
here are §VI's comparisons, kept as study code for E5, F3, A6, A7, A8,
A14 and A15:

* :class:`FullExchangeProtocol` — the strawman: ship the entire DAG;
* :class:`BloomProtocol` — a Bloom digest of held hashes, then only
  the probably-missing blocks, repairing false positives by fetch;
* :class:`HeightSkipProtocol` — per-height digests find the lowest
  diverging height in one round trip, then everything above it;
* :class:`SketchProtocol` — an invertible sketch sized for the
  difference: one round trip, bytes independent of DAG size.

Each is written like the shipped one: an initiator generator plus
responder handlers that importing this package registers with
:func:`repro.reconcile.session.handles`.  So they run unchanged on both
session drivers — ``drive_to_completion`` / ``Scenario(protocol_factory=…)``
in process, ``run_session`` / ``serve_connection`` over a transport —
in any process that imported them.  Their answers are not cut at
``BATCH_BUDGET_BYTES``; that is one reason none of them ships.

``python -m benchmarks.protocols.chaos --protocol NAME`` runs the chaos
invariant harness with one of them.
"""

from repro.reconcile.frontier import FrontierProtocol

from benchmarks.protocols.bloom import BloomProtocol
from benchmarks.protocols.full import FullExchangeProtocol
from benchmarks.protocols.sketch import SketchProtocol
from benchmarks.protocols.skip import HeightSkipProtocol

#: Name -> class for sweeps over every protocol, the shipped one first.
#: Every class accepts a ``push`` keyword.
PROTOCOLS = {
    "frontier": FrontierProtocol,
    "full": FullExchangeProtocol,
    "bloom": BloomProtocol,
    "height_skip": HeightSkipProtocol,
    "sketch": SketchProtocol,
}

__all__ = [
    "BloomProtocol",
    "FullExchangeProtocol",
    "HeightSkipProtocol",
    "PROTOCOLS",
    "SketchProtocol",
]
