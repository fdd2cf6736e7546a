"""Comparison baselines (S14).

The paper's argument is comparative: Nakamoto-style chains need high
connectivity and burn energy on proof-of-work (§I), and DAG chains like
IOTA's tangle still assume strong connectivity (§III).  Both are
implemented here from scratch so experiments E1/E2 can measure the
comparison rather than assert it.
"""

from benchmarks.baselines.nakamoto import (
    NakamotoChain,
    NakamotoNetwork,
    PowBlock,
    PowMiner,
)
from benchmarks.baselines.quorum import QuorumBlock, QuorumChain
from benchmarks.baselines.tangle import Tangle, TangleTransaction

__all__ = [
    "NakamotoChain",
    "NakamotoNetwork",
    "PowBlock",
    "PowMiner",
    "QuorumBlock",
    "QuorumChain",
    "Tangle",
    "TangleTransaction",
]
