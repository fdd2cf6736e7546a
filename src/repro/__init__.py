"""Vegvisir: a partition-tolerant DAG blockchain for the Internet-of-Things.

Reproduction of Karlsson et al., ICDCS 2018.  Subpackages:

* ``repro.wire`` — canonical binary serialization
* ``repro.crypto`` — SHA-256 hashing and pure-Python Ed25519
* ``repro.membership`` — role certificates and the certificate authority
* ``repro.crdt`` — conflict-free replicated data types
* ``repro.chain`` — blocks, transactions, and the block DAG
* ``repro.csm`` — the CRDT state machine
* ``repro.core`` — the Vegvisir node, genesis, proof-of-witness
* ``repro.reconcile`` — DAG reconciliation (the paper's Algorithm 1)
* ``repro.support`` — superpeers and the support blockchain
* ``repro.net`` — discrete-event ad-hoc network simulator
* ``repro.sim`` — gossip simulation harness, energy model, adversaries
* ``repro.apps`` — the paper's three motivating applications

The comparison baselines (Nakamoto, quorum, tangle) and the other
reconciliation protocols the paper measures against are study code
under ``benchmarks/``; nothing here imports them.
"""

__version__ = "1.0.0"

from repro.chain.block import Block, BlockHeader, Transaction
from repro.chain.dag import BlockDAG
from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.core.witness import WitnessTracker
from repro.crypto.keys import KeyPair
from repro.crypto.sha import Hash
from repro.membership.authority import CertificateAuthority
from repro.membership.certificate import Certificate

__all__ = [
    "Block",
    "BlockDAG",
    "BlockHeader",
    "Certificate",
    "CertificateAuthority",
    "Hash",
    "KeyPair",
    "Transaction",
    "VegvisirNode",
    "WitnessTracker",
    "__version__",
    "create_genesis",
]
