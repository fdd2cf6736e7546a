"""The CRDT state machine (S7, paper §IV-E).

The CSM is the second of the paper's two components: the blockchain
component stores and validates blocks; the CSM validates the transactions
inside them and updates the membership set ``U`` and the user CRDTs ``Ω``.

Replay-order independence is the design invariant.  Every validity
decision — is the creator a member, which CRDT does a name refer to, does
the creator's role permit the operation — is evaluated against the
*block's own causal past*, never against whatever the replica happens to
have seen, so all replicas reach identical verdicts and identical state
no matter which topological order blocks arrive in.
"""

from repro.csm.errors import CSMError
from repro.csm.machine import CSMachine, TxOutcome

__all__ = [
    "CSMError",
    "CSMachine",
    "TxOutcome",
]
