"""Conflict-free replicated data types (S4, paper §IV-D).

Vegvisir restricts applications to CRDT operations so that any total order
consistent with the block DAG's partial order yields the same state.  The
CRDTs here are *operation-based*: the CRDT state machine replays each
transaction exactly once, in some topological order of the DAG, and all
concurrent operations commute.

Operations that need creation-time knowledge (observed-remove tags in the
OR-Set, overwritten entries in the MV-Register) carry that knowledge in
their arguments, filled in by the issuing replica, so that replay is fully
deterministic on every other replica.

Implemented types: G-Set, 2P-Set, G-Counter, PN-Counter, LWW-Register,
MV-Register, OR-Set, OR-Map, and an append-only log, plus the named-CRDT
collection ``Ω`` from the paper.
"""

from repro.crdt.base import (
    CRDT,
    CRDTError,
    InvalidOperation,
    OpContext,
    TypeCheckError,
    crdt_type,
    crdt_type_names,
    register_crdt_type,
)
from repro.crdt.collection import CRDTCollection, CreateRecord
from repro.crdt.counters import GCounter, PNCounter
from repro.crdt.graph import TwoPTwoPGraph
from repro.crdt.gset import GSet
from repro.crdt.log import AppendLog
from repro.crdt.ormap import ORMap
from repro.crdt.orset import ORSet
from repro.crdt.registers import LWWRegister, MVRegister
from repro.crdt.schema import Permissions, Schema, check_type, validate_spec
from repro.crdt.sequence import RGASequence
from repro.crdt.twophase import TwoPhaseSet

__all__ = [
    "AppendLog",
    "CRDT",
    "CRDTCollection",
    "CRDTError",
    "CreateRecord",
    "GCounter",
    "GSet",
    "InvalidOperation",
    "LWWRegister",
    "MVRegister",
    "ORMap",
    "ORSet",
    "OpContext",
    "PNCounter",
    "Permissions",
    "RGASequence",
    "Schema",
    "TwoPTwoPGraph",
    "TwoPhaseSet",
    "TypeCheckError",
    "check_type",
    "crdt_type",
    "crdt_type_names",
    "register_crdt_type",
    "validate_spec",
]
