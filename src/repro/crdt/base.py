"""Common CRDT machinery: operation context, base class, type registry.

Every CRDT is *operation-based*.  The CRDT state machine replays each
transaction once, in some topological order of the block DAG, calling
:meth:`CRDT.apply` with an :class:`OpContext` that identifies the actor,
the block timestamp, and a globally unique operation id (derived from the
block hash and the transaction's index inside the block).

The commutativity obligation: for any two operations that are *concurrent*
in the DAG, applying them in either order must leave the CRDT in the same
state.  Operations that are causally ordered are always replayed in causal
order, so they may depend on one another.
"""

from __future__ import annotations

import abc
import functools
from typing import Any, ClassVar

from repro.crypto.sha import Hash


@functools.lru_cache(maxsize=4096)
def _actor_digest(actor: Hash) -> bytes:
    """The actor's digest as one shared ``bytes`` object.

    ``Hash.digest`` is a fresh copy on every read, and an order key is
    kept for as long as the entry it ranks: without this memo every
    entry of a log or register would hold a private copy of its
    writer's id.
    """
    return actor.digest


class CRDTError(Exception):
    """Base class for CRDT errors."""


class InvalidOperation(CRDTError):
    """The operation name or arguments are invalid for this CRDT."""


class TypeCheckError(CRDTError):
    """An argument failed the CRDT's element type check."""


class OpContext:
    """Identity of one operation during replay.

    Attributes:
        actor: user id of the block creator (all transactions in a block
            are attributed to its creator, §IV-D).
        timestamp: the containing block's timestamp (ms).
        op_id: globally unique operation id — block hash plus the
            transaction index, so two transactions never share an id.
    """

    __slots__ = ("actor", "timestamp", "op_id")

    def __init__(self, actor: Hash, timestamp: int, op_id: bytes):
        self.actor = actor
        self.timestamp = int(timestamp)
        self.op_id = bytes(op_id)

    @classmethod
    def for_block(cls, actor: Hash, timestamp: int, block_hash: Hash,
                  tx_index: int) -> "OpContext":
        """Derive the op id for transaction *tx_index* of a block."""
        # Concatenating onto a Hash yields plain bytes: no digest copy.
        op_id = block_hash + tx_index.to_bytes(4, "big")
        return cls(actor, timestamp, op_id)

    def order_key(self) -> tuple:
        """Deterministic total-order key used by LWW-style tie-breaking.

        Higher keys win.  Timestamps dominate; the actor id and op id break
        ties so that all replicas agree regardless of replay order.
        """
        return (self.timestamp, _actor_digest(self.actor), self.op_id)

    def __repr__(self) -> str:
        return (
            f"OpContext(actor={self.actor.short()}, ts={self.timestamp})"
        )


class CRDT(abc.ABC):
    """Base class for operation-based CRDTs.

    Subclasses define ``TYPE_NAME`` (the wire name used in creation
    transactions) and ``OPERATIONS`` (the operation names they accept),
    implement :meth:`check_args` for type validation against the element
    spec, :meth:`apply` for replay, :meth:`value` for reading, and
    :meth:`canonical_state` for convergence checking.
    """

    TYPE_NAME: ClassVar[str] = ""
    OPERATIONS: ClassVar[tuple[str, ...]] = ()

    def __init__(self, element_spec: Any = "any"):
        from repro.crdt.schema import validate_spec

        self.element_spec = validate_spec(element_spec)

    def require_op(self, op: str) -> None:
        """Raise unless *op* is one of this type's operations."""
        if op not in self.OPERATIONS:
            raise InvalidOperation(
                f"{self.TYPE_NAME} has no operation {op!r}"
            )

    @abc.abstractmethod
    def check_args(self, op: str, args: list) -> None:
        """Validate operation arguments; raise on bad type or shape."""

    @abc.abstractmethod
    def apply(self, op: str, args: list, ctx: OpContext) -> None:
        """Replay one operation.  Must be deterministic and, for
        concurrent operations, order-independent."""

    @abc.abstractmethod
    def value(self) -> Any:
        """Current user-visible value."""

    @abc.abstractmethod
    def canonical_state(self) -> Any:
        """Wire-encodable representation that is identical on any two
        replicas that have applied the same set of operations."""

    def state_digest(self) -> Hash:
        """Hash of the canonical state; equal digests ⇒ converged."""
        return Hash.of_value([self.TYPE_NAME, self.canonical_state()])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value()!r})"


_REGISTRY: dict[str, type[CRDT]] = {}


def register_crdt_type(cls: type[CRDT]) -> type[CRDT]:
    """Class decorator adding a CRDT type to the global registry."""
    if not cls.TYPE_NAME:
        raise ValueError(f"{cls.__name__} has no TYPE_NAME")
    if cls.TYPE_NAME in _REGISTRY:
        raise ValueError(f"duplicate CRDT type name {cls.TYPE_NAME!r}")
    _REGISTRY[cls.TYPE_NAME] = cls
    return cls


def crdt_type(name: str) -> type[CRDT]:
    """Look up a CRDT class by wire name; raises InvalidOperation."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidOperation(f"unknown CRDT type {name!r}") from None


def crdt_type_names() -> tuple[str, ...]:
    """All registered type names, sorted."""
    return tuple(sorted(_REGISTRY))
