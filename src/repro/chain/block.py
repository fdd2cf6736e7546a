"""Blocks and transactions (paper §IV-D, Fig. 2).

A transaction names a CRDT, an operation, and arguments; it carries no
signature of its own — the enclosing block's signature covers it, and the
block's creator is the originator of every transaction in the block.

The block header holds the creator's user id, a timestamp, an optional
physical location, and the list of parent hashes.  The block hash covers
the entire block including the signature, so a block is immutable down to
the last byte once referenced as a parent.

Each is encoded as a positional list — ``[crdt, op, args]``,
``[location, parents, timestamp, user_id]``, ``[header, signature,
transactions]`` — so no field name is on the wire, on disk or under a
hash, and that one encoding serves all three.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro import wire
from repro.chain.errors import MalformedBlockError
from repro.crypto.keys import KeyPair
from repro.crypto.sha import Hash

# Reserved CRDT names (the paper's U and Ω).
USERS_CRDT_NAME = "__users__"
CRDTS_CRDT_NAME = "__crdts__"

MAX_PARENTS = 64
MAX_TRANSACTIONS = 1024
#: Most bytes a block may encode to.  Such a block, alone in any message
#: that carries blocks (``blocks``, ``frontier_set``, ``push_blocks``)
#: beside the longest digest list one carries (the 8 192 digests,
#: 272 KiB, that reconciliation's batch budget holds), still fits one
#: ``wire.MAX_FRAME_BYTES`` frame: every block a replica accepts can
#: travel.
MAX_BLOCK_BYTES = wire.MAX_FRAME_BYTES - 512 * 1024
#: Levels of nesting a transaction's args may use, args itself being
#: one: ``[]`` is 1, ``[0]`` and ``[[]]`` are 2.  In a ``blocks`` or
#: ``push_blocks`` message args sit under five containers (message map,
#: block list, block list, transaction list, transaction list), so the
#: deepest value of the deepest legal args is the deepest
#: ``wire.decode`` reads, and every block can travel.
MAX_ARG_DEPTH = wire.MAX_DEPTH - 4
_CONTAINERS = (list, tuple, dict)


def _nests_within(values, levels: int) -> bool:
    """Whether *values*, a container's items, and all they hold fit in
    *levels* levels."""
    if levels < 1:
        return not values
    for value in values:
        if isinstance(value, _CONTAINERS) and not _nests_within(
            value.values() if isinstance(value, dict) else value,
            levels - 1,
        ):
            return False
    return True


class Transaction:
    """One CRDT operation: ``(crdt_name, op, args)``."""

    __slots__ = ("crdt_name", "op", "args")

    def __init__(self, crdt_name: str, op: str, args: Sequence[Any]):
        if not isinstance(crdt_name, str) or not crdt_name:
            raise MalformedBlockError("transaction needs a CRDT name")
        if not isinstance(op, str) or not op:
            raise MalformedBlockError("transaction needs an operation name")
        self.crdt_name = crdt_name
        self.op = op
        self.args = list(args)
        if not _nests_within(self.args, MAX_ARG_DEPTH - 1):
            raise MalformedBlockError(
                f"transaction args nest deeper than {MAX_ARG_DEPTH} levels"
            )

    def to_wire(self) -> list:
        """``[crdt, op, args]``."""
        return [self.crdt_name, self.op, self.args]

    @classmethod
    def from_wire(cls, value: Any) -> "Transaction":
        if type(value) is not list or len(value) != 3:
            raise MalformedBlockError("transaction must be a list of three")
        crdt_name, op, args = value
        # The constructor's list(args) would make a list of "xy" or of
        # {"x": 1} too; on the wire only a list is a list.
        if type(args) is not list:
            raise MalformedBlockError("transaction args must be a list")
        return cls(crdt_name, op, args)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Transaction)
            and self.crdt_name == other.crdt_name
            and self.op == other.op
            and self.args == other.args
        )

    def __repr__(self) -> str:
        return f"Transaction({self.crdt_name}.{self.op})"


class BlockHeader:
    """Creator id, timestamp, optional location, parent hashes (Fig. 2).

    Locations are fixed-point integers (degrees × 1e7) because the wire
    format deliberately has no floats.
    """

    __slots__ = ("user_id", "timestamp", "location", "parents")

    def __init__(
        self,
        user_id: Hash,
        timestamp: int,
        parents: Sequence[Hash],
        location: Optional[tuple[int, int]] = None,
    ):
        parents = list(parents)
        if len(parents) > MAX_PARENTS:
            raise MalformedBlockError(
                f"{len(parents)} parents exceeds limit of {MAX_PARENTS}"
            )
        if len({bytes(parent) for parent in parents}) != len(parents):
            raise MalformedBlockError("duplicate parent hashes")
        self.user_id = user_id
        self.timestamp = int(timestamp)
        self.location = (
            (int(location[0]), int(location[1])) if location is not None else None
        )
        # Canonical parent order: sorted by hash, so two blocks citing the
        # same parent set serialize identically.
        self.parents = sorted(parents)

    def to_wire(self) -> list:
        """``[location, parents, timestamp, user_id]``."""
        return [
            list(self.location) if self.location is not None else None,
            [parent.digest for parent in self.parents],
            self.timestamp,
            self.user_id.digest,
        ]

    @classmethod
    def from_wire(cls, value: Any) -> "BlockHeader":
        """Parse a decoded header list, coercing nothing.

        Whatever the constructor would convert or reorder — ``"12"`` or
        ``True`` for a timestamp, a map where the parent list belongs,
        parents out of order, a fifth field — would be a second wire
        form of a block with the same hash, and a block has exactly one.
        """
        if type(value) is not list or len(value) != 4:
            raise MalformedBlockError("header must be a list of four")
        location, digests, timestamp, user_id = value
        try:
            if type(timestamp) is not int:
                raise MalformedBlockError("timestamp must be an int")
            if location is not None and not (
                type(location) is list
                and [type(part) for part in location] == [int, int]
            ):
                raise MalformedBlockError("location must be null or two ints")
            if type(digests) is not list or digests != sorted(digests):
                raise MalformedBlockError("parents must be a sorted list")
            return cls(
                user_id=Hash(user_id),
                timestamp=timestamp,
                parents=[Hash(digest) for digest in digests],
                location=location,
            )
        except (TypeError, ValueError) as exc:
            raise MalformedBlockError(f"malformed header: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"BlockHeader(user={self.user_id.short()}, "
            f"ts={self.timestamp}, parents={len(self.parents)})"
        )


# Where the header starts in a block's encoding, the list [header,
# signature, transactions]: after the list tag and the count of three.
_HEADER_AT = 2


def _encode_parts(
    header: BlockHeader, transactions: Sequence[Transaction]
) -> tuple[list[Transaction], bytes, bytes]:
    """The one walk over a block's content: its transactions as a
    checked list, then the encodings of header and transaction list."""
    transactions = list(transactions)
    if len(transactions) > MAX_TRANSACTIONS:
        raise MalformedBlockError(
            f"{len(transactions)} transactions exceeds limit"
        )
    return (
        transactions,
        wire.encode(header.to_wire()),
        wire.encode([tx.to_wire() for tx in transactions]),
    )


def _signed_bytes(header_bytes: bytes, body_bytes: bytes) -> bytes:
    """What a creator signs: ``[header, transactions]``, no signature."""
    return wire.encode(
        [wire.Encoded(header_bytes), wire.Encoded(body_bytes)]
    )


class Block:
    """An immutable signed block.

    Use :meth:`Block.create` to build and sign a block in one step.  A
    block is encoded once, when it is constructed; the hash is taken
    over those bytes (header + transactions + signature), and
    :meth:`to_bytes`, :attr:`wire_size` and :meth:`signing_payload` are
    all read off them from then on.
    """

    # The header's fields that every lookup reads are copied up into
    # plain slots: a slot is read in C, a property is a Python call.
    __slots__ = ("header", "transactions", "signature", "hash",
                 "parents", "user_id", "timestamp", "_encoded",
                 "_header_end")

    def __init__(
        self,
        header: BlockHeader,
        transactions: Sequence[Transaction],
        signature: bytes,
    ):
        self._seal(header, signature, *_encode_parts(header, transactions))

    def _seal(self, header: BlockHeader, signature: bytes,
              transactions: list[Transaction], header_bytes: bytes,
              body_bytes: bytes) -> None:
        self.header = header
        self.parents = header.parents
        self.user_id = header.user_id
        self.timestamp = header.timestamp
        self.transactions = transactions
        self.signature = bytes(signature)
        self._encoded = wire.encode([
            wire.Encoded(header_bytes),
            self.signature,
            wire.Encoded(body_bytes),
        ])
        if len(self._encoded) > MAX_BLOCK_BYTES:
            raise MalformedBlockError(
                f"block of {len(self._encoded)} bytes exceeds the "
                f"{MAX_BLOCK_BYTES}-byte limit"
            )
        self.hash = Hash.of_bytes(self._encoded)
        self._header_end = _HEADER_AT + len(header_bytes)

    @classmethod
    def create(
        cls,
        key_pair: KeyPair,
        parents: Sequence[Hash],
        timestamp: int,
        transactions: Sequence[Transaction] = (),
        location: Optional[tuple[int, int]] = None,
    ) -> "Block":
        """Build a block, sign it with *key_pair*, and return it."""
        header = BlockHeader(
            user_id=key_pair.user_id,
            timestamp=timestamp,
            parents=parents,
            location=location,
        )
        transactions, header_bytes, body_bytes = _encode_parts(
            header, transactions
        )
        signature = key_pair.sign(_signed_bytes(header_bytes, body_bytes))
        block = cls.__new__(cls)
        block._seal(header, signature, transactions, header_bytes, body_bytes)
        return block

    def signing_payload(self) -> bytes:
        """The bytes the creator signed (header + transactions)."""
        encoded = self._encoded
        body_at = self._header_end + wire.encoded_size(self.signature)
        return _signed_bytes(
            encoded[_HEADER_AT:self._header_end], encoded[body_at:]
        )

    @property
    def wire_size(self) -> int:
        """Size in bytes of the canonical encoding."""
        return len(self._encoded)

    def is_genesis(self) -> bool:
        return not self.parents

    def to_wire(self) -> list:
        """``[header, signature, transactions]``, the value
        :meth:`to_bytes` encodes."""
        return [
            self.header.to_wire(),
            self.signature,
            [tx.to_wire() for tx in self.transactions],
        ]

    @classmethod
    def from_wire(cls, value: Any) -> "Block":
        if type(value) is not list or len(value) != 3:
            raise MalformedBlockError("block must be a list of three")
        header_value, signature, entries = value
        header = BlockHeader.from_wire(header_value)
        if type(entries) is not list:
            raise MalformedBlockError("transactions must be a list")
        transactions = [Transaction.from_wire(tx) for tx in entries]
        if type(signature) is not bytes:
            raise MalformedBlockError("signature must be bytes")
        return cls(header, transactions, signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Block":
        """Parse a block from its canonical encoding.

        Strict: the input must be byte-identical to the parsed block's
        canonical encoding.  (The wire codec already rejects
        non-canonical encodings of a given value; this additionally
        rejects *structural* coercions — e.g. an empty map where the
        parent list belongs — so a block has exactly one accepted
        transport encoding.)
        """
        try:
            value = wire.decode(data)
        except wire.DecodeError as exc:
            raise MalformedBlockError(f"undecodable block: {exc}") from exc
        block = cls.from_wire(value)
        if block._encoded != bytes(data):
            raise MalformedBlockError("non-canonical block encoding")
        return block

    def to_bytes(self) -> bytes:
        """The canonical encoding — the same ``bytes`` object each call,
        always this process's own encoding, never a received span."""
        return self._encoded

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Block) and self.hash == other.hash

    def __hash__(self) -> int:
        return hash(self.hash)

    def __repr__(self) -> str:
        return (
            f"Block({self.hash.short()}, user={self.user_id.short()}, "
            f"txs={len(self.transactions)}, parents={len(self.parents)})"
        )
