"""The Vegvisir node (paper §IV-E "separation of concerns").

A node owns one replica: the block DAG (storage + block validity) and the
CRDT state machine (transaction validity + state).  The node is where the
paper's branch-reining rule lives: every block a user appends cites *all*
of the user's current frontier blocks as parents, so "all transactions
known to the user become ancestors of the transaction" (§IV-A).

Nodes are simulation-friendly: time comes from an injectable clock
callable returning integer milliseconds, so deterministic tests and the
discrete-event simulator can drive it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.chain.block import (
    Block,
    CRDTS_CRDT_NAME,
    MAX_PARENTS,
    Transaction,
    USERS_CRDT_NAME,
)
from repro.chain.dag import BlockDAG
from repro.chain.validation import BlockValidator
from repro.crdt.base import InvalidOperation
from repro.crdt.ormap import ORMap
from repro.crdt.orset import ORSet
from repro.crdt.registers import MVRegister
from repro.crdt.schema import Permissions, Schema, validate_spec
from repro.crypto.keys import KeyPair
from repro.crypto.sha import Hash
from repro.csm.machine import CSMachine, TxOutcome
from repro.membership.certificate import Certificate
from repro.runtime import SYSTEM


class VegvisirNode:
    """One member's replica of a Vegvisir blockchain."""

    def __init__(
        self,
        key_pair: KeyPair,
        genesis: Block,
        clock: Optional[Callable[[], int]] = None,
        location: Optional[Callable[[], Optional[tuple[int, int]]]] = None,
    ):
        self.key_pair = key_pair
        self.dag = BlockDAG(genesis)
        self.csm = CSMachine.from_genesis(genesis)
        self.validator = BlockValidator(self.dag, self.csm.resolve_member)
        self._clock = clock or SYSTEM.wall_ms
        self._location = location or (lambda: None)
        self.blocks_created = 0

    # ------------------------------------------------------------------
    # Identity and time

    @property
    def user_id(self) -> Hash:
        return self.key_pair.user_id

    @property
    def chain_id(self) -> Hash:
        """The genesis hash identifies the blockchain (§IV-G)."""
        return self.dag.genesis_hash

    def now_ms(self) -> int:
        return self._clock()

    @property
    def clock(self):
        """The clock callable, so a restarted replica can keep its
        (possibly skewed) notion of time across a crash cycle."""
        return self._clock

    @clock.setter
    def clock(self, clock) -> None:
        self._clock = clock or SYSTEM.wall_ms

    @property
    def location_provider(self):
        """The location callable (same rationale as :attr:`clock`)."""
        return self._location

    # ------------------------------------------------------------------
    # Appending (the write path)

    def append_transactions(
        self, transactions: Sequence[Transaction] = ()
    ) -> Block:
        """Create, sign, store, and replay a new block.

        Parents are *all* current frontier blocks — the branch-reining
        rule of §IV-A — or, on a replica that holds more tips than a
        header may cite, the first ``MAX_PARENTS`` of them in hash order
        (the next append reins in the rest; refusing to write would
        leave the replica mute until someone else did).  The timestamp
        is the local clock, bumped just above the parents' maximum if
        the local clock lags them (ad hoc networks have skewed clocks;
        validity requires strict increase along every edge).
        """
        parents = sorted(self.dag.frontier())[:MAX_PARENTS]
        table = self.dag.table
        max_parent_ts = max([table[parent].timestamp for parent in parents])
        timestamp = max(self.now_ms(), max_parent_ts + 1)
        block = Block.create(
            key_pair=self.key_pair,
            parents=parents,
            timestamp=timestamp,
            transactions=transactions,
            location=self._location(),
        )
        self.validator.validate(block, now_ms=timestamp)
        self.dag.add_block(block)
        self.csm.replay_block(block)
        self.blocks_created += 1
        return block

    def append_witness_block(self) -> Block:
        """An empty block whose sole purpose is to witness the current
        frontier and everything beneath it (§IV-H)."""
        return self.append_transactions([])

    # ------------------------------------------------------------------
    # Receiving (the replication path)

    def receive_block(self, block: Block) -> list[TxOutcome]:
        """Validate, store, and replay a block received from a peer.

        Raises the §IV-E :class:`~repro.chain.errors.ValidationError`
        subclasses on invalid blocks — notably
        :class:`~repro.chain.errors.MissingParentsError`, which the
        reconciliation session catches to fetch deeper frontier levels.
        """
        self.validator.validate(block, now_ms=self.now_ms())
        self.dag.add_block(block)
        return self.csm.replay_block(block)

    def has_block(self, block_hash: Hash) -> bool:
        return block_hash in self.dag

    # ------------------------------------------------------------------
    # Transaction builders

    def crdt_op(self, crdt_name: str, op: str, *args: Any) -> Transaction:
        """A raw CRDT operation transaction."""
        return Transaction(crdt_name, op, list(args))

    def create_crdt_tx(
        self,
        name: str,
        type_name: str,
        element_spec: Any = "any",
        permissions: Optional[dict] = None,
    ) -> Transaction:
        """A transaction creating a new CRDT in Ω."""
        validate_spec(element_spec)
        schema = Schema(element_spec, Permissions(permissions or {}))
        return Transaction(
            CRDTS_CRDT_NAME, "create", [name, type_name, schema.to_wire()]
        )

    def create_crdt(
        self,
        name: str,
        type_name: str,
        element_spec: Any = "any",
        permissions: Optional[dict] = None,
    ) -> Block:
        """Create a CRDT and append the block immediately."""
        return self.append_transactions(
            [self.create_crdt_tx(name, type_name, element_spec, permissions)]
        )

    def add_member_tx(self, certificate: Certificate) -> Transaction:
        return Transaction(USERS_CRDT_NAME, "add", [certificate.to_wire()])

    def revoke_member_tx(self, certificate: Certificate) -> Transaction:
        return Transaction(USERS_CRDT_NAME, "remove", [certificate.to_wire()])

    def orset_remove_tx(self, crdt_name: str, element: Any) -> Transaction:
        """An OR-Set remove naming the tags observed on this replica."""
        instance = self.csm.crdt_instance(crdt_name)
        if not isinstance(instance, ORSet):
            raise InvalidOperation(f"{crdt_name!r} is not an or_set")
        return Transaction(
            crdt_name, "remove", [element, instance.observed_tags(element)]
        )

    def ormap_remove_tx(self, crdt_name: str, key: str) -> Transaction:
        """An OR-Map remove naming the tags observed on this replica."""
        instance = self.csm.crdt_instance(crdt_name)
        if not isinstance(instance, ORMap):
            raise InvalidOperation(f"{crdt_name!r} is not an or_map")
        return Transaction(
            crdt_name, "remove", [key, instance.observed_tags(key)]
        )

    def mv_set_tx(self, crdt_name: str, value: Any) -> Transaction:
        """An MV-Register set overwriting the entries visible here."""
        instance = self.csm.crdt_instance(crdt_name)
        if not isinstance(instance, MVRegister):
            raise InvalidOperation(f"{crdt_name!r} is not an mv_register")
        return Transaction(
            crdt_name, "set", [value, instance.current_op_ids()]
        )

    # ------------------------------------------------------------------
    # Reads

    def crdt_value(self, name: str) -> Any:
        return self.csm.crdt_value(name)

    def members(self) -> list[Certificate]:
        return self.csm.members()

    def frontier(self) -> set[Hash]:
        return self.dag.frontier()

    def state_at(self, block_hash: Hash) -> CSMachine:
        """The CRDT state as of one block's causal past.

        Builds a fresh state machine and replays exactly the block and
        its ancestors — the state a replica holding only that block's
        history would see.  Useful for audits ("what did the chain say
        when this request was made?") and dispute resolution; cost is a
        linear replay of the ancestor set.
        """
        wanted = self.dag.ancestors(block_hash) | {block_hash}
        machine = CSMachine.from_genesis(self.dag.genesis)
        for ordered_hash in self.dag.insertion_order():
            if ordered_hash == self.dag.genesis_hash:
                continue
            if ordered_hash in wanted:
                machine.replay_block(self.dag.get(ordered_hash))
        return machine

    def provenance(self, block_hash: Hash) -> list[Transaction]:
        """Every transaction causally preceding (and inside) a block.

        The paper's *Provenance* property (§IV-A): "if a user can read a
        transaction on the blockchain, then the user can read all
        transactions that precede it."  Because a replica always holds
        the full ancestry of every block it holds, this never fails for
        a held block.  Transactions are returned in a topological order
        (ancestors before descendants, block-internal order preserved).
        """
        wanted = self.dag.ancestors(block_hash) | {block_hash}
        transactions: list[Transaction] = []
        for ordered_hash in self.dag.insertion_order():
            if ordered_hash in wanted:
                transactions.extend(self.dag.get(ordered_hash).transactions)
        return transactions

    def state_digest(self) -> Hash:
        """Digest over the DAG contents and the CSM state.

        Two nodes with equal digests hold identical blockchains and have
        converged to identical application state.
        """
        return Hash.of_value(
            [
                sorted(h.digest for h in self.dag.hashes()),
                self.csm.state_digest().digest,
            ]
        )

    def __repr__(self) -> str:
        return (
            f"VegvisirNode(user={self.user_id.short()}, "
            f"blocks={len(self.dag)})"
        )
