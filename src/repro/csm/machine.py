"""The CRDT state machine.

The CSM replays blocks in topological order (the node feeds it a block
only after all the block's parents).  Internally it tracks a small set of
*protocol events* — certificate additions/revocations and CRDT creations —
and, for every block, the frozen set of event ids visible in that block's
causal past: its *view*.  Membership, role, and CRDT-binding decisions for
a block's transactions are evaluated against exactly that set, which makes
every verdict a pure function of the block and its ancestors.  A view is
*resolved* once, in one pass over its events, to the two dictionaries
those decisions read; blocks between two events share one view object
and so one resolution, which makes a block's checks independent of the
size of the membership.

Transaction checks (paper §IV-E):

* the CRDT must exist (U, Ω, or an element of Ω — bound causally);
* the operation must be valid for the CRDT;
* the arguments must pass the CRDT's type checks;
* the creator's role must permit the operation.

A failed check rejects the transaction (recorded in its
:class:`TxOutcome`) but never the block: the block replays identically on
every replica either way.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Any, Optional

from repro.chain.block import (
    Block,
    CRDTS_CRDT_NAME,
    Transaction,
    USERS_CRDT_NAME,
)
from repro.crdt.base import CRDTError, OpContext
from repro.crdt.collection import CRDTCollection, CreateRecord
from repro.crdt.schema import Schema
from repro.crdt.twophase import TwoPhaseSet
from repro.crypto.ed25519 import PublicKey
from repro.crypto.sha import Hash
from repro.csm.errors import CSMError
from repro.csm.permissions import ChainPolicy, DefaultPolicy
from repro.membership.certificate import Certificate, CertificateError

_EVENT_CERT_ADD = "cert_add"
_EVENT_CERT_REMOVE = "cert_remove"
_EVENT_CREATE = "create"

# Genesis replay cache.  Building a fleet of n replicas from one genesis
# used to cost n × (genesis checks + n founding certificates parsed,
# fingerprinted, verified and frozen into U) — O(n²) for identical,
# immutable input.  The genesis block's hash covers every byte of it
# (certificates and signatures included) and the default policy is pure
# code, so the whole post-genesis machine is a function of that hash:
# the first replica pays every check and its replay is kept here; each
# later replica is a fork of it (:meth:`CSMachine._fork`).  A genesis
# that fails a check raises before anything is kept.
_GENESIS_CACHE_LIMIT = 8
_genesis_cache: "OrderedDict[bytes, CSMachine]" = OrderedDict()

# Resolved views a machine keeps (least recently used goes first).  A
# replica's new blocks sit on one of the last few views — the frontier
# spans at most the events still in flight — so a handful covers them;
# an older view that turns up again is resolved again.
_RESOLVED_VIEW_LIMIT = 8


def clear_genesis_cache() -> None:
    """Drop the genesis replay cache (tests and cold-path benchmarks)."""
    _genesis_cache.clear()


class TxOutcome:
    """Verdict for one replayed transaction."""

    __slots__ = ("crdt_name", "op", "applied", "reason")

    def __init__(self, crdt_name: str, op: str, applied: bool,
                 reason: Optional[str] = None):
        self.crdt_name = crdt_name
        self.op = op
        self.applied = applied
        self.reason = reason

    def __repr__(self) -> str:
        verdict = "applied" if self.applied else f"rejected: {self.reason}"
        return f"TxOutcome({self.crdt_name}.{self.op} {verdict})"


class _Event:
    """One protocol event (membership change or CRDT creation)."""

    __slots__ = ("kind", "certificate", "record")

    def __init__(self, kind: str, certificate: Optional[Certificate] = None,
                 record: Optional[CreateRecord] = None):
        self.kind = kind
        self.certificate = certificate
        self.record = record


def _precedence(certificate: Certificate) -> tuple[int, bytes]:
    """Among a user's live certificates the greatest of these is the
    *effective* one."""
    return (certificate.issued_at, certificate.fingerprint().digest)


class _ResolvedView:
    """What one causal view decides, built in one pass and then only read
    (forks of one genesis share these objects).

    ``members`` maps a user id to the user's effective
    certificate: live (added and not revoked inside the view) and of the
    greatest ``(issued_at, fingerprint)``.  ``bindings`` maps a CRDT name
    to its winning creation inside the view (least ``order_key``).
    """

    __slots__ = ("members", "bindings")

    def __init__(self, events: list[_Event], view: frozenset[int]):
        added: dict[bytes, Certificate] = {}
        revoked: set[bytes] = set()
        bindings: dict[str, CreateRecord] = {}
        for event_id in view:
            event = events[event_id]
            if event.kind == _EVENT_CREATE:
                record = event.record
                bound = bindings.get(record.name)
                if bound is None or record.order_key < bound.order_key:
                    bindings[record.name] = record
            elif event.kind == _EVENT_CERT_ADD:
                added[event.certificate.fingerprint().digest] = (
                    event.certificate
                )
            else:
                revoked.add(event.certificate.fingerprint().digest)
        members: dict[Hash, Certificate] = {}
        for fingerprint, certificate in added.items():
            if fingerprint in revoked:
                continue
            user = certificate.user_id
            effective = members.get(user)
            if effective is None or (
                _precedence(certificate) > _precedence(effective)
            ):
                members[user] = certificate
        self.members = members
        self.bindings = bindings


class CSMachine:
    """One replica's CRDT state machine.

    Build it with :meth:`from_genesis`; feed it blocks in topological
    order with :meth:`replay_block`.  Reads (:meth:`members`,
    :meth:`crdt_value`, :meth:`state_digest`) reflect everything replayed
    so far.
    """

    def __init__(self, ca_key: PublicKey, policy: Optional[ChainPolicy] = None):
        self._ca_key = ca_key
        self._policy = policy or DefaultPolicy()
        self._events: list[_Event] = []
        # block hash -> frozenset of event ids visible in its causal past
        # *including* the block's own events.
        self._visible: dict[Hash, frozenset[int]] = {}
        self._resolved: "OrderedDict[frozenset[int], _ResolvedView]" = (
            OrderedDict()
        )
        # The last parent list whose views were joined, and the join:
        # validation and replay of one block ask for it back to back.
        self._inherited: tuple[tuple[Hash, ...], frozenset[int]] = (
            (), frozenset()
        )
        self._users = TwoPhaseSet(element_spec="any")
        self._collection = CRDTCollection()
        self._outcomes: dict[Hash, list[TxOutcome]] = {}
        self._applied_count = 0
        self._rejected_count = 0

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def from_genesis(cls, genesis: Block,
                     policy: Optional[ChainPolicy] = None) -> "CSMachine":
        """Bootstrap a CSM from a genesis block.

        The genesis block must carry, as its first transaction, the
        owner's self-signed certificate added to U (§IV-C); the owner's
        key bootstraps the CA and must also have signed the genesis block
        itself.
        """
        if not genesis.is_genesis():
            raise CSMError("genesis block must have no parents")
        if not (policy is None or type(policy) is DefaultPolicy):
            # The policy is consulted while genesis replays, so another
            # policy's replay is its own.
            return cls._replay_genesis(genesis, policy)
        kept = _genesis_cache.get(genesis.hash.digest)
        if kept is None:
            kept = cls._replay_genesis(genesis, policy)
            _genesis_cache[genesis.hash.digest] = kept
            while len(_genesis_cache) > _GENESIS_CACHE_LIMIT:
                _genesis_cache.popitem(last=False)
        else:
            _genesis_cache.move_to_end(genesis.hash.digest)
        return kept._fork()

    @classmethod
    def _replay_genesis(cls, genesis: Block,
                        policy: Optional[ChainPolicy]) -> "CSMachine":
        """Every genesis check, then the replay, with its view resolved."""
        owner_cert = cls._extract_owner_certificate(genesis)
        if not owner_cert.verify(owner_cert.public_key):
            raise CSMError("genesis certificate is not properly self-signed")
        if owner_cert.user_id != genesis.user_id:
            raise CSMError("genesis creator does not match its certificate")
        if not owner_cert.public_key.verify(
            genesis.signing_payload(), genesis.signature
        ):
            raise CSMError("genesis block signature does not verify")
        machine = cls(owner_cert.public_key, policy)
        # The owner is not yet a member while genesis replays; membership
        # checks are skipped for the genesis block only.
        machine._replay_transactions(genesis, inherited=frozenset(),
                                     genesis_bootstrap=True)
        machine._resolve(machine._visible[genesis.hash])
        return machine

    @staticmethod
    def _extract_owner_certificate(genesis: Block) -> Certificate:
        if not genesis.transactions:
            raise CSMError("genesis block carries no transactions")
        first = genesis.transactions[0]
        if first.crdt_name != USERS_CRDT_NAME or first.op != "add":
            raise CSMError(
                "the first genesis transaction must add the owner to U"
            )
        if len(first.args) != 1:
            raise CSMError("malformed genesis membership transaction")
        try:
            return Certificate.from_wire(first.args[0])
        except CertificateError as exc:
            raise CSMError(f"bad genesis certificate: {exc}") from exc

    def _fork(self) -> "CSMachine":
        """A machine in the same state that shares nothing mutable with
        this one.

        Containers are copied; what they hold is shared where nothing
        ever writes to it after replay: events (certificates, creation
        records), views and their resolutions, outcome lists, and the
        elements of U, which are transaction arguments and belong to
        their block.  CRDT instances are written by later blocks, so
        each is copied whole.
        """
        fork = type(self)(self._ca_key, self._policy)
        fork._events = list(self._events)
        fork._visible = dict(self._visible)
        fork._resolved = self._resolved.copy()
        fork._inherited = self._inherited
        fork._users._added.update(self._users._added)
        fork._users._removed.update(self._users._removed)
        for op_id, record in self._collection._records.items():
            fork._collection.register_create(record)
            fork._collection._instances[op_id] = copy.deepcopy(
                self._collection._instances[op_id]
            )
        fork._outcomes = dict(self._outcomes)
        fork._applied_count = self._applied_count
        fork._rejected_count = self._rejected_count
        return fork

    # ------------------------------------------------------------------
    # Causal views

    def has_replayed(self, block_hash: Hash) -> bool:
        """Has this block's transactions been replayed here?"""
        return block_hash in self._visible

    def _inherited_view(self, parent_hashes: list[Hash]) -> frozenset[int]:
        """The union of the parents' views — the widest parent's own
        object when the others nest in it (a view grows only on a
        membership or creation event, so they nearly always do)."""
        parents = tuple(parent_hashes)
        last_parents, last_view = self._inherited
        if parents == last_parents:
            return last_view
        try:
            views = [self._visible[parent] for parent in parents]
        except KeyError as exc:
            raise CSMError(
                f"parent {exc.args[0].short()} replayed out of order"
            ) from None
        widest = max(views, key=len, default=frozenset())
        if not all(view is widest or view <= widest for view in views):
            widest = widest.union(*views)
        self._inherited = (parents, widest)
        return widest

    def _resolve(self, view: frozenset[int]) -> _ResolvedView:
        """The view's members and bindings, resolved on first use."""
        resolved = self._resolved.get(view)
        if resolved is None:
            resolved = self._resolved[view] = _ResolvedView(
                self._events, view
            )
            if len(self._resolved) > _RESOLVED_VIEW_LIMIT:
                self._resolved.popitem(last=False)
        else:
            self._resolved.move_to_end(view)
        return resolved

    def resolve_member(
        self, user_id: Hash, parent_hashes: list[Hash]
    ) -> Optional[PublicKey]:
        """Member-resolution callback for the block validator.

        Returns the public key bound to the creator's *effective*
        certificate (the live one with the greatest ``(issued_at,
        fingerprint)``) as-of the causal past spanned by *parent_hashes*.
        """
        view = self._inherited_view(parent_hashes)
        certificate = self._resolve(view).members.get(user_id)
        return None if certificate is None else certificate.public_key

    # ------------------------------------------------------------------
    # Replay

    def replay_block(self, block: Block) -> list[TxOutcome]:
        """Replay one block whose parents have all been replayed.

        The caller (the Vegvisir node) is responsible for having validated
        the block first; the CSM assumes block-level validity and judges
        only the transactions.
        """
        if block.hash in self._visible:
            raise CSMError(f"block {block.hash.short()} already replayed")
        if block.is_genesis():
            raise CSMError("genesis is replayed by from_genesis")
        inherited = self._inherited_view(block.parents)
        return self._replay_transactions(block, inherited,
                                         genesis_bootstrap=False)

    def _replay_transactions(
        self, block: Block, inherited: frozenset[int], genesis_bootstrap: bool
    ) -> list[TxOutcome]:
        if genesis_bootstrap:
            creator_role: Optional[str] = "owner"
        else:
            creator = self._resolve(inherited).members.get(block.user_id)
            creator_role = None if creator is None else creator.role
        # The inherited object itself until a transaction adds an event
        # (one frozenset per event, not one per block); then a wider
        # copy, which the block's later transactions see.
        view = inherited
        events = self._events
        outcomes: list[TxOutcome] = []
        for index, tx in enumerate(block.transactions):
            ctx = OpContext.for_block(
                block.user_id, block.timestamp, block.hash, index
            )
            known = len(events)
            outcome = self._replay_one(tx, ctx, view, creator_role)
            if len(events) != known:
                view = view.union(range(known, len(events)))
            outcomes.append(outcome)
            if outcome.applied:
                self._applied_count += 1
            else:
                self._rejected_count += 1
        self._visible[block.hash] = view
        self._outcomes[block.hash] = outcomes
        return outcomes

    def _replay_one(
        self,
        tx: Transaction,
        ctx: OpContext,
        view: frozenset[int],
        creator_role: Optional[str],
    ) -> TxOutcome:
        if creator_role is None:
            # Block-level validation should have caught this; judge the
            # transaction anyway so replay never depends on the caller.
            return self._rejected(tx, "creator is not a member")
        if tx.crdt_name == USERS_CRDT_NAME:
            return self._replay_membership(tx, ctx, creator_role)
        if tx.crdt_name == CRDTS_CRDT_NAME:
            return self._replay_create(tx, ctx, creator_role)
        return self._replay_user_crdt(tx, ctx, view, creator_role)

    def _replay_membership(
        self, tx: Transaction, ctx: OpContext, role: str
    ) -> TxOutcome:
        if tx.op not in ("add", "remove"):
            return self._rejected(tx, f"U has no operation {tx.op!r}")
        if len(tx.args) != 1:
            return self._rejected(tx, "membership ops take one argument")
        try:
            certificate = Certificate.from_wire(tx.args[0])
        except CertificateError as exc:
            return self._rejected(tx, f"bad certificate: {exc}")
        if tx.op == "add":
            if not self._policy.can_add_member(role):
                return self._rejected(tx, f"role {role!r} may not add members")
            if not (
                certificate.verify(self._ca_key)
                or (
                    certificate.user_id == Hash.of_bytes(self._ca_key.data)
                    and certificate.verify(certificate.public_key)
                )
            ):
                return self._rejected(tx, "certificate not signed by the CA")
            event = _Event(_EVENT_CERT_ADD, certificate=certificate)
        else:
            if not self._policy.can_revoke_member(role):
                return self._rejected(
                    tx, f"role {role!r} may not revoke members"
                )
            event = _Event(_EVENT_CERT_REMOVE, certificate=certificate)
        self._events.append(event)
        self._users.apply(tx.op, [tx.args[0]], ctx)
        return TxOutcome(tx.crdt_name, tx.op, True)

    def _replay_create(
        self, tx: Transaction, ctx: OpContext, role: str
    ) -> TxOutcome:
        if tx.op != "create":
            return self._rejected(tx, f"Ω has no operation {tx.op!r}")
        if not self._policy.can_create_crdt(role):
            return self._rejected(tx, f"role {role!r} may not create CRDTs")
        if len(tx.args) != 3:
            return self._rejected(tx, "create takes (name, type, schema)")
        name, type_name, schema_wire = tx.args
        if not isinstance(name, str) or not name:
            return self._rejected(tx, "CRDT name must be a non-empty string")
        if name in (USERS_CRDT_NAME, CRDTS_CRDT_NAME):
            return self._rejected(tx, f"{name!r} is reserved")
        try:
            schema = Schema.from_wire(schema_wire)
            record = CreateRecord(
                name=name,
                type_name=type_name,
                schema=schema,
                order_key=ctx.order_key(),
                creator=ctx.actor,
                op_id=ctx.op_id,
            )
            self._collection.register_create(record)
        except CRDTError as exc:
            return self._rejected(tx, str(exc))
        self._events.append(_Event(_EVENT_CREATE, record=record))
        return TxOutcome(tx.crdt_name, tx.op, True)

    def _replay_user_crdt(
        self, tx: Transaction, ctx: OpContext, view: frozenset[int], role: str
    ) -> TxOutcome:
        # Causal binding: the winning creation within this block's past.
        record = self._resolve(view).bindings.get(tx.crdt_name)
        if record is None:
            return self._rejected(
                tx, f"no CRDT named {tx.crdt_name!r} in causal past"
            )
        if not record.schema.permissions.allows(role, tx.op):
            return self._rejected(
                tx, f"role {role!r} may not {tx.op} on {tx.crdt_name!r}"
            )
        instance = self._collection.instance(record.op_id)
        try:
            instance.apply(tx.op, tx.args, ctx)
        except CRDTError as exc:
            return self._rejected(tx, str(exc))
        return TxOutcome(tx.crdt_name, tx.op, True)

    @staticmethod
    def _rejected(tx: Transaction, reason: str) -> TxOutcome:
        return TxOutcome(tx.crdt_name, tx.op, False, reason)

    # ------------------------------------------------------------------
    # Reads

    def members(self) -> list[Certificate]:
        """Live certificates in U, over everything replayed so far."""
        return [Certificate.from_wire(v) for v in self._users.value()]

    def member_role(self, user_id: Hash) -> Optional[str]:
        """The user's effective role over everything replayed, or None."""
        live = [c for c in self.members() if c.user_id == user_id]
        if not live:
            return None
        return max(live, key=_precedence).role

    def is_member(self, user_id: Hash) -> bool:
        """Does the user hold a live certificate (full replica view)?"""
        return self.member_role(user_id) is not None

    def crdt_names(self) -> list[str]:
        """Names of every user-created CRDT, sorted."""
        return self._collection.names()

    def crdt_value(self, name: str) -> Any:
        """Current value of the winning instance for *name*."""
        instance = self._collection.get(name)
        if instance is None:
            raise CSMError(f"no CRDT named {name!r}")
        return instance.value()

    def crdt_instance(self, name: str):
        """The winning instance for *name*, or None."""
        return self._collection.get(name)

    def collection(self) -> CRDTCollection:
        """The Ω collection (all creation records and instances)."""
        return self._collection

    def outcomes(self, block_hash: Hash) -> list[TxOutcome]:
        """Per-transaction verdicts for a replayed block."""
        try:
            return list(self._outcomes[block_hash])
        except KeyError:
            raise CSMError(
                f"block {block_hash.short()} has not been replayed"
            ) from None

    @property
    def applied_count(self) -> int:
        """Total transactions applied across all replayed blocks."""
        return self._applied_count

    @property
    def rejected_count(self) -> int:
        """Total transactions rejected across all replayed blocks."""
        return self._rejected_count

    def state_digest(self) -> Hash:
        """Digest of U and Ω; equal digests ⇒ converged replicas."""
        return Hash.of_value(
            [
                self._users.canonical_state(),
                self._collection.canonical_state(),
            ]
        )
