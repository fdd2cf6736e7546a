"""Block validity checks (paper §IV-E).

A new block is valid iff:

1. the creator is a member of the blockchain (a live certificate exists in
   the block's causal past — evaluated as-of the block's parents so every
   replica reaches the same verdict regardless of replay order);
2. all parent blocks are already in the DAG;
3. the timestamp is strictly above the maximum parent timestamp and at or
   below the local clock (plus a bounded skew allowance);
4. the signature verifies against the member's public key and the header
   user id matches that key.

Membership resolution is delegated to a ``MemberResolver`` callback so the
validator does not depend on the CRDT state machine package.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from repro.chain.block import Block
from repro.chain.dag import BlockDAG
from repro.chain.errors import (
    DuplicateBlockError,
    MissingParentsError,
    NotAMemberError,
    SignatureInvalidError,
    TimestampError,
)
from repro.chain.verifycache import VerifiedBlockCache, shared_cache
from repro.crypto.ed25519 import PublicKey
from repro.crypto.sha import Hash

# Clock skew allowance: ad hoc IoT devices do not have synchronized
# clocks; the paper only requires the timestamp be "lower than the current
# time at the user", which we soften by a bounded skew.  Every replica
# must allow the same skew (a block one accepts, another must too), so
# it is a constant of the protocol.
MAX_SKEW_MS = 5_000


class MemberResolver(Protocol):
    """Resolves the creator's public key as-of a block's causal past.

    Returns the member's public key if a live (non-revoked) certificate
    for *user_id* is visible from *parent_hashes*, else ``None``.
    """

    def __call__(self, user_id: Hash, parent_hashes: list[Hash]) -> (
        Optional[PublicKey]
    ): ...


class BlockValidator:
    """Applies the §IV-E block checks against a DAG and a member resolver."""

    def __init__(
        self,
        dag: BlockDAG,
        resolve_member: MemberResolver,
        verify_cache: Optional[VerifiedBlockCache] = None,
    ):
        self._dag = dag
        self._resolve_member = resolve_member
        # Shared by default: blocks verified by any node or session in
        # this process are verified once (see repro.chain.verifycache).
        self._verify_cache = (
            verify_cache if verify_cache is not None else shared_cache()
        )

    def validate(self, block: Block, now_ms: int) -> None:
        """Raise a :class:`ValidationError` subclass if *block* is invalid.

        Check order matters for reconciliation: missing parents must be
        reported before anything that needs parent data, so the caller can
        fetch deeper frontier levels and retry.
        """
        table = self._dag.table
        parents = block.parents
        if block.hash in table:
            raise DuplicateBlockError(
                f"block {block.hash.short()} already in DAG"
            )
        if not parents:
            raise DuplicateBlockError("a second genesis block is not allowed")

        missing = [p for p in parents if p not in table]
        if missing:
            raise MissingParentsError(missing)

        max_parent_ts = max([table[parent].timestamp for parent in parents])
        if block.timestamp <= max_parent_ts:
            raise TimestampError(
                f"timestamp {block.timestamp} not above parent maximum "
                f"{max_parent_ts}"
            )
        if block.timestamp > now_ms + MAX_SKEW_MS:
            raise TimestampError(
                f"timestamp {block.timestamp} is in the future "
                f"(now {now_ms}, skew {MAX_SKEW_MS})"
            )

        public_key = self._resolve_member(block.user_id, block.parents)
        if public_key is None:
            raise NotAMemberError(
                f"user {block.user_id.short()} has no live certificate in "
                f"the block's causal past"
            )
        if Hash.of_bytes(public_key.data) != block.user_id:
            raise SignatureInvalidError("header user id does not match key")
        # The binding check above pins the key to a hash-covered header
        # field, which is what makes the per-hash verdict cache sound.
        if not self._verify_cache.verify_block(public_key, block):
            raise SignatureInvalidError(
                f"signature of block {block.hash.short()} does not verify"
            )

    def preverify(self, blocks: Sequence[Block]) -> None:
        """Batch-verify the signatures of incoming blocks into the cache.

        Best-effort: a block whose parents are not in the DAG yet, whose
        creator cannot be resolved, or whose user-id binding fails is
        simply skipped — :meth:`validate` reports the precise error when
        its turn comes.  Blocks that survive the screen are verified in
        one backend batch, so the validation loop that follows only sees
        cache hits.
        """
        items = []
        table = self._dag.table
        for block in blocks:
            if block.hash in self._verify_cache:
                continue
            if block.hash in table or not block.parents:
                continue
            if not all(map(table.__contains__, block.parents)):
                continue
            try:
                public_key = self._resolve_member(
                    block.user_id, block.parents
                )
            except Exception:
                continue
            if public_key is None:
                continue
            if Hash.of_bytes(public_key.data) != block.user_id:
                continue
            items.append((public_key, block))
        if items:
            self._verify_cache.preverify(items)

    def is_valid(self, block: Block, now_ms: int) -> bool:
        """Boolean form of :meth:`validate` (duplicates count as invalid)."""
        try:
            self.validate(block, now_ms)
        except (DuplicateBlockError, MissingParentsError, TimestampError,
                NotAMemberError, SignatureInvalidError):
            return False
        return True
