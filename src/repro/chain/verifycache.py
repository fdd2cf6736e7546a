"""Process-wide LRU of verified block signatures.

A block's hash covers its entire wire encoding — header (including the
creator's user id), transactions, and signature — so for a fixed
verifying key the signature verdict is a pure function of the block
hash.  The validator establishes that fixity *before* consulting this
cache: it first checks ``Hash.of_bytes(public_key.data) == block.user_id``,
which pins the key to a hash-covered header field.  Under that contract
a verdict cached for one block hash can never be replayed for a
different block (a corrupted block has a different hash and misses), and
a corrupt block can never be cached as valid (its verdict is computed
from its own bytes).  ``tests/chain/test_verifycache.py`` exercises both
properties.

The cache is shared across sessions and across every node hosted in the
process, which is where the win comes from: a block gossiped through
*n* peers in a simulation — or re-offered over *n* live sessions —
pays for Ed25519 exactly once.  Unlike the signature-triple memo in
:mod:`repro.crypto.backend` (sha256 over key+signature+message), a hit
here costs one dict lookup keyed by the block's own :class:`Hash`,
whose hash CPython has already computed and cached.

Both True and False verdicts are cached: a bad signature re-gossiped by
a faulty peer should not cost a full verification per offer either.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence

from repro.crypto import backend as _backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chain.block import Block
    from repro.crypto.ed25519 import PublicKey
    from repro.crypto.sha import Hash

DEFAULT_CAPACITY = 100_000


class VerifiedBlockCache:
    """Bounded LRU mapping block hash → signature verdict."""

    __slots__ = ("_entries", "_capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._entries: OrderedDict[Hash, bool] = OrderedDict()
        self._capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block_hash: Hash) -> bool:
        """Membership probe that touches neither LRU order nor stats."""
        return block_hash in self._entries

    def get(self, block_hash: Hash) -> Optional[bool]:
        """The cached verdict for a block hash, or ``None``."""
        verdict = self._entries.get(block_hash)
        if verdict is None:
            self.misses += 1
            return None
        self._entries.move_to_end(block_hash)
        self.hits += 1
        return verdict

    def put(self, block_hash: Hash, verdict: bool) -> None:
        entries = self._entries
        if block_hash in entries:
            entries.move_to_end(block_hash)
        elif len(entries) >= self._capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[block_hash] = verdict

    def clear(self) -> None:
        """Drop every verdict and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self._capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def verify_block(self, public_key: "PublicKey", block: "Block") -> bool:
        """The block's signature verdict, computing and caching on miss.

        Caller contract: *public_key* must already be bound to the block
        (``Hash.of_bytes(public_key.data) == block.user_id``) — the
        validator checks this first, which is what makes the verdict a
        pure function of the block hash.
        """
        verdict = self.get(block.hash)
        if verdict is None:
            verdict = _backend.verify_uncached(
                public_key, block.signing_payload(), block.signature
            )
            self.put(block.hash, verdict)
        return verdict

    def preverify(
        self, items: Sequence[tuple["PublicKey", "Block"]]
    ) -> None:
        """Batch-verify blocks not yet cached (same key-binding contract).

        Session merges call this with every block they are about to
        apply so the per-block validation loop only ever sees cache
        hits; the active backend gets the misses as one batch.
        """
        missing = [
            (key, block)
            for key, block in items
            if self._entries.get(block.hash) is None
        ]
        if not missing:
            return
        verdicts = _backend.verify_batch(
            (key, block.signing_payload(), block.signature)
            for key, block in missing
        )
        for (_, block), verdict in zip(missing, verdicts):
            self.put(block.hash, verdict)


# The shared instance every validator uses unless handed its own.
_shared = VerifiedBlockCache()


def shared_cache() -> VerifiedBlockCache:
    """The process-wide cache (sessions and in-process nodes share it)."""
    return _shared
