"""Bloom-digest reconciliation — the §VI improvement direction.

The paper closes by noting that Algorithm 1 "still incurs a significant
communication overhead" and calls for more efficient reconciliation.
This protocol sends a Bloom filter of the initiator's block hashes; the
responder replies with every block *probably* missing from the initiator
(a hash not in the filter is definitely missing; one in the filter might
be a false positive and get skipped).  The initiator repairs skipped
ancestors by explicit hash fetches until its DAG closes, then pushes the
reverse difference.

The filter is sized for a configurable false-positive rate, so the
bandwidth trade-off — filter bytes up front versus resent blocks — is
directly measurable in experiment E5.
"""

from __future__ import annotations

import hashlib
import math

from repro.reconcile.engine import Protocol
from repro.reconcile.session import (
    Responder,
    SessionSide,
    as_hashes,
    digest_list,
    expect,
    handles,
    push_missing,
)

#: Upper bound on hash functions accepted off the wire: an honest filter
#: uses -log2(fp) of them (7 at 1 %), and every probe costs that many
#: SHA-256 positions per held block.
MAX_WIRE_HASHES = 64


class BloomFilter:
    """A fixed-size Bloom filter over block hashes.

    Uses double hashing (Kirsch-Mitzenmacher) over two independent 64-bit
    values drawn from each item's SHA-256, which for 32-byte uniformly
    random block hashes is as good as independent hash functions.
    """

    def __init__(self, bit_count: int, hash_count: int):
        if bit_count < 8 or hash_count < 1:
            raise ValueError("degenerate Bloom filter parameters")
        self.bit_count = bit_count
        self.hash_count = hash_count
        self._bits = bytearray((bit_count + 7) // 8)

    @classmethod
    def for_capacity(cls, capacity: int,
                     false_positive_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for *capacity* items at the target FP rate."""
        capacity = max(capacity, 1)
        bit_count = max(
            8,
            int(math.ceil(
                -capacity * math.log(false_positive_rate) / (math.log(2) ** 2)
            )),
        )
        hash_count = max(1, round(bit_count / capacity * math.log(2)))
        return cls(bit_count, hash_count)

    def _positions(self, item: bytes):
        digest = hashlib.sha256(item).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1
        for i in range(self.hash_count):
            yield (h1 + i * h2) % self.bit_count

    def add(self, item: bytes) -> None:
        for position in self._positions(item):
            self._bits[position >> 3] |= 1 << (position & 7)

    def __contains__(self, item: bytes) -> bool:
        return all(
            self._bits[position >> 3] & (1 << (position & 7))
            for position in self._positions(item)
        )

    def to_wire(self) -> dict:
        return {
            "bits": bytes(self._bits),
            "bit_count": self.bit_count,
            "hash_count": self.hash_count,
        }

    @classmethod
    def from_wire(cls, value: dict) -> "BloomFilter":
        bits = value["bits"]
        bit_count = value["bit_count"]
        hash_count = value["hash_count"]
        if not all(
            isinstance(field, int) and not isinstance(field, bool)
            for field in (bit_count, hash_count)
        ):
            raise ValueError("Bloom shape fields must be integers")
        if hash_count > MAX_WIRE_HASHES:
            raise ValueError(f"Bloom hash count {hash_count} out of range")
        # Checked before construction, so a 20-byte frame cannot make
        # the constructor allocate an announced gigabyte.
        if not isinstance(bits, bytes) or len(bits) != (bit_count + 7) // 8:
            raise ValueError("Bloom bits have the wrong length")
        instance = cls(bit_count, hash_count)
        instance._bits = bytearray(bits)
        return instance

    @property
    def byte_size(self) -> int:
        return len(self._bits)


class BloomProtocol(Protocol):
    """Bloom-digest pull with explicit repair fetches, then push."""

    name = "bloom"

    def __init__(self, false_positive_rate: float = 0.01, push: bool = True):
        self._fp_rate = false_positive_rate
        self._push = push
        #: Blocks re-sent because a false positive hid them from the
        #: digest round, over every session this object ran: the
        #: attributable share of Bloom's waste in E5.
        self.fp_resend = 0

    def initiate(self, me: SessionSide):
        node, stats = me.node, me.stats

        # Round 1: send the filter, receive probably-missing blocks plus
        # the responder's frontier (to detect convergence exactly).
        stats.rounds += 1
        digest = BloomFilter.for_capacity(len(node.dag), self._fp_rate)
        for block_hash in node.dag.hashes():
            digest.add(block_hash.digest)
        reply = expect(
            (yield {"type": "bloom", "filter": digest.to_wire()}),
            "bloom_blocks",
        )
        responder_frontier = as_hashes(reply["frontier"])
        merged = me.pull(reply["blocks"])

        # Repair rounds: fetch false-positive-skipped blocks by hash —
        # both missing parents of received blocks and responder frontier
        # blocks that were themselves filter false positives.
        pending = merged.unplaced

        def _missing_now(merge_result):
            needed = set(merge_result.missing_parents)
            needed.update(
                h for h in responder_frontier if not node.has_block(h)
            )
            return digest_list(needed)

        missing = _missing_now(merged)
        while missing:
            stats.rounds += 1
            reply = expect(
                (yield {"type": "get_blocks", "hashes": missing}), "blocks"
            )
            fetched = reply["blocks"]
            if not fetched:
                break
            # Every repair fetch exists because the filter claimed the
            # initiator already held the block — a false positive.
            self.fp_resend += len(fetched)
            merged = me.pull(fetched + pending)
            pending = merged.unplaced
            missing = _missing_now(merged)

        stats.converged = all(
            node.has_block(h) for h in responder_frontier
        )
        if stats.converged and self._push:
            yield from push_missing(me, responder_frontier)


@handles("bloom")
def _on_bloom(responder: Responder, message: dict) -> dict:
    digest = BloomFilter.from_wire(message["filter"])
    return {
        "type": "bloom_blocks",
        "blocks": [
            block for block in responder.node.dag.blocks()
            if block.hash.digest not in digest
        ],
        "frontier": digest_list(responder.node.frontier()),
    }
