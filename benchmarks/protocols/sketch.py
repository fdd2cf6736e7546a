"""Invertible-sketch set reconciliation — one round trip, bytes O(d).

The Bloom protocol (§VI direction) still pays for its filter in
proportion to the *whole* DAG and repairs false positives with extra
rounds.  An invertible Bloom lookup table (IBLT; Goodrich & Mitzenmacher
2011, Eppstein et al. SIGCOMM 2011 "What's the Difference?") goes one
better: the initiator sends a sketch of its block-hash set sized for the
expected symmetric *difference* d, the responder subtracts its own
same-shaped sketch and peels the result, recovering exactly which hashes
each side is missing.  One round trip, traffic independent of DAG size.

Peeling is probabilistic: an undersized sketch fails to decode.  The
protocol then retries with a geometrically larger sketch (the responder's
``sketch_fail`` reply reports its set size, which bounds the true
difference), and after ``max_attempts`` failures falls back to the
paper's frontier protocol — correctness never depends on the sketch, only
the bandwidth win does.  A corrupted or hostile sketch can therefore cost
bytes but never a DAG: recovered hashes only turn into blocks through
:func:`~repro.reconcile.session.merge_blocks` and full §IV-E validation.
"""

from __future__ import annotations

import hashlib

from repro.core.node import VegvisirNode
from repro.reconcile.engine import Protocol
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.session import (
    ReconcileError,
    Responder,
    SessionSide,
    as_hashes,
    digest_list,
    expect,
    handles,
    push_blocks,
)

_KEY_BYTES = 32   # cells sum 32-byte block hashes
_CHECK_BYTES = 8  # per-key checksum guarding the purity test

#: Upper bound on cells accepted off the wire (a hostile peer must not be
#: able to make us allocate gigabytes from a 20-byte frame).
MAX_WIRE_CELLS = 1 << 20

#: Cells per unit of expected difference.  k=4 partitioned sub-tables
#: decode with high probability at ~1.3×d; 1.5 adds margin so the retry
#: path stays rare at the sizes the gossip layer sees.
CELL_MARGIN = 1.5


def _checksum(seed: int, key: bytes) -> bytes:
    return hashlib.sha256(
        b"iblt-check" + seed.to_bytes(8, "big") + key
    ).digest()[:_CHECK_BYTES]


class IBLT:
    """Invertible Bloom lookup table over fixed-size byte keys.

    Each of the ``hash_count`` seeded hash functions owns its own
    sub-table (partitioned layout), so every insertion touches
    ``hash_count`` *distinct* cells.  A cell is ``(count, keysum,
    checksum)``; counts are signed so :meth:`subtract` yields a sketch of
    the symmetric difference whose cell signs say which side holds each
    recovered key.
    """

    def __init__(self, cell_count: int, hash_count: int = 4, seed: int = 0):
        if hash_count < 2:
            raise ValueError("IBLT needs at least 2 hash functions")
        if cell_count < hash_count:
            raise ValueError("IBLT needs at least one cell per sub-table")
        # Round up so the partition divides evenly.
        remainder = cell_count % hash_count
        if remainder:
            cell_count += hash_count - remainder
        self.cell_count = cell_count
        self.hash_count = hash_count
        self.seed = int(seed)
        self._counts = [0] * cell_count
        self._keys = bytearray(cell_count * _KEY_BYTES)
        self._checks = bytearray(cell_count * _CHECK_BYTES)

    @classmethod
    def for_difference(cls, expected_diff: int, hash_count: int = 4,
                       seed: int = 0) -> "IBLT":
        """Size a sketch to decode an expected symmetric difference."""
        expected_diff = max(int(expected_diff), 1)
        cells = max(
            2 * hash_count, int(expected_diff * CELL_MARGIN) + hash_count
        )
        return cls(cells, hash_count, seed)

    # -- cell arithmetic -----------------------------------------------

    def _positions(self, key: bytes):
        # One independent 8-byte hash value per sub-table.  (Double
        # hashing `h1 + i*h2` would be cheaper but correlates the
        # sub-tables: two keys agreeing on h1 and h2 mod the sub-table
        # size collide in EVERY sub-table — probability 1/s² per pair,
        # ruinous at the small tables this protocol starts from.)
        material = b""
        counter = 0
        while len(material) < 8 * self.hash_count:
            material += hashlib.sha256(
                self.seed.to_bytes(8, "big")
                + counter.to_bytes(4, "big")
                + key
            ).digest()
            counter += 1
        sub_size = self.cell_count // self.hash_count
        for i in range(self.hash_count):
            value = int.from_bytes(material[8 * i:8 * i + 8], "big")
            yield i * sub_size + value % sub_size

    def _apply(self, key: bytes, delta: int) -> None:
        check = _checksum(self.seed, key)
        for position in self._positions(key):
            self._counts[position] += delta
            key_off = position * _KEY_BYTES
            for j, byte in enumerate(key):
                self._keys[key_off + j] ^= byte
            check_off = position * _CHECK_BYTES
            for j, byte in enumerate(check):
                self._checks[check_off + j] ^= byte

    def insert(self, key: bytes) -> None:
        if len(key) != _KEY_BYTES:
            raise ValueError(f"IBLT keys must be {_KEY_BYTES} bytes")
        self._apply(key, 1)

    def remove(self, key: bytes) -> None:
        if len(key) != _KEY_BYTES:
            raise ValueError(f"IBLT keys must be {_KEY_BYTES} bytes")
        self._apply(key, -1)

    def subtract(self, other: "IBLT") -> "IBLT":
        """Cell-wise difference: a sketch of ``self_set Δ other_set``."""
        if (
            self.cell_count != other.cell_count
            or self.hash_count != other.hash_count
            or self.seed != other.seed
        ):
            raise ValueError("cannot subtract IBLTs of different shape")
        result = IBLT(self.cell_count, self.hash_count, self.seed)
        result._counts = [
            a - b for a, b in zip(self._counts, other._counts)
        ]
        result._keys = bytearray(
            a ^ b for a, b in zip(self._keys, other._keys)
        )
        result._checks = bytearray(
            a ^ b for a, b in zip(self._checks, other._checks)
        )
        return result

    # -- peeling -------------------------------------------------------

    def _cell_key(self, position: int) -> bytes:
        offset = position * _KEY_BYTES
        return bytes(self._keys[offset:offset + _KEY_BYTES])

    def _is_pure(self, position: int) -> bool:
        if self._counts[position] not in (1, -1):
            return False
        key = self._cell_key(position)
        check_off = position * _CHECK_BYTES
        return (
            bytes(self._checks[check_off:check_off + _CHECK_BYTES])
            == _checksum(self.seed, key)
        )

    def peel(self) -> tuple[list[bytes], list[bytes], bool]:
        """Decode a subtracted sketch.

        Returns ``(only_in_self, only_in_other, ok)`` where the key lists
        are sorted; ``ok`` is False when peeling got stuck (sketch too
        small for the true difference) — the partial lists are then
        untrustworthy and callers must retry or fall back.  Destructive:
        peeling drains the sketch.
        """
        only_self: list[bytes] = []
        only_other: list[bytes] = []
        queue = [
            position for position in range(self.cell_count)
            if self._is_pure(position)
        ]
        while queue:
            position = queue.pop()
            if not self._is_pure(position):
                continue
            key = self._cell_key(position)
            if self._counts[position] == 1:
                only_self.append(key)
                delta = -1
            else:
                only_other.append(key)
                delta = 1
            self._apply(key, delta)
            for touched in self._positions(key):
                if self._is_pure(touched):
                    queue.append(touched)
        ok = (
            not any(self._counts)
            and not any(self._keys)
            and not any(self._checks)
        )
        return sorted(only_self), sorted(only_other), ok

    # -- wire ----------------------------------------------------------

    @property
    def byte_size(self) -> int:
        """Approximate wire footprint (counts assumed 1 byte each)."""
        return self.cell_count * (1 + _KEY_BYTES + _CHECK_BYTES)

    def to_wire(self) -> dict:
        return {
            "cells": self.cell_count,
            "k": self.hash_count,
            "seed": self.seed,
            "counts": list(self._counts),
            "keys": bytes(self._keys),
            "checks": bytes(self._checks),
        }

    @classmethod
    def from_wire(cls, value: dict) -> "IBLT":
        if not isinstance(value, dict):
            raise ValueError("IBLT wire value must be a map")
        cells = value["cells"]
        hash_count = value["k"]
        seed = value["seed"]
        counts = value["counts"]
        keys = value["keys"]
        checks = value["checks"]
        if not all(
            isinstance(field, int) and not isinstance(field, bool)
            for field in (cells, hash_count, seed)
        ):
            raise ValueError("IBLT shape fields must be integers")
        if cells < 2 or cells > MAX_WIRE_CELLS:
            raise ValueError(f"IBLT cell count {cells} out of range")
        if not 0 <= seed < 1 << 64:
            raise ValueError("IBLT seed does not fit 8 bytes")
        if hash_count < 2 or cells % hash_count:
            raise ValueError("IBLT cell count must partition evenly")
        if (
            not isinstance(counts, list)
            or len(counts) != cells
            or not all(
                isinstance(count, int) and not isinstance(count, bool)
                for count in counts
            )
        ):
            raise ValueError("IBLT counts must be a list of ints per cell")
        if not isinstance(keys, bytes) or len(keys) != cells * _KEY_BYTES:
            raise ValueError("IBLT keysum bytes have the wrong length")
        if (
            not isinstance(checks, bytes)
            or len(checks) != cells * _CHECK_BYTES
        ):
            raise ValueError("IBLT checksum bytes have the wrong length")
        instance = cls(cells, hash_count, seed)
        instance._counts = list(counts)
        instance._keys = bytearray(keys)
        instance._checks = bytearray(checks)
        return instance


def sketch_of(node: VegvisirNode, expected_diff: int, hash_count: int,
              seed: int) -> IBLT:
    """An IBLT over every block hash the node holds."""
    sketch = IBLT.for_difference(expected_diff, hash_count, seed)
    for block_hash in node.dag.hashes():
        sketch.insert(block_hash.digest)
    return sketch


def decode_against(node: VegvisirNode,
                   remote: IBLT) -> tuple[list[bytes], list[bytes], bool]:
    """Subtract *remote* from the node's own same-shaped sketch and peel.

    Returns ``(local_only, remote_only, ok)``.
    """
    local = IBLT(remote.cell_count, remote.hash_count, remote.seed)
    for block_hash in node.dag.hashes():
        local.insert(block_hash.digest)
    difference = local.subtract(remote)
    return difference.peel()


class SketchProtocol(Protocol):
    """IBLT set reconciliation with doubling size estimation.

    Attempt *n* sends a sketch sized for ``initial_diff * growth**n``
    expected differing blocks (seeded per attempt, so a pathological
    hash alignment cannot repeat).  A ``sketch_fail`` reply carries the
    responder's set size, which caps further growth at the largest
    possible difference.  After ``max_attempts`` failed peels the session
    degrades to :class:`~repro.reconcile.frontier.FrontierProtocol` on
    the same stats object, counted in :attr:`fallbacks` over every
    session this object ran.
    """

    name = "sketch"

    def __init__(self, push: bool = True, initial_diff: int = 16,
                 max_attempts: int = 3, growth: int = 4,
                 hash_count: int = 4):
        if initial_diff < 1 or max_attempts < 1 or growth < 1:
            raise ValueError("degenerate sketch protocol parameters")
        self._push = push
        self._initial_diff = initial_diff
        self._max_attempts = max_attempts
        self._growth = growth
        self._hash_count = hash_count
        self.fallbacks = 0

    def initiate(self, me: SessionSide):
        node, stats = me.node, me.stats
        expected_diff = self._initial_diff
        for attempt in range(self._max_attempts):
            stats.rounds += 1
            sketch = sketch_of(
                node, expected_diff, self._hash_count, seed=attempt
            )
            reply = yield {"type": "sketch", "sketch": sketch.to_wire()}
            if reply["type"] == "sketch_fail":
                size = reply["size"]
                if (not isinstance(size, int) or isinstance(size, bool)
                        or size < 0):
                    raise ReconcileError("sketch_fail size is not a count")
                # The true difference can never exceed the two set sizes
                # combined; a sketch sized for that always has headroom.
                bound = len(node.dag) + size
                expected_diff = min(expected_diff * self._growth, bound)
                continue

            expect(reply, "sketch_blocks")
            want = reply["want"]
            if not isinstance(want, list) or not all(
                isinstance(digest, bytes) for digest in want
            ):
                raise ReconcileError("sketch want-list is malformed")
            responder_frontier = as_hashes(reply["frontier"])
            merged = me.pull(reply["blocks"])
            if merged.complete and all(
                node.has_block(h) for h in responder_frontier
            ):
                stats.converged = True
                if self._push:
                    # Push exactly the blocks the peeled difference
                    # proved missing: no frontier-ancestry walk, so the
                    # push costs O(d) too.
                    wanted = set(want)
                    yield from push_blocks(me, [
                        block for block in node.dag.blocks()
                        if block.hash.digest in wanted
                    ])
                return
            # Decoded hashes did not close the DAG (garbage keys from a
            # corrupted-but-decodable sketch, or invalid blocks): treat
            # as a failed attempt rather than trusting the decode.  No
            # size bound here — this reply carries no set size.
            expected_diff *= self._growth

        self.fallbacks += 1
        yield from FrontierProtocol(push=self._push).initiate(me)


@handles("sketch")
def _on_sketch(responder: Responder, message: dict) -> dict:
    node = responder.node
    local_only, remote_only, ok = decode_against(
        node, IBLT.from_wire(message["sketch"])
    )
    if not ok:
        return {"type": "sketch_fail", "size": len(node.dag)}
    # local_only = blocks only the responder holds (the pull set);
    # remote_only = blocks only the initiator holds (the want list the
    # push phase answers).  Blocks travel in the responder's insertion
    # order, which is parent-closed.
    only_here = set(local_only)
    return {
        "type": "sketch_blocks",
        "blocks": [
            block for block in node.dag.blocks()
            if block.hash.digest in only_here
        ],
        "want": remote_only,
        "frontier": digest_list(node.frontier()),
    }
