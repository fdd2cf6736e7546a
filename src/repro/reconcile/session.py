"""What every reconciliation protocol shares.

A protocol is written once, as two halves that each touch only their
own replica (see ``docs/reconciliation.md``, "Adding a study
protocol"):

* an **initiator** — a generator over a :class:`SessionSide`:
  ``reply = yield request``; a one-way message yields and gets ``None``
  back;
* **responder handlers** — functions registered with :func:`handles`
  under the request ``type`` they answer, dispatched by the one
  :class:`Responder`.

Messages between the halves are dicts with a string ``"type"``; blocks
travel as :class:`~repro.chain.block.Block` objects under ``"blocks"``.
:func:`lower` turns a message into its canonical wire map — every block
as the bytes it was encoded to when it was constructed, so sending or
measuring a message never walks a block — and :func:`lift` raises a
decoded map back into blocks.  The in-process driver only ever lowers
(for byte accounting), so the simulator never parses; the asyncio
driver does both.

Also here: ``merge_blocks`` (the only way a block enters a DAG), the
push half of a session, the ``get_blocks`` / ``push_blocks`` handlers
any protocol may use (``get_blocks`` optionally naming, by hash, the
rest of a gap below a skip-sample cut), and the one byte budget every
batch of block bodies is cut at.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, List, Optional, Sequence

from repro import wire
from repro.chain.block import Block
from repro.chain.errors import (
    ChainError,
    DuplicateBlockError,
    MalformedBlockError,
    ValidationError,
)
from repro.core.node import VegvisirNode
from repro.crypto.sha import DIGEST_SIZE, Hash
from repro.reconcile.stats import ReconcileStats

#: Called with each batch of blocks newly merged into the local replica
#: (the persistence hook: LiveNode appends them to its BlockStore).
BlockSink = Callable[[List[Block]], None]


#: Most block-body bytes in one message, spent by the block that crosses
#: it (so a batch is never empty and never more than one block over).
#: Far below ``wire.framing.MAX_FRAME_BYTES``: an honest sender never
#: builds a frame the receiver must refuse, a contact that breaks loses
#: at most this much, and a digest list is bounded by what the same
#: budget holds in digests.
BATCH_BUDGET_BYTES = 256 * 1024

#: Most hashes in the ``sample`` of a ``get_blocks`` request: the
#: log₂ H + 2 levels of a skip sample of a history a few blocks wide.
SAMPLE_LIMIT = 64


class ReconcileError(Exception):
    """The peer sent something unusable; the session must be torn down."""


class MergeResult:
    """What happened to one batch of received blocks."""

    __slots__ = ("added", "duplicates", "invalid", "missing_parents",
                 "unplaced")

    def __init__(self):
        self.added: list[Block] = []
        self.duplicates = 0
        self.invalid = 0
        self.missing_parents: set[Hash] = set()
        self.unplaced: list[Block] = []

    @property
    def complete(self) -> bool:
        """Did every non-duplicate, valid block make it into the DAG?"""
        return not self.missing_parents


def merge_blocks(node: VegvisirNode, blocks: Iterable[Block]) -> MergeResult:
    """Insert received blocks in dependency order.

    Blocks enter in the order of repeated sweeps over the batch, each
    sweep inserting — in batch order — every block whose parents are
    present by the time it is reached, until a sweep places nothing.
    The sweeps are not run: each block counts its absent parents and is
    queued for the sweep in which the last of them arrives, so the cost
    is the batch, not batch x sweeps, whatever order it came in.
    Blocks still missing parents are reported in the result so the
    protocol can fetch another level.  Invalid blocks (bad signature,
    timestamp, non-member) are counted and dropped — a malicious
    responder cannot poison the DAG.
    """
    result = MergeResult()
    batch = list(blocks)
    table = node.dag.table
    # Per batch position: how many parent references are still absent;
    # per absent parent: the positions that wait for it.
    absent: dict[int, int] = {}
    waiting: dict[Hash, list[int]] = {}
    ready: list[int] = []
    for position, block in enumerate(batch):
        missing = [
            parent for parent in block.parents if parent not in table
        ]
        if missing:
            absent[position] = len(missing)
            for parent in missing:
                waiting.setdefault(parent, []).append(position)
        else:
            ready.append(position)
    while ready:
        # One sweep.  Batch-verify what is insertable as it starts: the
        # backend sees one batch per dependency level instead of one
        # call per block, and the verdicts land in the shared
        # verified-block cache so validate() only hits.
        node.validator.preverify([batch[position] for position in ready])
        next_sweep: list[int] = []
        while ready:
            position = heapq.heappop(ready)
            block = batch[position]
            if block.hash in table:
                result.duplicates += 1
                continue
            try:
                node.receive_block(block)
            except (ValidationError, ChainError, DuplicateBlockError):
                result.invalid += 1
                continue
            result.added.append(block)
            for waiter in waiting.pop(block.hash, ()):
                absent[waiter] -= 1
                if not absent[waiter]:
                    del absent[waiter]
                    # A sweep only moves forward through the batch.
                    if waiter > position:
                        heapq.heappush(ready, waiter)
                    else:
                        next_sweep.append(waiter)
        next_sweep.sort()
        ready = next_sweep
    result.unplaced = [batch[position] for position in absent]
    for block in result.unplaced:
        for parent in block.parents:
            if parent not in table:
                result.missing_parents.add(parent)
    return result


# ----------------------------------------------------------------------
# Messages: validation helpers and the object <-> wire boundary.

def as_hash(value) -> Hash:
    """A digest from the wire: exactly 32 ``bytes``, nothing coerced."""
    if not isinstance(value, bytes) or len(value) != DIGEST_SIZE:
        raise ReconcileError(f"digest must be {DIGEST_SIZE} bytes")
    return Hash(value)


def as_hashes(values) -> List[Hash]:
    """A digest list from the wire, no longer than :func:`digest_list`
    makes one."""
    if not isinstance(values, list):
        raise ReconcileError("digest list must be a list")
    if len(values) > BATCH_BUDGET_BYTES // DIGEST_SIZE:
        raise ReconcileError("digest list is over the batch budget")
    return [as_hash(value) for value in values]


def digest_list(hashes: Iterable[Hash]) -> List[bytes]:
    """*hashes* as a sorted wire list, cut to what :func:`as_hashes`
    accepts.  A cut list is still an honest one: a hash left out of a
    frontier or a want list costs a duplicate body or a later session,
    never a wrong block."""
    digests = [block_hash.digest for block_hash in sorted(hashes)]
    return digests[:BATCH_BUDGET_BYTES // DIGEST_SIZE]


def first_batch(blocks: Sequence[Block]) -> Sequence[Block]:
    """The prefix of *blocks* that fits one message's byte budget."""
    size = 0
    for count, block in enumerate(blocks, 1):
        size += block.wire_size
        if size >= BATCH_BUDGET_BYTES:
            return blocks[:count]
    return blocks


def expect(reply: dict, wanted: str) -> dict:
    """The reply, if it has the type the initiator is waiting for."""
    if reply["type"] != wanted:
        raise ReconcileError(
            f"expected {wanted!r} reply, got {reply['type']!r}"
        )
    return reply


def error_message(reason: str) -> dict:
    """What a responder driver answers a bad request with."""
    return {"type": "error", "reason": reason}


def lower(message: dict) -> dict:
    """A message's canonical wire map: each block as the encoding it
    already carries, to be spliced in by ``wire.encode``."""
    blocks = message.get("blocks")
    if blocks is None:
        return message
    return {
        **message,
        "blocks": [wire.Encoded(block.to_bytes()) for block in blocks],
    }


def lift(decoded) -> dict:
    """A decoded wire map back as a message (decoded blocks as
    :class:`Block` objects)."""
    if not isinstance(decoded, dict) or not isinstance(
        decoded.get("type"), str
    ):
        raise ReconcileError("message is not a typed map")
    if decoded["type"] == "error":
        raise ReconcileError(
            f"peer reported error: {decoded.get('reason', '?')}"
        )
    if "blocks" in decoded:
        values = decoded["blocks"]
        if not isinstance(values, list):
            raise ReconcileError("blocks must be a list")
        try:
            decoded["blocks"] = [Block.from_wire(value) for value in values]
        except MalformedBlockError as exc:
            raise ReconcileError(
                f"peer sent malformed block: {exc}"
            ) from exc
    return decoded


def encode_message(message: dict) -> bytes:
    return wire.encode(lower(message))


def decode_message(payload: bytes) -> dict:
    try:
        decoded = wire.decode(payload)
    except wire.DecodeError as exc:
        raise ReconcileError(f"undecodable message: {exc}") from exc
    return lift(decoded)


# ----------------------------------------------------------------------
# The two halves of a session.

class SessionSide:
    """One replica's half of a session: its node, the stats it charges,
    and the optional persistence hook (``None`` in the simulator)."""

    def __init__(self, node: VegvisirNode, stats: ReconcileStats,
                 on_blocks: Optional[BlockSink] = None):
        self.node = node
        self.stats = stats
        self._on_blocks = on_blocks

    def merge(self, blocks: Iterable[Block]) -> MergeResult:
        """``merge_blocks`` into this side's replica, charged and hooked."""
        merged = merge_blocks(self.node, blocks)
        self.stats.duplicate_blocks += merged.duplicates
        self.stats.invalid_blocks += merged.invalid
        if self._on_blocks is not None and merged.added:
            self._on_blocks(merged.added)
        return merged

    def pull(self, blocks: Iterable[Block]) -> MergeResult:
        """:meth:`merge` for blocks the initiator asked for."""
        merged = self.merge(blocks)
        self.stats.blocks_pulled += len(merged.added)
        return merged


#: request type -> (handler, does it answer).  Filled at import time by
#: :func:`handles`: ``get_frontier``, ``get_blocks`` and ``push_blocks``
#: are all a replica answers.  A study protocol under
#: ``benchmarks/protocols/`` adds its own in the process that imports it.
HANDLERS: dict = {}


def handles(message_type: str, reply: bool = True):
    """Register the responder handler for one request type.

    ``handler(responder, message)`` returns the reply message, or
    ``None`` when registered with ``reply=False`` (a one-way message).
    """
    def register(handler):
        if message_type in HANDLERS:
            raise ValueError(f"two handlers for {message_type!r}")
        HANDLERS[message_type] = (handler, reply)
        return handler
    return register


def expects_reply(request: dict) -> bool:
    """Will the responder answer *request*?  (The initiator drivers must
    know without asking it.)"""
    return HANDLERS[request["type"]][1]


class Responder(SessionSide):
    """The responder half of every protocol, for one connection.

    ``handle`` maps one request to a reply, ``None`` for one-way
    messages.  Any malformed input raises :class:`ReconcileError`; the
    driver answers with an ``error`` message and drops the connection.
    """

    def __init__(self, node: VegvisirNode,
                 stats: Optional[ReconcileStats] = None,
                 on_blocks: Optional[BlockSink] = None):
        if stats is None:
            stats = ReconcileStats("responder")
        super().__init__(node, stats, on_blocks)

    def handle(self, message: dict) -> Optional[dict]:
        kind = message["type"]
        entry = HANDLERS.get(kind)
        if entry is None:
            raise ReconcileError(f"unknown request type {kind!r}")
        try:
            return entry[0](self, message)
        except (KeyError, TypeError, ValueError) as exc:
            raise ReconcileError(f"malformed {kind}: {exc}") from exc


def resume(initiator, reply: Optional[dict]) -> Optional[dict]:
    """Hand *reply* to the initiator; its next request, or ``None`` when
    the session is over.  The mirror of :meth:`Responder.handle`: a
    reply the initiator chokes on is a session error, not a crash."""
    try:
        return initiator.send(reply)
    except StopIteration:
        return None
    except (KeyError, TypeError, ValueError) as exc:
        raise ReconcileError(f"malformed reply: {exc}") from exc


# ----------------------------------------------------------------------
# Shared protocol pieces: the push half, and fetch-by-hash.

def push_blocks(me: SessionSide, missing: Sequence[Block]):
    """Send *missing* as one-way batches cut at the byte budget
    (initiator steps).  *missing* is parent-closed in order, so every
    batch lands on its own and a torn session keeps what was merged.

    There is no acknowledgement, so ``blocks_pushed`` counts blocks
    *sent*; the responder charges duplicates and invalid blocks to its
    own stats when it merges.
    """
    while missing:
        batch = first_batch(missing)
        yield {"type": "push_blocks", "blocks": batch}
        me.stats.blocks_pushed += len(batch)
        missing = missing[len(batch):]


def push_missing(me: SessionSide, responder_frontier: Sequence[Hash]):
    """The push half of a session (initiator steps).

    Assumes the initiator has already pulled, so its DAG is a superset
    of the responder's: everything under the responder's frontier is
    provably held by it (provenance §IV-A: a replica always holds the
    full ancestry of its frontier), the rest goes in topological order.
    So once the batches are out the responder holds everything under
    the frontier taken here, in the same step as the difference — not
    a block appended while they are in flight — and ``stats.held``
    records it.
    """
    me.stats.held = me.node.frontier()
    yield from push_blocks(me, me.node.dag.not_under(responder_frontier))


@handles("push_blocks", reply=False)
def _on_push_blocks(responder: Responder, message: dict) -> None:
    responder.merge(message["blocks"])


@handles("get_blocks")
def _on_get_blocks(responder: Responder, message: dict) -> dict:
    """The asked-for bodies the responder holds, cut at the budget.

    A request that carries a ``sample`` (a skip sample of the asker's
    history, ``BlockDAG.skip_sample``) also gets ``hashes``: the asked-for
    blocks' ancestors not under any sample block this replica holds,
    less the bodies sent — the rest of the gap, for the asker to fetch
    the part it lacks in one more round trip.  The asker holds
    everything under the sample, so the list only overshoots by what it
    holds above the cut.
    """
    dag = responder.node.dag
    asked = []
    for block_hash in as_hashes(message["hashes"]):
        block = dag.maybe_get(block_hash)
        if block is not None:
            asked.append(block)
    # What the budget cuts off the asker still lacks, and asks for again.
    blocks = first_batch(asked)
    reply = {"type": "blocks", "blocks": blocks}
    if "sample" in message:
        sample = as_hashes(message["sample"])
        if len(sample) > SAMPLE_LIMIT:
            raise ReconcileError(f"sample is over {SAMPLE_LIMIT} hashes")
        sent = {block.hash for block in blocks}
        below = dag.not_under(sample, [block.hash for block in asked])
        reply["hashes"] = digest_list(
            block.hash for block in below if block.hash not in sent
        )
    return reply
