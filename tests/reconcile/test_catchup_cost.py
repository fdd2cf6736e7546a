"""Catch-up costs what is missing — counted in operations, not seconds.

Three replacements made a session linear in the blocks that move
without changing a byte on the wire; each is held here against the
definition it replaced:

* ``merge_blocks`` places blocks in the order of repeated sweeps over
  the batch without running the sweeps — compared, on shuffled batches
  with duplicates, gaps and a forged block, with the sweep loop itself;
* the responder's level cursor answers level N one step from level
  N-1 — compared with "sorted level-N frontier set minus what was
  sent" over in-order, skipping and repeated levels and a DAG that
  grows mid-session;
* a deep pull merges once — a 300-deep single-author chain makes O(1)
  ``merge_blocks`` calls, ``preverify`` looks at O(depth) blocks in
  total and the responder steps over O(depth) hashes, on the
  in-process and the asyncio driver.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.chain.block import Block
from repro.chain.dag import BlockDAG
from repro.chain.errors import (
    ChainError,
    DuplicateBlockError,
    MissingParentsError,
    ValidationError,
)
from repro.chain.validation import BlockValidator
from repro.live.protocol import run_session, serve_connection
from repro.live.transport import LoopbackTransport
from repro.reconcile import FrontierProtocol
from repro.reconcile import session as session_module
from repro.reconcile.session import MergeResult, Responder, merge_blocks

from tests.conftest import Deployment

DEPTH = 300


# -- merge_blocks against the sweep loop it replaced -----------------------

def _sweep_merge(node, blocks) -> MergeResult:
    """The definition: sweep the batch, inserting what is insertable,
    until a sweep places nothing."""
    result = MergeResult()
    pending = list(blocks)
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for block in pending:
            if node.has_block(block.hash):
                result.duplicates += 1
                progress = True
                continue
            if not all(parent in node.dag for parent in block.parents):
                remaining.append(block)
                continue
            try:
                node.receive_block(block)
            except MissingParentsError:
                remaining.append(block)
            except (ValidationError, ChainError, DuplicateBlockError):
                result.invalid += 1
                progress = True
            else:
                result.added.append(block)
                progress = True
        pending = remaining
    result.unplaced = pending
    for block in pending:
        for parent in block.parents:
            if not node.has_block(parent):
                result.missing_parents.add(parent)
    return result


def _wide_history(deployment, rng, steps):
    """Four authors appending and exchanging blocks at random: a DAG
    with forks, merges and paths of unequal length."""
    nodes = [deployment.node(i) for i in range(4)]
    for _ in range(steps):
        author = rng.choice(nodes)
        if rng.random() < 0.6:
            author.append_transactions([])
        else:
            other = rng.choice(nodes)
            merge_blocks(author, list(other.dag.blocks()))
    collector = nodes[0]
    for other in nodes[1:]:
        merge_blocks(collector, list(other.dag.blocks()))
    return collector


def _summary(result: MergeResult):
    return (
        [block.hash for block in result.added],
        result.duplicates,
        result.invalid,
        [block.hash for block in result.unplaced],
        result.missing_parents,
    )


@pytest.mark.parametrize("seed", range(10))
def test_merge_order_is_the_sweep_order(seed):
    rng = random.Random(seed)
    deployment = Deployment()
    source = _wide_history(deployment, rng, 90)
    history = list(source.dag.blocks())[1:]

    prefix = rng.randrange(1, len(history) // 3)
    batch = history[prefix:]
    # A gap (its descendants cannot land), repeats, a forged block whose
    # children cannot land either, and something held already.
    gap = rng.choice(batch[: len(batch) // 2])
    batch = [block for block in batch if block is not gap]
    lost = source.dag.descendants(gap.hash)
    victim = rng.choice([b for b in batch if b.hash not in lost])
    forged = Block(victim.header, victim.transactions, bytes(64))
    batch = [forged if block is victim else block for block in batch]
    batch += rng.sample(batch, 5)
    batch.append(history[rng.randrange(prefix)])
    rng.shuffle(batch)

    receivers = []
    for merge in (merge_blocks, _sweep_merge):
        receiver = deployment.node(1)
        for block in history[:prefix]:
            receiver.receive_block(block)
        receivers.append((receiver, merge(receiver, batch)))
    (new_node, new), (old_node, old) = receivers
    assert _summary(new) == _summary(old)
    assert new_node.dag.insertion_order() == old_node.dag.insertion_order()
    assert new.invalid >= 1 and new.unplaced and new.duplicates >= 1


def test_reverse_ordered_batch_looks_at_each_block_once(monkeypatch):
    """Worst case for the sweep loop: a chain offered tip first."""
    deployment = Deployment()
    source = deployment.node(0)
    for _ in range(DEPTH):
        source.append_transactions([])
    looked_at = []
    real = BlockValidator.preverify

    def counting(self, blocks):
        looked_at.append(len(blocks))
        return real(self, blocks)

    monkeypatch.setattr(BlockValidator, "preverify", counting)
    receiver = deployment.node(1)
    merged = merge_blocks(receiver, reversed(list(source.dag.blocks())))
    assert len(merged.added) == DEPTH and merged.complete
    assert sum(looked_at) <= DEPTH + 1


# -- the responder's level cursor against the level-set definition ---------

def _definition(dag: BlockDAG, sent: set, level: int) -> list:
    if level == 1:
        sent.clear()
    level_hashes = sorted(dag.frontier_level(level))
    new = [h for h in level_hashes if h not in sent]
    sent.update(level_hashes)
    return new


@pytest.mark.parametrize("levels", [
    pytest.param(list(range(1, 40)), id="in-order"),
    pytest.param([1, 2, 3, 1, 2, 3, 4, 5], id="restart"),
    pytest.param([1, 4, 5, 6, 2, 3, 9, 10], id="skipping"),
    pytest.param([3, 4, 4, 5, 1, 2, 2, 3], id="repeats-and-no-level-1"),
    pytest.param([1, 2, 500, 501, 3], id="past-genesis"),
])
@pytest.mark.parametrize("grow_at", [None, 2, 5])
def test_level_cursor_answers_what_the_level_sets_define(levels, grow_at):
    rng = random.Random(len(levels))
    responder_node = _wide_history(Deployment(), rng, 70)
    responder = Responder(responder_node)
    sent: set = set()
    for step, level in enumerate(levels):
        if step == grow_at:
            responder_node.append_transactions([])
        reply = responder.handle({"type": "get_frontier", "level": level})
        assert [block.hash for block in reply["blocks"]] == _definition(
            responder_node.dag, sent, level
        )


# -- a deep pull, counted ---------------------------------------------------

def _in_process(protocol, joiner, source):
    return protocol.run(joiner, source)


def _asyncio(protocol, joiner, source):
    async def scenario():
        near, far = LoopbackTransport.pair()
        server = asyncio.ensure_future(serve_connection(source, far))
        try:
            return await run_session(protocol, joiner, near)
        finally:
            await near.close()
            await server

    return asyncio.run(scenario())


@pytest.mark.parametrize("drive", [_in_process, _asyncio])
def test_deep_pull_merges_once_and_walks_each_level_once(drive, monkeypatch):
    deployment = Deployment()
    source = deployment.node(0)
    for _ in range(DEPTH):
        source.append_transactions([])
    joiner = deployment.node(1)

    counts = {"merges": 0, "preverified": 0, "stepped": 0}
    real_merge = session_module.merge_blocks
    real_preverify = BlockValidator.preverify
    real_deepen = BlockDAG.deepen

    def merge(node, blocks):
        counts["merges"] += 1
        return real_merge(node, blocks)

    def preverify(self, blocks):
        counts["preverified"] += len(blocks)
        return real_preverify(self, blocks)

    def deepen(self, reached, boundary):
        counts["stepped"] += len(boundary)
        return real_deepen(self, reached, boundary)

    monkeypatch.setattr(session_module, "merge_blocks", merge)
    monkeypatch.setattr(BlockValidator, "preverify", preverify)
    monkeypatch.setattr(BlockDAG, "deepen", deepen)

    stats = drive(FrontierProtocol(), joiner, source)

    assert stats.converged and stats.blocks_pulled == DEPTH
    assert stats.rounds == DEPTH  # the wire is what it was
    assert joiner.dag.insertion_order() == source.dag.insertion_order()
    assert counts["merges"] <= 2
    assert counts["preverified"] <= 3 * DEPTH
    assert counts["stepped"] <= DEPTH
