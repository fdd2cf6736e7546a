"""Catch-up costs what is missing — counted in operations, not seconds.

* ``merge_blocks`` places blocks in the order of repeated sweeps over
  the batch without running the sweeps — compared, on shuffled batches
  with duplicates, gaps and a forged block, with the sweep loop itself;
* a deep pull where both sides diverged — three levels of Fig. 3, the
  last naming the rest of the gap by hash, then one fetch — takes four
  round trips and merges once: a 300-deep chain makes O(1)
  ``merge_blocks`` calls, ``preverify`` looks at O(depth) blocks in
  total and the responder looks each block up once, on the in-process
  and the asyncio driver.

(What the exchange costs when one side is simply behind — one merge,
one ``not_under``, no level walk — is counted in
``test_frontier_have.py``; ``not_under`` itself is held against
``ancestors()`` in ``tests/chain/test_dag_difference.py``.)
"""

from __future__ import annotations

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
from repro.reconcile import FrontierProtocol
from repro.reconcile import session as session_module
from repro.reconcile.session import MergeResult, merge_blocks

from tests.conftest import Deployment
from tests.reconcile.test_registry import _in_process, _over_asyncio

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


# -- a deep pull where both sides diverged, counted --------------------------

@pytest.mark.parametrize("drive", [
    pytest.param(_in_process, id="_in_process"),
    pytest.param(_over_asyncio, id="_asyncio"),
])
def test_deep_pull_merges_once_and_walks_each_level_once(drive, monkeypatch):
    deployment = Deployment()
    source = deployment.node(0)
    for _ in range(DEPTH):
        source.append_transactions([])
    joiner = deployment.node(1)
    joiner.append_transactions([])  # unknown to the source: no shortcut

    counts = {"merges": 0, "preverified": 0, "looked_up": 0}
    real_merge = session_module.merge_blocks
    real_preverify = BlockValidator.preverify
    real_maybe_get = BlockDAG.maybe_get

    def merge(node, blocks):
        counts["merges"] += 1
        return real_merge(node, blocks)

    def preverify(self, blocks):
        counts["preverified"] += len(blocks)
        return real_preverify(self, blocks)

    def maybe_get(self, block_hash):
        counts["looked_up"] += self is source.dag
        return real_maybe_get(self, block_hash)

    monkeypatch.setattr(session_module, "merge_blocks", merge)
    monkeypatch.setattr(BlockValidator, "preverify", preverify)
    monkeypatch.setattr(BlockDAG, "maybe_get", maybe_get)

    stats = drive(FrontierProtocol(push=False), joiner, source)

    assert stats.converged and stats.blocks_pulled == DEPTH
    # The tip, two levels (the second carrying the skip sample), then
    # every body the listed hashes named, in one fetch.
    assert stats.rounds == 4
    assert stats.duplicate_blocks == 0
    assert set(source.dag.hashes()) <= set(joiner.dag.hashes())
    assert counts["merges"] <= 2
    assert counts["preverified"] <= 3 * DEPTH
    # The tip came with the first reply; every other block was asked
    # for, and looked up, exactly once.
    assert counts["looked_up"] == DEPTH - 1
