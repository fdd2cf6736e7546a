"""``BlockDAG.not_under`` against its definition, and the cursor read.

The push half of every session sends ``dag.not_under(peer frontier)``;
the definition it replaces is "every block, in insertion order, that is
neither a tip nor in ``ancestors(tip)``".  Seeded random DAGs cover
wide frontiers, unknown tips, tips == frontier and tips == genesis; the
lists must be equal *in order*, because the order is what goes on the
wire (and what the store replays).
"""

from __future__ import annotations

import random

import pytest

from repro.chain.block import Block
from repro.chain.dag import BlockDAG
from repro.crypto.keys import KeyPair
from repro.crypto.sha import Hash

_KEY = KeyPair.deterministic(4243)


def _random_dag(seed: int, size: int, width: int) -> tuple[BlockDAG, list]:
    """*size* blocks, each citing 1-3 parents drawn from the *width*
    most recent blocks or (one time in five) from anywhere."""
    rng = random.Random(seed)
    genesis = Block.create(_KEY, [], 0)
    dag = BlockDAG(genesis)
    blocks = [genesis]
    for clock in range(1, size + 1):
        pool = blocks if rng.random() < 0.2 else blocks[-width:]
        parents = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
        block = Block.create(_KEY, [p.hash for p in parents], clock)
        dag.add_block(block)
        blocks.append(block)
    return dag, blocks


def _naive(dag: BlockDAG, tips) -> list[Block]:
    under: set[Hash] = set()
    for tip in tips:
        if tip in dag:
            under.add(tip)
            under |= dag.ancestors(tip)
    return [block for block in dag.blocks() if block.hash not in under]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("width", [1, 4, 24])
def test_not_under_equals_the_naive_definition(seed, width):
    dag, blocks = _random_dag(seed, 120, width)
    rng = random.Random(seed * 31 + width)
    unknown = [Hash.of_bytes(b"elsewhere-%d" % i) for i in range(3)]
    tip_sets = [
        [],
        [dag.genesis_hash],
        sorted(dag.frontier()),
        unknown,
        unknown + [dag.genesis_hash],
        [blocks[-1].hash],
        [blocks[len(blocks) // 2].hash],
    ]
    for count in (1, 2, 5, 12):
        picked = [b.hash for b in rng.sample(blocks, count)]
        tip_sets += [picked, picked + unknown[:1]]
    for tips in tip_sets:
        assert dag.not_under(tips) == _naive(dag, tips)
        # Any iterable, consumed once.
        assert dag.not_under(iter(tips)) == _naive(dag, tips)


def test_special_cases():
    dag, blocks = _random_dag(5, 40, 6)
    assert dag.not_under(dag.frontier()) == []
    assert dag.not_under([dag.genesis_hash]) == blocks[1:]
    assert dag.not_under([]) == blocks
    lone = BlockDAG(blocks[0])
    assert lone.not_under([]) == [blocks[0]]
    assert lone.not_under([blocks[0].hash]) == []


def test_walk_stops_at_the_oldest_missing_block():
    """The cost is the answer plus what was inserted after its oldest
    block: a peer one block behind a long chain costs a walk of a block
    or two, not the chain."""
    genesis = Block.create(_KEY, [], 0)
    dag = BlockDAG(genesis)
    tip = genesis
    for clock in range(1, 201):
        tip = Block.create(_KEY, [tip.hash], clock)
        dag.add_block(tip)
    looked_up = []

    class Spy(dict):
        def __getitem__(self, key):
            looked_up.append(key)
            return dict.__getitem__(self, key)

    dag._blocks = Spy(dag._blocks)
    assert dag.not_under([tip.parents[0]]) == [tip]
    assert len(looked_up) <= 2


def test_inserted_since_reads_past_a_cursor():
    dag, blocks = _random_dag(9, 30, 4)
    order = dag.insertion_order()
    assert order == [b.hash for b in blocks]
    for cursor in (0, 1, 17, len(order), len(order) + 3):
        assert dag.inserted_since(cursor) == order[cursor:]
    # A copy: the caller may keep or change it.
    dag.inserted_since(0).clear()
    assert dag.insertion_order() == order
