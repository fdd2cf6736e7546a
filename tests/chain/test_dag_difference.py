"""``BlockDAG.not_under`` against its definition, the skip sample, and
the cursor read.

The push half of every session sends ``dag.not_under(peer frontier)``;
the definition it replaces is "every block, in insertion order, that is
neither a tip nor in ``ancestors(tip)``".  Seeded random DAGs cover
wide frontiers, unknown tips, tips == frontier and tips == genesis; the
lists must be equal *in order*, because the order is what goes on the
wire (and what the store replays).  Started from given heads, it is the
same definition restricted to the heads and their ancestors.
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


def _closure(dag: BlockDAG, hashes) -> set[Hash]:
    """The known *hashes* and all their ancestors."""
    closed: set[Hash] = set()
    for block_hash in hashes:
        if block_hash in dag:
            closed.add(block_hash)
            closed |= dag.ancestors(block_hash)
    return closed


def _naive(dag: BlockDAG, tips, heads=None) -> list[Block]:
    under = _closure(dag, tips)
    reach = dag.hashes() if heads is None else _closure(dag, heads)
    return [
        block for block in dag.blocks()
        if block.hash in reach and block.hash not in under
    ]


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


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("width", [1, 4, 24])
def test_not_under_from_heads_equals_the_naive_definition(seed, width):
    dag, blocks = _random_dag(seed, 120, width)
    rng = random.Random(seed * 37 + width)
    unknown = [Hash.of_bytes(b"elsewhere-%d" % i) for i in range(2)]
    for _ in range(12):
        heads = [b.hash for b in rng.sample(blocks, rng.randint(1, 6))]
        tips = [b.hash for b in rng.sample(blocks, rng.randint(0, 4))]
        for tips_, heads_ in ((tips, heads), (tips + unknown, heads),
                              (tips, heads + unknown), ([], heads)):
            assert dag.not_under(tips_, heads_) == _naive(dag, tips_, heads_)
    # No heads, or only unknown ones: nothing is under them.
    assert dag.not_under([], []) == []
    assert dag.not_under([], unknown) == []
    # The frontier as heads is the default.
    tips = [blocks[60].hash]
    assert dag.not_under(tips, dag.frontier()) == dag.not_under(tips)


def _levels(dag: BlockDAG) -> dict[int, set[Hash]]:
    levels: dict[int, set[Hash]] = {}
    for block_hash in dag.insertion_order():
        levels.setdefault(dag.height(block_hash), set()).add(block_hash)
    return levels


def test_skip_sample_takes_whole_levels_at_exponential_depths():
    dag, blocks = _random_dag(3, 200, 4)
    levels = _levels(dag)
    top = dag.max_height()
    sample = dag.skip_sample(64)
    heights = {top, 0} | {top - (1 << k) for k in range(top.bit_length())}
    # Every block at heights H, H-1, H-2, H-4, ..., 0; no hash twice.
    assert set(sample) == set().union(*(levels[h] for h in heights))
    assert len(sample) == len(set(sample))
    assert [dag.height(h) for h in sample] == sorted(
        (dag.height(h) for h in sample), reverse=True
    )
    # A level is a cut: every higher block descends from a block on it.
    for height in heights:
        for block_hash in dag.insertion_order():
            if dag.height(block_hash) > height:
                assert _closure(dag, [block_hash]) & levels[height]
    # Below the top g levels there is a sample level fewer than g
    # levels further down: cutting there overshoots by fewer than g.
    for gap in range(1, top // 2 + 1):
        assert any(top - 2 * gap < h <= top - gap for h in heights)
    # A smaller limit keeps whole levels, highest first.
    small = dag.skip_sample(5)
    assert len(small) <= 5
    assert set(small) == set().union(
        *(levels[dag.height(h)] for h in small)
    )
    assert BlockDAG(blocks[0]).skip_sample(64) == [dag.genesis_hash]


def test_skip_sample_does_not_depend_on_arrival_order():
    dag, blocks = _random_dag(5, 150, 6)
    for seed in range(4):
        again = BlockDAG(blocks[0])
        for block_hash in dag.topological_order(random.Random(seed)):
            if block_hash != dag.genesis_hash:
                again.add_block(dag.get(block_hash))
        assert again.insertion_order() != dag.insertion_order()
        assert set(again.skip_sample(64)) == set(dag.skip_sample(64))
        assert set(again.skip_sample(7)) == set(dag.skip_sample(7))


def test_skip_sample_leaves_out_a_level_wider_than_the_limit():
    dag, _ = _random_dag(11, 300, 24)
    for clock in range(1000, 1080):
        dag.add_block(Block.create(_KEY, [dag.genesis_hash], clock))
    levels = _levels(dag)
    assert len(levels[1]) > 64
    sample = dag.skip_sample(64)
    assert len(sample) <= 64 and len(set(sample)) == len(sample)
    assert not levels[1] & set(sample)
    assert dag.genesis_hash in sample
    assert levels[dag.max_height()] <= set(sample)


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
