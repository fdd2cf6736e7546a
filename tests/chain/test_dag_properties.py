"""Property-based BlockDAG tests.

Hypothesis builds random DAGs (random parent subsets, always including
at least one existing block) and checks the structural invariants that
every other layer relies on:

* the frontier is exactly the set of blocks with no children;
* ancestors/descendants are duals;
* every topological order places parents before children;
* heights equal the longest genesis path.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.chain.block import Block
from repro.chain.dag import BlockDAG
from repro.crypto.keys import KeyPair

_KEY = KeyPair.deterministic(4242)


def _build_dag(parent_choices: list[int], fanouts: list[int]) -> BlockDAG:
    """Deterministically grow a DAG from two integer seeds per block."""
    genesis = Block.create(_KEY, [], 0)
    dag = BlockDAG(genesis)
    blocks = [genesis]
    clock = 0
    for choice, fanout in zip(parent_choices, fanouts):
        rng = random.Random(choice * 7919 + fanout)
        count = 1 + fanout % min(3, len(blocks))
        parents = rng.sample(blocks, count)
        clock = max(clock, max(p.timestamp for p in parents)) + 1
        block = Block.create(_KEY, [p.hash for p in parents], clock)
        dag.add_block(block)
        blocks.append(block)
    return dag


_dag_strategy = st.builds(
    _build_dag,
    st.lists(st.integers(0, 10_000), min_size=1, max_size=25),
    st.lists(st.integers(0, 10_000), min_size=25, max_size=25),
)


@given(_dag_strategy)
@settings(max_examples=60, deadline=None)
def test_frontier_is_childless_set(dag):
    childless = {
        block.hash for block in dag.blocks()
        if not dag.children(block.hash)
    }
    assert dag.frontier() == childless
    assert dag.frontier_width() == len(childless)


@given(_dag_strategy, st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_ancestor_descendant_duality(dag, pick):
    hashes = sorted(dag.hashes())
    target = hashes[pick % len(hashes)]
    for ancestor in dag.ancestors(target):
        assert target in dag.descendants(ancestor)
        assert dag.is_ancestor(ancestor, target)
    for descendant in dag.descendants(target):
        assert target in dag.ancestors(descendant)


@given(_dag_strategy, st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_topological_orders_valid(dag, seed):
    order = dag.topological_order(rng=random.Random(seed))
    assert len(order) == len(dag)
    position = {h: i for i, h in enumerate(order)}
    for block in dag.blocks():
        for parent in block.parents:
            assert position[parent] < position[block.hash]


@given(_dag_strategy)
@settings(max_examples=40, deadline=None)
def test_heights_are_longest_paths(dag):
    for block in dag.blocks():
        if block.is_genesis():
            assert dag.height(block.hash) == 0
        else:
            assert dag.height(block.hash) == 1 + max(
                dag.height(parent) for parent in block.parents
            )


@given(_dag_strategy)
@settings(max_examples=40, deadline=None)
def test_genesis_is_universal_ancestor(dag):
    for block in dag.blocks():
        if not block.is_genesis():
            assert dag.is_ancestor(dag.genesis_hash, block.hash)
