"""BlockDAG structure tests (Fig. 1 and Fig. 3)."""

import random

import pytest

from repro.chain.block import Block
from repro.chain.dag import BlockDAG
from repro.chain.errors import (
    ChainError,
    DuplicateBlockError,
    MissingParentsError,
    UnknownBlockError,
)
from repro.crypto.keys import KeyPair


@pytest.fixture
def key():
    return KeyPair.deterministic(60)


@pytest.fixture
def genesis(key):
    return Block.create(key, [], 0)


def _block(key, parents, ts):
    return Block.create(key, [p.hash for p in parents], ts)


class TestStructure:
    def test_genesis_only(self, genesis):
        dag = BlockDAG(genesis)
        assert len(dag) == 1
        assert dag.frontier() == {genesis.hash}
        assert dag.genesis_hash == genesis.hash

    def test_non_genesis_root_rejected(self, key, genesis):
        child = _block(key, [genesis], 1)
        with pytest.raises(ChainError):
            BlockDAG(child)

    def test_linear_chain(self, key, genesis):
        dag = BlockDAG(genesis)
        prev = genesis
        for ts in range(1, 6):
            block = _block(key, [prev], ts)
            dag.add_block(block)
            prev = block
        assert len(dag) == 6
        assert dag.frontier() == {prev.hash}
        assert dag.max_height() == 5

    def test_branch_and_merge(self, key, genesis):
        dag = BlockDAG(genesis)
        a = _block(key, [genesis], 1)
        b = Block.create(
            KeyPair.deterministic(61), [genesis.hash], 2
        )
        dag.add_block(a)
        dag.add_block(b)
        assert dag.frontier() == {a.hash, b.hash}
        assert dag.frontier_width() == 2
        merge = _block(key, [a, b], 3)
        dag.add_block(merge)
        assert dag.frontier() == {merge.hash}
        assert dag.height(merge.hash) == 2

    def test_duplicate_rejected(self, key, genesis):
        dag = BlockDAG(genesis)
        block = _block(key, [genesis], 1)
        dag.add_block(block)
        with pytest.raises(DuplicateBlockError):
            dag.add_block(block)

    def test_second_genesis_rejected(self, key, genesis):
        dag = BlockDAG(genesis)
        other = Block.create(KeyPair.deterministic(62), [], 0)
        with pytest.raises(DuplicateBlockError):
            dag.add_block(other)

    def test_missing_parents_reported(self, key, genesis):
        dag = BlockDAG(genesis)
        a = _block(key, [genesis], 1)
        b = _block(key, [a], 2)
        with pytest.raises(MissingParentsError) as excinfo:
            dag.add_block(b)
        assert excinfo.value.missing == [a.hash]

    def test_unknown_block_queries(self, genesis, key):
        dag = BlockDAG(genesis)
        phantom = _block(key, [genesis], 1)
        with pytest.raises(UnknownBlockError):
            dag.get(phantom.hash)
        with pytest.raises(UnknownBlockError):
            dag.height(phantom.hash)
        assert dag.maybe_get(phantom.hash) is None


class TestAncestry:
    def _diamond(self, key, genesis):
        dag = BlockDAG(genesis)
        a = _block(key, [genesis], 1)
        b = Block.create(KeyPair.deterministic(63), [genesis.hash], 2)
        dag.add_block(a)
        dag.add_block(b)
        merge = _block(key, [a, b], 3)
        dag.add_block(merge)
        return dag, a, b, merge

    def test_ancestors(self, key, genesis):
        dag, a, b, merge = self._diamond(key, genesis)
        assert dag.ancestors(merge.hash) == {a.hash, b.hash, genesis.hash}
        assert dag.ancestors(a.hash) == {genesis.hash}
        assert dag.ancestors(genesis.hash) == set()

    def test_is_ancestor(self, key, genesis):
        dag, a, b, merge = self._diamond(key, genesis)
        assert dag.is_ancestor(genesis.hash, merge.hash)
        assert dag.is_ancestor(a.hash, merge.hash)
        assert not dag.is_ancestor(merge.hash, a.hash)
        assert not dag.is_ancestor(a.hash, b.hash)  # concurrent
        assert not dag.is_ancestor(a.hash, a.hash)

    def test_descendants(self, key, genesis):
        dag, a, b, merge = self._diamond(key, genesis)
        assert dag.descendants(genesis.hash) == {a.hash, b.hash, merge.hash}
        assert dag.descendants(merge.hash) == set()

    def test_children(self, key, genesis):
        dag, a, b, merge = self._diamond(key, genesis)
        assert dag.children(genesis.hash) == {a.hash, b.hash}
        assert dag.children(a.hash) == {merge.hash}


class TestTopologicalOrder:
    def _random_dag(self, key, genesis, block_count=30, seed=7):
        rng = random.Random(seed)
        dag = BlockDAG(genesis)
        blocks = [genesis]
        clock = 0
        for _ in range(1, block_count):
            parent_count = rng.randint(1, min(3, len(blocks)))
            parents = rng.sample(blocks, parent_count)
            clock = max(
                clock, max(p.timestamp for p in parents)
            ) + 1 + rng.randint(0, 3)
            block = Block.create(key, [p.hash for p in parents], clock)
            dag.add_block(block)
            blocks.append(block)
        return dag

    def _is_topological(self, dag, order):
        position = {h: i for i, h in enumerate(order)}
        for block_hash in order:
            for parent in dag.get(block_hash).parents:
                if position[parent] >= position[block_hash]:
                    return False
        return True

    def test_insertion_order_is_topological(self, key, genesis):
        dag = self._random_dag(key, genesis)
        assert self._is_topological(dag, dag.insertion_order())

    def test_deterministic_order_is_topological(self, key, genesis):
        dag = self._random_dag(key, genesis)
        order = dag.topological_order()
        assert self._is_topological(dag, order)
        assert order == dag.topological_order()

    def test_shuffled_orders_are_topological(self, key, genesis):
        dag = self._random_dag(key, genesis)
        for seed in range(5):
            order = dag.topological_order(rng=random.Random(seed))
            assert self._is_topological(dag, order)
            assert len(order) == len(dag)

    def test_total_wire_size(self, key, genesis):
        dag = self._random_dag(key, genesis, block_count=5)
        assert dag.total_wire_size() == sum(
            block.wire_size for block in dag.blocks()
        )
