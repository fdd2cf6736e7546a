"""The block DAG (paper Fig. 1, §IV-C/G).

:class:`BlockDAG` is one replica's copy of the chain: an append-only store
of blocks indexed by hash, with parent/child edges, the frontier set (the
blocks with no successors, which reconciliation exchanges first), the
difference against another replica's tips and a skip sample of the
history to measure it against, heights, and topological iteration for
the CRDT state machine.

The DAG enforces only *structural* rules (parents present, single genesis,
no duplicates); the protocol validity checks of §IV-E live in
:mod:`repro.chain.validation` so that storage and policy stay separate.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional

from repro.chain.block import Block
from repro.chain.errors import (
    ChainError,
    DuplicateBlockError,
    MissingParentsError,
    UnknownBlockError,
)
from repro.crypto.sha import Hash


class BlockDAG:
    """One replica's block DAG, rooted at a single genesis block."""

    def __init__(self, genesis: Block):
        if not genesis.is_genesis():
            raise ChainError("genesis block must have no parents")
        self._blocks: dict[Hash, Block] = {genesis.hash: genesis}
        self._children: dict[Hash, set[Hash]] = {genesis.hash: set()}
        self._heights: dict[Hash, int] = {genesis.hash: 0}
        # The blocks at each height, in insertion order: level N holds
        # the blocks whose longest path from genesis has N edges.
        self._levels: list[list[Hash]] = [[genesis.hash]]
        self._frontier: set[Hash] = {genesis.hash}
        self._genesis_hash = genesis.hash
        # Insertion sequence: one valid topological order, kept so replay
        # and persistence can stream blocks in an order that respects
        # parent-before-child.
        self._order: list[Hash] = [genesis.hash]

    @property
    def genesis_hash(self) -> Hash:
        """Identifies the blockchain (§IV-G)."""
        return self._genesis_hash

    @property
    def genesis(self) -> Block:
        return self._blocks[self._genesis_hash]

    def add_block(self, block: Block) -> None:
        """Insert a block whose parents are all present.

        Raises :class:`DuplicateBlockError` if already present (including
        a second genesis) and :class:`MissingParentsError` listing absent
        parents otherwise.
        """
        blocks = self._blocks
        block_hash = block.hash
        parents = block.parents
        if block_hash in blocks:
            raise DuplicateBlockError(f"block {block_hash.short()} present")
        if not parents:
            raise DuplicateBlockError("a second genesis block is not allowed")
        missing = [p for p in parents if p not in blocks]
        if missing:
            raise MissingParentsError(missing)
        blocks[block_hash] = block
        self._children[block_hash] = set()
        self._order.append(block_hash)
        for parent in parents:
            self._children[parent].add(block_hash)
        height = 1 + max(map(self._heights.__getitem__, parents))
        self._heights[block_hash] = height
        # A block is at most one above the highest level so far.
        if height == len(self._levels):
            self._levels.append([block_hash])
        else:
            self._levels[height].append(block_hash)
        self._frontier.difference_update(parents)
        self._frontier.add(block_hash)

    @property
    def table(self) -> dict[Hash, Block]:
        """The hash → block table itself, for loops that test many
        hashes: ``h in dag.table`` is a C lookup where ``h in dag`` is
        a Python call.  Read it; never write to it."""
        return self._blocks

    def get(self, block_hash: Hash) -> Block:
        try:
            return self._blocks[block_hash]
        except KeyError:
            raise UnknownBlockError(
                f"no block {block_hash.short()}"
            ) from None

    def maybe_get(self, block_hash: Hash) -> Optional[Block]:
        return self._blocks.get(block_hash)

    def height(self, block_hash: Hash) -> int:
        """Length of the longest path from genesis to this block."""
        try:
            return self._heights[block_hash]
        except KeyError:
            raise UnknownBlockError(
                f"no block {block_hash.short()}"
            ) from None

    def children(self, block_hash: Hash) -> set[Hash]:
        try:
            return set(self._children[block_hash])
        except KeyError:
            raise UnknownBlockError(
                f"no block {block_hash.short()}"
            ) from None

    def frontier(self) -> set[Hash]:
        """The level-1 frontier set: blocks with no successors (§IV-G)."""
        return set(self._frontier)

    def ancestors(self, block_hash: Hash) -> set[Hash]:
        """All ancestors of a block (excluding the block itself)."""
        result: set[Hash] = set()
        stack = list(self.get(block_hash).parents)
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(self._blocks[current].parents)
        return result

    def is_ancestor(self, ancestor: Hash, descendant: Hash) -> bool:
        """Is *ancestor* in the causal past of *descendant*?"""
        if ancestor not in self._blocks:
            raise UnknownBlockError(f"no block {ancestor.short()}")
        if ancestor == descendant:
            return False
        target_height = self._heights[ancestor]
        seen: set[Hash] = set()
        stack = list(self.get(descendant).parents)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if current == ancestor:
                return True
            # Prune: an ancestor's height is strictly lower.
            if self._heights[current] > target_height:
                stack.extend(self._blocks[current].parents)
        return False

    def descendants(self, block_hash: Hash) -> set[Hash]:
        """All descendants of a block (excluding the block itself)."""
        result: set[Hash] = set()
        stack = list(self.children(block_hash))
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(self._children[current])
        return result

    def insertion_order(self) -> list[Hash]:
        """The order blocks were added — a valid topological order."""
        return list(self._order)

    def inserted_since(self, count: int) -> list[Hash]:
        """The insertion order past its first *count* blocks: what a
        reader that has consumed *count* blocks has not seen yet."""
        return self._order[count:]

    def not_under(self, tips: Iterable[Hash],
                  heads: Optional[Iterable[Hash]] = None) -> list[Block]:
        """Blocks under *heads* (one of them or an ancestor of one; by
        default under the frontier, i.e. every block) that are neither
        one of *tips* nor an ancestor of one, in insertion order
        (``git rev-list heads ^tips``).

        Unknown tips and heads are ignored.  Walks the insertion order
        backwards from its end, marking what lies under the tips as it
        passes, and stops once nothing above the walk can reach an
        unmarked block under the heads — so the cost is the answer plus
        the blocks inserted after its oldest member, not the size of the
        DAG.
        """
        blocks = self._blocks
        under = {tip for tip in tips if tip in blocks}
        # Blocks known to be in the answer that the walk has yet to pass.
        # The walk reaches a block only after every descendant, so every
        # block of the answer enters here before the walk reaches it.
        awaited = {
            h for h in (self._frontier if heads is None else heads)
            if h in blocks
        } - under
        result: list[Block] = []
        position = len(self._order)
        while awaited:
            position -= 1
            block = blocks[self._order[position]]
            if block.hash in under:
                under.update(block.parents)
                awaited.difference_update(block.parents)
            elif block.hash in awaited:
                awaited.discard(block.hash)
                result.append(block)
                awaited.update(
                    parent for parent in block.parents
                    if parent not in under
                )
        result.reverse()
        return result

    def skip_sample(self, limit: int) -> list[Hash]:
        """At most *limit* hashes that cut this replica's history at
        exponentially spaced depths: every block at heights H, H−1, H−2,
        H−4, … and 0, H the greatest height (Git's fetch negotiation
        spaces its ``have`` lines the same way).  A whole level is a cut:
        every block higher than it descends from a block on it.  So a
        peer that holds the level at height t knows that, of what lies
        under this replica's blocks, it can lack only blocks above t and
        side branches that end below t; and below the top g levels there
        is a sample level fewer than g levels further down.

        A level that does not fit in what is left of *limit* is left out
        whole, so the sample depends only on the DAG, never on the order
        its blocks arrived in.  O(log H + sample).
        """
        levels = self._levels
        top = len(levels) - 1
        heights = dict.fromkeys(
            [top, *(top - (1 << k) for k in range(top.bit_length())), 0]
        )
        sample: list[Hash] = []
        for height in heights:
            if len(sample) + len(levels[height]) <= limit:
                sample += levels[height]
        return sample

    def topological_order(
        self, rng: Optional[random.Random] = None
    ) -> list[Hash]:
        """A topological order (parents before children).

        With *rng*, a uniformly shuffled one — used by convergence tests to
        check that replay order does not matter; without, a deterministic
        order sorted by (height, hash).
        """
        in_degree = {
            block_hash: len(block.parents)
            for block_hash, block in self._blocks.items()
        }
        ready = [h for h, degree in in_degree.items() if degree == 0]
        result: list[Hash] = []
        while ready:
            if rng is not None:
                index = rng.randrange(len(ready))
                ready[index], ready[-1] = ready[-1], ready[index]
            else:
                ready.sort(key=lambda h: (self._heights[h], h.digest),
                           reverse=True)
            current = ready.pop()
            result.append(current)
            for child in self._children[current]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        return result

    def blocks(self) -> Iterator[Block]:
        """All blocks in insertion (topological) order."""
        return (self._blocks[h] for h in self._order)

    def hashes(self) -> set[Hash]:
        return set(self._blocks)

    def total_wire_size(self) -> int:
        """Total bytes of all stored blocks' canonical encodings."""
        return sum(block.wire_size for block in self._blocks.values())

    def frontier_width(self) -> int:
        """Number of leaves — the branching measure of experiment F1."""
        return len(self._frontier)

    def max_height(self) -> int:
        return len(self._levels) - 1

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_hash: Hash) -> bool:
        return block_hash in self._blocks
