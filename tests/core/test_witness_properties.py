"""The linear :class:`WitnessTracker` against the walk it replaced.

The tracker stops an ancestor walk at the first block that already
counts the new block's creator.  The oracle here is the definition it
shortcuts: every block's creator is a witness of *every* ancestor,
found by a full ``dag.ancestors`` walk per block.  Random DAGs with a
handful of creators, observed in random interleavings of
``observe_block`` and ``sync`` as the DAG grows, must give the oracle's
witness sets for every block.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, BlockHeader
from repro.chain.dag import BlockDAG
from repro.core.witness import WitnessTracker
from repro.crypto.sha import Hash

# Creators are bare user ids: the DAG checks structure, not signatures,
# so no key is needed and the test costs the same on every backend.
CREATORS = [Hash.of_bytes(bytes([index])) for index in range(5)]
NO_SIGNATURE = bytes(64)


def _block(creator: Hash, parents: list[Hash], timestamp: int) -> Block:
    header = BlockHeader(user_id=creator, timestamp=timestamp,
                         parents=parents)
    return Block(header, [], NO_SIGNATURE)


def naive_witnesses(dag: BlockDAG) -> dict[Hash, set[Hash]]:
    """What the tracker computed before it learned to stop early."""
    table: dict[Hash, set[Hash]] = {h: set() for h in dag.hashes()}
    for block in dag.blocks():
        for ancestor in dag.ancestors(block.hash):
            table[ancestor].add(block.user_id)
    return {
        h: found - {dag.get(h).user_id} for h, found in table.items()
    }


# One step: a new block (creator index, parent draws, width) or an
# observation the caller makes between inserts.
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("block"),
            st.integers(0, len(CREATORS) - 1),
            st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
            st.integers(1, 6),
        ),
        st.tuples(st.just("observe"), st.integers(0, 10_000)),
        st.tuples(st.just("sync")),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(steps=_steps)
def test_linear_tracker_matches_the_full_walk(steps):
    genesis = _block(CREATORS[0], [], 0)
    dag = BlockDAG(genesis)
    order = [genesis.hash]
    tracker = WitnessTracker(dag)
    for clock, step in enumerate(steps, start=1):
        if step[0] == "block":
            _, creator, draws, width = step
            pool = order[-width:]
            parents = sorted({pool[draw % len(pool)] for draw in draws})
            block = _block(CREATORS[creator], parents, clock)
            dag.add_block(block)
            order.append(block.hash)
        elif step[0] == "observe":
            tracker.observe_block(order[step[1] % len(order)])
        else:
            tracker.sync()
    # A query syncs only for a block the tracker has not seen; one it
    # has seen answers from what was observed so far.
    tracker.sync()
    expected = naive_witnesses(dag)
    for block_hash in order:
        assert tracker.witnesses(block_hash) == expected[block_hash]
    for quorum in range(len(CREATORS) + 1):
        assert tracker.unwitnessed(quorum) == sorted(
            h for h in order if len(expected[h]) < quorum
        )


def test_each_block_takes_each_creator_once():
    """The cost half: on a single-author chain every walk stops after
    one step, so the blocks visited grow with the chain, not with its
    square."""
    creator = CREATORS[1]
    genesis = _block(CREATORS[0], [], 0)
    dag = BlockDAG(genesis)
    tip = genesis
    for clock in range(1, 301):
        tip = _block(creator, [tip.hash], clock)
        dag.add_block(tip)
    visited = []

    class CountingTable(dict):
        def __getitem__(self, key):
            visited.append(key)
            return dict.__getitem__(self, key)

    dag._blocks = CountingTable(dag._blocks)
    WitnessTracker(dag)
    # The first block walks to genesis (one step); every later block
    # stops at its parent, which the chain's author already witnesses.
    assert len(visited) <= 2 * 301
