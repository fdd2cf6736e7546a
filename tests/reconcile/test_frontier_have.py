"""The have-pruned frontier exchange, held to what it promises.

Seeded random DAG pairs in five relations — equal, initiator behind,
initiator ahead, both diverged on a narrow frontier, both diverged on a
wide one — run on both drivers:

* every pair converges, pulling exactly ``R − I`` and pushing exactly
  ``I − R``;
* when either side is a subset of the other it takes one round trip and
  no body crosses that its receiver holds;
* when both diverged, every fetched body is one the initiator lacked
  when it asked, and the only duplicates are responder tips the
  initiator held below its own;
* with the batch budget patched down, the same pairs converge in
  chunks, each within the budget plus one block, each landing whole,
  and a session torn after chunk *k* keeps exactly *k* chunks;
* a deep behind pull is one merge, one ``not_under`` on the responder
  and no level walk.

Also here: what the responder makes of a hostile ``have``.
"""

from __future__ import annotations

import random

import pytest

from repro.chain.block import Block
from repro.chain.dag import BlockDAG
from repro.crypto.sha import DIGEST_SIZE, Hash
from repro.reconcile import FrontierProtocol, ReconcileSession
from repro.reconcile import session as session_module
from repro.reconcile.session import ReconcileError, Responder

from tests.conftest import Deployment
from tests.reconcile.test_registry import DRIVERS

SMALL_BUDGET = 1536


# -- seeded DAG pairs ---------------------------------------------------------

def _grow(rng, deployment, node, count, width):
    """*count* crafted blocks into *node*, each by a random member and
    citing 1-3 parents among the *width* most recent blocks it holds (or,
    one time in five, any): forks, merges and a frontier about *width*
    wide."""
    held = list(node.dag.blocks())
    for _ in range(count):
        pool = held if rng.random() < 0.2 else held[-width:]
        parents = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
        block = Block.create(
            rng.choice(deployment.keys),
            [parent.hash for parent in parents], deployment.clock(),
        )
        node.receive_block(block)
        held.append(block)


#: relation -> (initiator-only blocks, responder-only blocks, width)
RELATIONS = {
    "equal": (0, 0, 3),
    "behind": (0, 30, 3),
    "ahead": (30, 0, 3),
    "diverged-narrow": (25, 30, 2),
    "diverged-wide": (30, 35, 24),
}
SUBSET = ("equal", "behind", "ahead")


def _pair(relation, seed):
    left_only, right_only, width = RELATIONS[relation]
    rng = random.Random(f"{relation}-{seed}")
    deployment = Deployment()
    left, right = deployment.node(0), deployment.node(1)
    _grow(rng, deployment, left, 40, width)
    for block in list(left.dag.blocks())[1:]:
        right.receive_block(block)
    _grow(rng, deployment, left, left_only, width)
    _grow(rng, deployment, right, right_only, width)
    if relation == "diverged-wide":
        assert left.dag.frontier_width() >= 8
        assert right.dag.frontier_width() >= 8
    return left, right


PAIRS = [
    pytest.param(relation, seed, id=f"{relation}-{seed}")
    for relation in RELATIONS for seed in range(3)
]


# -- both drivers -------------------------------------------------------------

@pytest.mark.parametrize("drive", DRIVERS)
@pytest.mark.parametrize("relation,seed", PAIRS)
def test_pair_converges_moving_exactly_the_difference(drive, relation, seed):
    left, right = _pair(relation, seed)
    left_only = left.dag.hashes() - right.dag.hashes()
    right_only = right.dag.hashes() - left.dag.hashes()
    responder_width = right.dag.frontier_width()

    stats = drive(FrontierProtocol(), left, right)

    assert stats.converged and not stats.interrupted
    assert left.dag.hashes() == right.dag.hashes()
    assert left.state_digest() == right.state_digest()
    assert stats.blocks_pulled == len(right_only)
    assert stats.blocks_pushed == len(left_only)
    assert stats.invalid_blocks == 0
    if relation in SUBSET:
        assert stats.rounds == 1
        assert stats.duplicate_blocks == 0
    else:
        assert stats.rounds > 1
        assert stats.duplicate_blocks <= responder_width


# -- message by message (the in-process driver; the parity suite holds the
# other to the same bytes) -----------------------------------------------------

def _steps(session):
    """Each wire message with its blocks parsed back, yielded while it
    is in flight (before its receiver has seen it)."""
    while True:
        step = session.next_step()
        if step is None:
            return
        blocks = [
            Block.from_bytes(encoded.data)
            for encoded in step.message.get("blocks", ())
        ]
        yield step, blocks


@pytest.fixture
def merges(monkeypatch):
    """``(blocks added, blocks left unplaced)`` of every ``merge_blocks``
    call of the test, in order.  (Counted as the call returns: the
    initiator goes on appending to the ``unplaced`` list it is handed.)"""
    results = []
    real = session_module.merge_blocks

    def merge(node, blocks):
        merged = real(node, blocks)
        results.append((len(merged.added), len(merged.unplaced)))
        return merged

    monkeypatch.setattr(session_module, "merge_blocks", merge)
    return results


@pytest.mark.parametrize("relation,seed", PAIRS)
def test_no_fetched_body_is_one_the_initiator_held(relation, seed):
    left, right = _pair(relation, seed)
    session = ReconcileSession(FrontierProtocol(), left, right)
    tips = right.dag.frontier()
    for step, blocks in _steps(session):
        if step.from_initiator:
            continue
        held = [block for block in blocks if left.has_block(block.hash)]
        if step.message["type"] == "blocks" or relation in ("equal", "behind"):
            assert not held
        else:
            # Unknowable to a responder that does not know ``have``
            # without a round of hashes: its own tips, held below the
            # initiator's.
            assert all(block.hash in tips for block in held)
    assert session.stats.converged


@pytest.mark.parametrize("relation,seed", PAIRS)
def test_small_budget_converges_in_whole_chunks(relation, seed, monkeypatch,
                                                merges):
    monkeypatch.setattr(session_module, "BATCH_BUDGET_BYTES", SMALL_BUDGET)
    left, right = _pair(relation, seed)
    left_only = left.dag.hashes() - right.dag.hashes()
    right_only = right.dag.hashes() - left.dag.hashes()
    biggest = max(block.wire_size for block in left.dag.blocks())
    biggest = max(biggest, *(b.wire_size for b in right.dag.blocks()))

    session = ReconcileSession(FrontierProtocol(), left, right)
    with_bodies = 0
    for step, blocks in _steps(session):
        with_bodies += bool(blocks)
        assert sum(b.wire_size for b in blocks) < SMALL_BUDGET + biggest

    stats = session.stats
    assert stats.converged
    assert left.dag.hashes() == right.dag.hashes()
    assert stats.blocks_pulled == len(right_only)
    assert stats.blocks_pushed == len(left_only)
    if relation != "equal":
        assert with_bodies > 1
    if relation in SUBSET:
        # Every chunk — pulled or pushed — lands whole, on its own.
        assert stats.duplicate_blocks == 0
        assert all(added and not unplaced for added, unplaced in merges)
        # (An initiator that is ahead does not merge the tips it is
        # offered: it holds them all.)
        assert len(merges) == with_bodies - (relation == "ahead")


@pytest.mark.parametrize("chunks", [1, 2, 3])
def test_torn_pull_keeps_exactly_the_chunks_it_merged(chunks, monkeypatch):
    monkeypatch.setattr(session_module, "BATCH_BUDGET_BYTES", SMALL_BUDGET)
    left, right = _pair("behind", 0)
    before = left.dag.insertion_order()
    missing = [b.hash for b in right.dag.not_under(left.dag.frontier())]

    session = ReconcileSession(FrontierProtocol(), left, right)
    sizes = []
    for step, blocks in _steps(session):
        # The initiator's next request follows the merge of a chunk.
        if step.from_initiator and len(sizes) == chunks:
            break
        if not step.from_initiator:
            assert step.message["more"] is True
            sizes.append(len(blocks))
    session.abort()

    kept = sum(sizes)
    assert len(sizes) == chunks and 0 < kept < len(missing)
    assert left.dag.insertion_order() == before + missing[:kept]
    assert session.stats.interrupted and not session.stats.converged
    assert session.stats.blocks_pulled == kept
    # The next contact picks up where this one was cut.
    again = FrontierProtocol().run(left, right)
    assert again.converged and again.blocks_pulled == len(missing) - kept


@pytest.mark.parametrize("chunks", [1, 2])
def test_torn_push_leaves_exactly_the_chunks_it_delivered(chunks,
                                                          monkeypatch):
    monkeypatch.setattr(session_module, "BATCH_BUDGET_BYTES", SMALL_BUDGET)
    left, right = _pair("ahead", 0)
    before = right.dag.insertion_order()
    missing = [b.hash for b in left.dag.not_under(right.dag.frontier())]

    session = ReconcileSession(FrontierProtocol(), left, right)
    sizes = []
    for step, blocks in _steps(session):
        if step.message["type"] == "push_blocks":
            if len(sizes) == chunks:
                break  # this one is in flight, and lost
            sizes.append(len(blocks))
    session.abort()

    kept = sum(sizes)
    assert 0 < kept < len(missing)
    assert right.dag.insertion_order() == before + missing[:kept]


# -- what a pull costs ----------------------------------------------------------

DEPTH = 400


@pytest.mark.parametrize("drive", DRIVERS)
def test_deep_behind_pull_is_one_merge_one_difference_no_level_walk(
        drive, monkeypatch, merges):
    deployment = Deployment()
    source = deployment.node(0)
    for _ in range(DEPTH):
        source.append_transactions([])
    joiner = deployment.node(1)

    calls = {"not_under": 0, "skip_sample": 0}

    def counted(name):
        real = getattr(BlockDAG, name)

        def method(self, *args):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(BlockDAG, name, method)

    counted("not_under")
    counted("skip_sample")

    stats = drive(FrontierProtocol(push=False), joiner, source)

    assert stats.converged and stats.blocks_pulled == DEPTH
    assert stats.rounds == 1 and stats.total_messages == 2
    assert joiner.dag.insertion_order() == source.dag.insertion_order()
    assert merges == [(DEPTH, 0)]
    assert calls == {"not_under": 1, "skip_sample": 0}


# -- a hostile ``have`` ---------------------------------------------------------

def _ask(node, have):
    return Responder(node).handle({"type": "get_frontier", "have": have})


def test_what_the_responder_makes_of_have():
    left, right = _pair("diverged-narrow", 1)
    everything = list(right.dag.blocks())
    tips = sorted(right.dag.frontier())
    tip_bodies = [right.dag.get(tip) for tip in tips]
    frontier = [tip.digest for tip in tips]
    unknown = [Hash.of_value(n).digest for n in range(3)]
    genesis = right.dag.genesis_hash.digest

    # Holding nothing is being behind everything, genesis included.
    assert _ask(right, []) == {
        "type": "frontier_set", "frontier": frontier, "blocks": everything,
    }
    # A repeated hash is the same claim made twice.
    assert _ask(right, [genesis, genesis])["blocks"] == everything[1:]
    # Only unknown hashes: the tips, for the asker to walk down from.
    assert _ask(right, unknown)["blocks"] == tip_bodies
    assert _ask(right, unknown + frontier[:1])["blocks"] == tip_bodies[1:]
    # Claiming the responder's own frontier costs the liar every block.
    assert _ask(right, frontier)["blocks"] == []


@pytest.mark.parametrize("have", [
    pytest.param(
        [bytes(DIGEST_SIZE)]
        * (session_module.BATCH_BUDGET_BYTES // DIGEST_SIZE + 1),
        id="over-long",
    ),
    pytest.param([b"short"], id="short-digest"),
    pytest.param([7], id="int"),
    pytest.param({"x": 1}, id="map"),
    pytest.param("x" * 32, id="str"),
])
def test_malformed_have_is_refused(have):
    node = Deployment().node(0)
    with pytest.raises(ReconcileError):
        _ask(node, have)
