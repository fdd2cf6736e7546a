"""The skip-sample cut of a deep both-diverged frontier pull, as a
property.

Random pairs of replicas share a history written by two to four authors
and then diverge, each side's authors writing on their own and the side
ending on a block of its own (so no responder tip is one the initiator
holds below its frontier).  For every pair, one in-process session:

* converges, with no body crossing that its receiver held;
* takes at most four round trips — the tip, two levels, and one fetch of
  everything the listed hashes named that the initiator lacked;
* carries at most ``SAMPLE_LIMIT`` sample hashes, and lists no hash the
  responder holds under any sample block it knows: the list is cut
  exactly at the sample.

(The hostile samples and lists are in ``test_endpoint.py`` and
``test_hostile_replies.py``.)
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.crypto.sha import Hash
from repro.reconcile import FrontierProtocol, ReconcileSession
from repro.reconcile.session import SAMPLE_LIMIT, merge_blocks

from tests.conftest import Deployment


def _write(rng, authors, steps):
    """*steps* random appends among *authors*, who now and then merge
    what one of the others holds."""
    for _ in range(steps):
        author = rng.choice(authors)
        if len(authors) > 1 and rng.random() < 0.3:
            other = rng.choice(authors)
            merge_blocks(author, list(other.dag.blocks()))
        author.append_transactions([])


def _diverged_pair(seed, authors, shared, left_new, right_new):
    rng = random.Random(seed)
    deployment = Deployment()
    nodes = [deployment.node(i) for i in range(authors)]
    _write(rng, nodes, shared)
    for node in nodes:
        for other in nodes:
            merge_blocks(node, list(other.dag.blocks()))
    # Node 0 heads the left side, node 1 the right; the others join one.
    sides = [[nodes[0]], [nodes[1]]]
    for node in nodes[2:]:
        rng.choice(sides).append(node)
    for side, steps in zip(sides, (left_new, right_new)):
        _write(rng, side, steps)
        head = side[0]
        for other in side[1:]:
            merge_blocks(head, list(other.dag.blocks()))
        head.append_transactions([])
    return nodes[0], nodes[1]


@given(
    seed=st.integers(0, 2**32),
    authors=st.integers(2, 4),
    shared=st.integers(0, 40),
    left_new=st.integers(0, 30),
    right_new=st.integers(0, 60),
)
@settings(max_examples=20, deadline=None)
def test_cut_at_the_sample_heals_in_four_round_trips(
        seed, authors, shared, left_new, right_new):
    left, right = _diverged_pair(seed, authors, shared, left_new, right_new)
    union = left.dag.hashes() | right.dag.hashes()

    session = ReconcileSession(FrontierProtocol(), left, right)
    samples = []
    while (step := session.next_step()) is not None:
        message = step.message
        if "sample" in message:
            samples.append([Hash(digest) for digest in message["sample"]])
        elif "hashes" in message and not step.from_initiator:
            [sample] = samples
            cut = {h for h in sample if h in right.dag}
            under = set(cut)
            for block_hash in cut:
                under |= right.dag.ancestors(block_hash)
            listed = {Hash(digest) for digest in message["hashes"]}
            assert not listed & under

    stats = session.stats
    assert stats.converged and not stats.interrupted
    assert stats.duplicate_blocks == 0 and stats.invalid_blocks == 0
    assert left.dag.hashes() == right.dag.hashes() == union
    assert left.state_digest() == right.state_digest()
    assert stats.rounds <= 4
    assert len(samples) <= 1
    assert all(len(sample) <= SAMPLE_LIMIT for sample in samples)
