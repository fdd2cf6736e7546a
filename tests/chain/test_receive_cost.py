"""What one received block costs, held by counts, not clocks.

A replica takes in a block with §IV-E validation, a DAG insert and a
CSM replay.  Those run once per block per replica, so their per-block
price is the budget of a low-power device.  The identity checks inside
them (hash lookups, parent membership, the verdict cache, the member
table) are C lookups on :class:`~repro.crypto.sha.Hash` keys and plain
slot reads on :class:`~repro.chain.block.Block`.  This test counts the
Python-level calls made under ``repro.chain``, ``repro.core``,
``repro.csm`` and ``repro.crypto.sha`` while a fresh replica merges a
seeded four-writer history, with the verified-block cache already warm,
and holds them under a stated ceiling.  A ``__hash__`` written in
Python, or a hot field turned back into a property, costs more calls
per block than the ceiling leaves room for, and fails here.
"""

from __future__ import annotations

import random
import sys

from repro.chain.block import Transaction
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.session import merge_blocks

#: Python calls per received block under the counted packages.  On this
#: history the code measures 29.9.  Each regression it guards against
#: measured above the ceiling: ``Hash.__hash__`` written in Python 60.0,
#: ``Block.timestamp`` as a property 34.3, ``Block.user_id`` as a
#: property 33.9.  Before ``Hash`` hashed in C it was 99.6.
CEILING_CALLS_PER_BLOCK = 32

COUNTED = ("repro.chain", "repro.core", "repro.csm")
COUNTED_MODULES = ("repro.crypto.sha",)


def _history(deployment, seed: int, rounds: int = 60):
    """Four members writing and gossiping at random: a DAG with
    concurrent branches, so some blocks cite several parents."""
    rng = random.Random(seed)
    writers = [deployment.node(index) for index in range(4)]
    writers[0].create_crdt("log", "append_log", "any", {"append": "*"})
    for step in range(rounds):
        writer = rng.choice(writers)
        for source in writers:
            if source is not writer and rng.random() < 0.4:
                FrontierProtocol().run(writer, source)
        writer.append_transactions(
            [Transaction("log", "append", [{"step": step}])]
        )
    for writer in writers[1:]:
        FrontierProtocol().run(writers[0], writer)
    history = writers[0].dag
    return [history.get(h) for h in history.insertion_order()[1:]]


def _count_calls(action) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        if module in COUNTED_MODULES or module.startswith(COUNTED):
            calls += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def test_a_received_block_costs_a_bounded_number_of_python_calls(
    deployment,
):
    blocks = _history(deployment, seed=31)
    assert len(blocks) == 61
    assert max(len(block.parents) for block in blocks) >= 2
    # Warm the shared verified-block cache: a first replica pays for
    # every signature, so the measured one only hits.
    warm = VegvisirNode(KeyPair.deterministic(9001), deployment.genesis,
                        clock=deployment.clock)
    assert len(merge_blocks(warm, blocks).added) == len(blocks)

    replica = VegvisirNode(KeyPair.deterministic(9002), deployment.genesis,
                           clock=deployment.clock)
    results = []
    calls = _count_calls(lambda: results.append(merge_blocks(replica,
                                                             blocks)))
    assert len(results[0].added) == len(blocks)
    assert replica.state_digest() == warm.state_digest()
    per_block = calls / len(blocks)
    assert per_block <= CEILING_CALLS_PER_BLOCK, (
        f"{per_block:.1f} Python calls per received block"
    )
