"""Property-based convergence: for *any* interleaving of writes and
pairwise syncs over any protocol mix, a final all-pairs sync converges
every replica to identical state and loses nothing.

Hypothesis drives the schedule; each action is (actor, kind, payload).
This is the whole-system analogue of the per-CRDT commutativity
properties.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.chain.block import Transaction
from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.membership.authority import CertificateAuthority
from repro.reconcile import FrontierProtocol

from benchmarks.protocols import (
    BloomProtocol,
    FullExchangeProtocol,
    HeightSkipProtocol,
)

NODES = 3

_PROTOCOLS = [
    FrontierProtocol(), FullExchangeProtocol(),
    BloomProtocol(), HeightSkipProtocol(),
]

_actions = st.lists(
    st.tuples(
        st.integers(0, NODES - 1),             # actor
        st.sampled_from(["append", "counter", "kv", "sync", "witness"]),
        st.integers(0, NODES - 1),             # sync peer / payload salt
        st.integers(0, 3),                     # protocol index
    ),
    min_size=1,
    max_size=25,
)


def _build_world():
    owner = KeyPair.deterministic(50_000)
    authority = CertificateAuthority(owner)
    keys = [KeyPair.deterministic(50_001 + i) for i in range(NODES)]
    genesis = create_genesis(
        owner, timestamp=0,
        founding_members=[
            authority.issue(k.public_key, "sensor", 1) for k in keys
        ],
    )
    clock = {"now": 1_000}

    def tick():
        clock["now"] += 10
        return clock["now"]

    nodes = [VegvisirNode(k, genesis, clock=tick) for k in keys]
    lead = nodes[0]
    lead.append_transactions([
        lead.create_crdt_tx("log", "append_log", "any", {"append": "*"}),
        lead.create_crdt_tx("count", "g_counter", "int",
                            {"increment": "*"}),
        lead.create_crdt_tx("kv", "or_map", "any",
                            {"set": "*", "remove": "*"}),
    ])
    for node in nodes[1:]:
        FrontierProtocol().run(node, lead)
    return nodes


@given(_actions)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_schedule_converges(actions):
    nodes = _build_world()
    seen_everywhere: set = set()
    step = 0
    for actor, kind, salt, protocol_index in actions:
        step += 1
        node = nodes[actor]
        if kind == "append":
            node.append_transactions(
                [Transaction("log", "append", [{"s": step, "x": salt}])]
            )
        elif kind == "counter":
            node.append_transactions(
                [Transaction("count", "increment", [salt + 1])]
            )
        elif kind == "kv":
            node.append_transactions(
                [Transaction("kv", "set", [f"k{salt}", step])]
            )
        elif kind == "witness":
            node.append_witness_block()
        else:
            peer = nodes[salt]
            if peer is not node:
                _PROTOCOLS[protocol_index].run(node, peer)
        for n in nodes:
            seen_everywhere |= n.dag.hashes()

    # Final all-pairs frontier sync.
    for a in nodes:
        for b in nodes:
            if a is not b:
                FrontierProtocol().run(a, b)

    digests = {node.state_digest().hex() for node in nodes}
    assert len(digests) == 1
    # Nothing any replica ever held is missing afterwards.
    final = nodes[0].dag.hashes()
    assert seen_everywhere <= final
    # Counters agree with the sum of all increments everywhere.
    values = {repr(node.crdt_value("count")) for node in nodes}
    assert len(values) == 1
