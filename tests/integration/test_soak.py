"""Randomized whole-system soak tests.

Drives everything at once against one randomized schedule: concurrent
writers over every CRDT type, membership additions and revocations,
witness blocks, random pairwise reconciliation with all four protocols,
and a final all-pairs sync — then asserts the global invariants:

1. every replica converges to the same state digest;
2. a fresh CSM replaying the final DAG in random topological orders
   reproduces exactly that state;
3. no block ever held by any replica is missing from the converged DAG
   (tamperproofness: gossip never loses anything);
4. transaction verdicts agree across all replicas.
"""

from __future__ import annotations

import random

import pytest

from repro.chain.block import Transaction
from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.csm.machine import CSMachine
from repro.membership.authority import CertificateAuthority
from repro.reconcile import FrontierProtocol

from benchmarks.protocols import (
    BloomProtocol,
    FullExchangeProtocol,
    HeightSkipProtocol,
)


class SoakWorld:
    def __init__(self, seed: int, node_count: int = 5):
        self.rng = random.Random(seed)
        self.clock_value = 1_000
        self.owner = KeyPair.deterministic(seed * 7919 + 1)
        self.authority = CertificateAuthority(self.owner)
        self.keys = [
            KeyPair.deterministic(seed * 7919 + 2 + i)
            for i in range(node_count)
        ]
        certs = [
            self.authority.issue(key.public_key, "sensor", issued_at=1)
            for key in self.keys
        ]
        self.genesis = create_genesis(
            self.owner, timestamp=0, founding_members=certs
        )
        self.nodes = [
            VegvisirNode(key, self.genesis, clock=self._clock)
            for key in self.keys
        ]
        self.owner_node = VegvisirNode(
            self.owner, self.genesis, clock=self._clock
        )
        self.protocols = [
            FrontierProtocol(), FullExchangeProtocol(),
            BloomProtocol(), HeightSkipProtocol(),
        ]
        self._setup_crdts()

    def _clock(self) -> int:
        self.clock_value += self.rng.randint(1, 30)
        return self.clock_value

    def _setup_crdts(self):
        lead = self.nodes[0]
        lead.append_transactions([
            lead.create_crdt_tx("log", "append_log", "any", {"append": "*"}),
            lead.create_crdt_tx("count", "pn_counter", "int",
                                {"increment": "*", "decrement": "*"}),
            lead.create_crdt_tx("kv", "or_map", "any",
                                {"set": "*", "remove": "*"}),
            lead.create_crdt_tx("tags", "or_set", "str",
                                {"add": "*", "remove": "*"}),
            lead.create_crdt_tx("doc", "rga_sequence", "str",
                                {"insert": "*", "delete": "*"}),
            lead.create_crdt_tx("net", "graph_2p2p", "str",
                                {"add_vertex": "*", "add_edge": "*",
                                 "remove_vertex": "*", "remove_edge": "*"}),
        ])
        for node in self.nodes[1:] + [self.owner_node]:
            FrontierProtocol().run(node, lead)

    # -- random actions --------------------------------------------------

    def random_write(self, step: int):
        node = self.rng.choice(self.nodes)
        if node.csm.crdt_instance("log") is None:
            return
        choice = self.rng.randrange(7)
        try:
            if choice == 0:
                node.append_transactions(
                    [Transaction("log", "append", [{"step": step}])]
                )
            elif choice == 1:
                op = "increment" if self.rng.random() < 0.7 else "decrement"
                node.append_transactions(
                    [Transaction("count", op, [self.rng.randint(1, 9)])]
                )
            elif choice == 2:
                node.append_transactions(
                    [Transaction("kv", "set",
                                 [f"k{self.rng.randrange(8)}", step])]
                )
            elif choice == 3:
                tag = f"t{self.rng.randrange(6)}"
                instance = node.csm.crdt_instance("tags")
                if self.rng.random() < 0.7 or not instance.contains(tag):
                    node.append_transactions(
                        [Transaction("tags", "add", [tag])]
                    )
                else:
                    node.append_transactions(
                        [node.orset_remove_tx("tags", tag)]
                    )
            elif choice == 4:
                from repro.crdt.sequence import HEAD

                instance = node.csm.crdt_instance("doc")
                anchors = [HEAD] + [
                    instance.op_id_at(i) for i in range(len(instance))
                ]
                node.append_transactions([
                    Transaction("doc", "insert",
                                [self.rng.choice(anchors), f"c{step}"])
                ])
            elif choice == 5:
                a = f"v{self.rng.randrange(5)}"
                b = f"v{self.rng.randrange(5)}"
                node.append_transactions([
                    Transaction("net", "add_vertex", [a]),
                    Transaction("net", "add_vertex", [b]),
                    Transaction("net", "add_edge", [a, b]),
                ])
            else:
                node.append_witness_block()
        except Exception:
            raise

    def random_membership_change(self, step: int):
        newcomer = KeyPair.deterministic(90_000 + step)
        cert = self.authority.issue(
            newcomer.public_key, "sensor", issued_at=step
        )
        self.owner_node.append_transactions(
            [self.owner_node.add_member_tx(cert)]
        )

    def random_gossip(self):
        a, b = self.rng.sample(self.nodes + [self.owner_node], 2)
        protocol = self.rng.choice(self.protocols)
        protocol.run(a, b)

    def settle(self):
        everyone = self.nodes + [self.owner_node]
        for _ in range(2):
            for a in everyone:
                for b in everyone:
                    if a is not b:
                        FrontierProtocol().run(a, b)

    def all_nodes(self):
        return self.nodes + [self.owner_node]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_soak_converges(seed):
    world = SoakWorld(seed)
    union_of_blocks = set()
    for step in range(60):
        roll = world.rng.random()
        if roll < 0.55:
            world.random_write(step)
        elif roll < 0.60:
            world.random_membership_change(step)
        else:
            world.random_gossip()
        for node in world.all_nodes():
            union_of_blocks |= node.dag.hashes()
    world.settle()

    # 1. Convergence.
    digests = {node.state_digest().hex() for node in world.all_nodes()}
    assert len(digests) == 1

    # 3. Nothing ever seen is lost.
    final = world.nodes[0].dag.hashes()
    assert union_of_blocks <= final

    # 2. Replay determinism of the final DAG.
    dag = world.nodes[0].dag
    reference = world.nodes[0].csm.state_digest()
    for replay_seed in range(3):
        machine = CSMachine.from_genesis(world.genesis)
        for block_hash in dag.topological_order(
            rng=random.Random(replay_seed)
        ):
            if block_hash == dag.genesis_hash:
                continue
            machine.replay_block(dag.get(block_hash))
        assert machine.state_digest() == reference

    # 4. Verdicts agree everywhere.
    sample = [h for h in sorted(final) if h != dag.genesis_hash][:20]
    for block_hash in sample:
        verdicts = {
            tuple(
                (o.applied, o.reason)
                for o in node.csm.outcomes(block_hash)
            )
            for node in world.all_nodes()
        }
        assert len(verdicts) == 1


def test_soak_with_revocation():
    """Membership revocation mid-stream: causally-later blocks by the
    revoked member are rejected, earlier ones survive, everyone agrees."""
    world = SoakWorld(9)
    victim = world.nodes[2]
    for step in range(10):
        world.random_write(step)
        world.random_gossip()
    world.settle()
    pre_revocation = victim.append_transactions(
        [Transaction("log", "append", [{"who": "victim", "when": "before"}])]
    )
    world.settle()
    world.owner_node.append_transactions(
        [world.owner_node.revoke_member_tx(
            world.authority.issue(
                victim.key_pair.public_key, "sensor", issued_at=1
            )
        )]
    )
    world.settle()
    from repro.chain.block import Block
    from repro.chain.errors import NotAMemberError

    # Self-enforcement: the victim's own replica, having replayed the
    # revocation, refuses to append (the revocation is necessarily in
    # any new block's causal past).
    with pytest.raises(NotAMemberError):
        victim.append_transactions(
            [Transaction("log", "append",
                         [{"who": "victim", "when": "after"}])]
        )
    # A hand-crafted block citing the post-revocation frontier is
    # rejected by every peer.
    forged = Block.create(
        victim.key_pair, sorted(victim.frontier()),
        world.clock_value + 1,
        [Transaction("log", "append", [{"who": "victim"}])],
    )
    for node in world.nodes[:2]:
        with pytest.raises(NotAMemberError):
            node.receive_block(forged)
    # Everyone still converges, and pre-revocation history survives.
    world.settle()
    digests = {node.state_digest().hex() for node in world.all_nodes()}
    assert len(digests) == 1
    assert world.nodes[0].has_block(pre_revocation.hash)
