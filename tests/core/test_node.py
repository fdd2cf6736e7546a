"""VegvisirNode tests: appending, branch reining, helpers, digests."""

import pytest

from repro.chain.block import Transaction
from repro.crdt.base import InvalidOperation
from repro.reconcile.frontier import FrontierProtocol


class TestAppending:
    def test_append_cites_all_frontier_blocks(self, deployment):
        """The §IV-A branch-reining rule."""
        node = deployment.node(0)
        peer_a = deployment.node(1)
        peer_b = deployment.node(2)
        a_block = peer_a.append_transactions([])
        b_block = peer_b.append_transactions([])
        node.receive_block(a_block)
        node.receive_block(b_block)
        assert node.dag.frontier_width() == 2
        merge = node.append_transactions([])
        assert set(merge.parents) == {a_block.hash, b_block.hash}
        assert node.dag.frontier_width() == 1

    def test_more_tips_than_a_header_may_cite(self, deployment):
        """A replica with a frontier wider than MAX_PARENTS still writes
        (it used to raise MalformedBlockError on every append, for good):
        it reins in what one header holds, the next block the rest."""
        from repro.chain.block import Block, MAX_PARENTS

        node = deployment.node(0)
        peer_key = deployment.keys[1]
        tips = [
            Block.create(peer_key, [deployment.genesis.hash], 2_000 + i)
            for i in range(MAX_PARENTS + 6)
        ]
        for tip in tips:
            node.receive_block(tip)
        assert node.dag.frontier_width() == MAX_PARENTS + 6
        first = node.append_transactions([])
        assert len(first.parents) == MAX_PARENTS
        assert set(first.parents) == set(
            sorted(tip.hash for tip in tips)[:MAX_PARENTS]
        )
        assert node.dag.frontier_width() == 7
        second = node.append_transactions([])
        assert first.hash in second.parents and len(second.parents) == 7
        assert node.dag.frontier() == {second.hash}
        other = deployment.node(2)
        for block in [*tips, first, second]:
            other.receive_block(block)
        assert other.state_digest() == node.state_digest()

    def test_all_known_transactions_become_ancestors(self, deployment):
        node = deployment.node(0)
        peer = deployment.node(1)
        foreign = peer.append_transactions([])
        node.receive_block(foreign)
        mine = node.append_transactions([])
        assert node.dag.is_ancestor(foreign.hash, mine.hash)
        assert node.dag.is_ancestor(node.chain_id, mine.hash)

    def test_timestamp_strictly_above_parents(self, deployment):
        node = deployment.node(0)
        blocks = [node.append_transactions([]) for _ in range(3)]
        for earlier, later in zip(blocks, blocks[1:]):
            assert later.timestamp > earlier.timestamp

    def test_lagging_clock_bumps_timestamp(self, deployment):
        # A node whose clock is behind its parents' timestamps must still
        # produce valid blocks.
        node = deployment.node(0, clock=lambda: 1)  # frozen early clock
        peer = deployment.node(1)
        late_block = peer.append_transactions([])
        node.receive_block(late_block)
        mine = node.append_transactions([])
        assert mine.timestamp == late_block.timestamp + 1

    def test_blocks_created_counter(self, deployment):
        node = deployment.node(0)
        node.append_transactions([])
        node.append_witness_block()
        assert node.blocks_created == 2

    def test_location_recorded(self, deployment):
        node = deployment.node(0, location=lambda: (424433000, -764935000))
        block = node.append_transactions([])
        assert block.header.location == (424433000, -764935000)


class TestStateDigest:
    def test_equal_for_identical_replicas(self, deployment):
        a = deployment.node(0)
        b = deployment.node(1)
        assert a.state_digest() == b.state_digest()

    def test_differs_after_divergence(self, deployment):
        a = deployment.node(0)
        b = deployment.node(1)
        a.append_transactions([])
        assert a.state_digest() != b.state_digest()

    def test_restored_after_reconciliation(self, deployment):
        a = deployment.node(0)
        b = deployment.node(1)
        a.append_transactions([])
        b.append_transactions([])
        FrontierProtocol().run(a, b)
        assert a.state_digest() == b.state_digest()


class TestTransactionHelpers:
    def test_orset_remove_names_observed_tags(self, deployment):
        node = deployment.node(0)
        node.create_crdt("s", "or_set", "str", {"add": "*", "remove": "*"})
        node.append_transactions([Transaction("s", "add", ["x"])])
        tx = node.orset_remove_tx("s", "x")
        assert tx.op == "remove"
        assert len(tx.args[1]) == 1
        node.append_transactions([tx])
        assert node.crdt_value("s") == []

    def test_orset_remove_on_wrong_type_raises(self, deployment):
        node = deployment.node(0)
        node.create_crdt("c", "g_counter", "int", {"increment": "*"})
        with pytest.raises(InvalidOperation):
            node.orset_remove_tx("c", "x")

    def test_ormap_remove_helper(self, deployment):
        node = deployment.node(0)
        node.create_crdt("m", "or_map", "any", {"set": "*", "remove": "*"})
        node.append_transactions([Transaction("m", "set", ["k", 1])])
        node.append_transactions([node.ormap_remove_tx("m", "k")])
        assert node.crdt_value("m") == {}

    def test_mv_set_helper_overwrites_current(self, deployment):
        node = deployment.node(0)
        node.create_crdt("r", "mv_register", "str", {"set": "*"})
        node.append_transactions([node.mv_set_tx("r", "first")])
        node.append_transactions([node.mv_set_tx("r", "second")])
        assert node.crdt_value("r") == ["second"]

    def test_create_validates_spec_early(self, deployment):
        node = deployment.node(0)
        from repro.crdt.base import TypeCheckError

        with pytest.raises(TypeCheckError):
            node.create_crdt_tx("x", "g_set", element_spec="floaty")


class TestReads:
    def test_members_read(self, deployment):
        node = deployment.node(0)
        assert len(node.members()) == 5  # owner + 4

    def test_crdt_value_unknown_raises(self, deployment):
        from repro.csm.errors import CSMError

        node = deployment.node(0)
        with pytest.raises(CSMError):
            node.crdt_value("missing")

    def test_chain_id_is_genesis_hash(self, deployment):
        node = deployment.node(0)
        assert node.chain_id == deployment.genesis.hash
