"""CSM checkpoint tests: behavioural identity after restore."""

import pytest

from repro.chain.block import Transaction
from repro.csm.checkpoint import (
    checkpoint_bytes,
    dump_checkpoint,
    restore_checkpoint,
    restore_checkpoint_bytes,
)
from repro.csm.errors import CSMError
from repro.reconcile.frontier import FrontierProtocol

from tests.csm.conftest import verdicts


def _busy_machine(deployment):
    """A node with membership changes, several CRDT types, rejections."""
    node = deployment.owner_node()
    node.append_transactions([
        node.create_crdt_tx("log", "append_log", "str", {"append": "*"}),
        node.create_crdt_tx("tags", "or_set", "str",
                            {"add": "*", "remove": "*"}),
    ])
    node.append_transactions([
        Transaction("log", "append", ["one"]),
        Transaction("tags", "add", ["x"]),
    ])
    node.append_transactions([node.orset_remove_tx("tags", "x")])
    node.append_transactions(
        [Transaction("log", "append", [42])]  # type-check rejection
    )
    from repro.crypto.keys import KeyPair

    newcomer = KeyPair.deterministic(4000)
    cert = deployment.authority.issue(newcomer.public_key, "medic", 3)
    node.append_transactions([node.add_member_tx(cert)])
    node.append_transactions(
        [node.revoke_member_tx(deployment.certificates[2])]
    )
    return node


class TestCheckpointRoundTrip:
    def test_state_digest_preserved(self, deployment):
        node = _busy_machine(deployment)
        restored = restore_checkpoint(dump_checkpoint(node.csm))
        assert restored.state_digest() == node.csm.state_digest()

    def test_bytes_roundtrip(self, deployment):
        node = _busy_machine(deployment)
        restored = restore_checkpoint_bytes(checkpoint_bytes(node.csm))
        assert restored.state_digest() == node.csm.state_digest()

    def test_reads_preserved(self, deployment):
        node = _busy_machine(deployment)
        restored = restore_checkpoint(dump_checkpoint(node.csm))
        assert restored.crdt_value("log") == node.csm.crdt_value("log")
        assert restored.crdt_value("tags") == []
        assert restored.member_role(deployment.keys[0].user_id) == "medic"
        assert not restored.is_member(deployment.keys[2].user_id)
        assert restored.applied_count == node.csm.applied_count
        assert restored.rejected_count == node.csm.rejected_count

    def test_outcomes_preserved(self, deployment):
        node = _busy_machine(deployment)
        restored = restore_checkpoint(dump_checkpoint(node.csm))
        for block in node.dag.blocks():
            original = node.csm.outcomes(block.hash)
            copied = restored.outcomes(block.hash)
            assert [
                (o.applied, o.reason) for o in original
            ] == [(o.applied, o.reason) for o in copied]

    def test_restored_machine_replays_new_blocks_identically(
        self, deployment
    ):
        node = _busy_machine(deployment)
        restored = restore_checkpoint(dump_checkpoint(node.csm))
        # A new block (with a tombstone-poking re-add) replays the same
        # way on both machines.
        block = node.append_transactions([
            Transaction("tags", "add", ["x"]),
            Transaction("log", "append", ["post-checkpoint"]),
        ])
        restored.replay_block(block)
        assert restored.state_digest() == node.csm.state_digest()
        assert [
            o.applied for o in restored.outcomes(block.hash)
        ] == [o.applied for o in node.csm.outcomes(block.hash)]

    def test_membership_checks_still_causal(self, deployment):
        node = _busy_machine(deployment)
        restored = restore_checkpoint(dump_checkpoint(node.csm))
        # resolve_member against the checkpointed causal views.
        frontier = sorted(node.frontier())
        assert restored.resolve_member(
            deployment.keys[0].user_id, frontier
        ) is not None
        assert restored.resolve_member(
            deployment.keys[2].user_id, frontier  # revoked
        ) is None


class TestRestoredViewsAreShared:
    """Replay keeps one view object per event, shared by the blocks
    between two events; a restore must not hand every block a private
    copy (O(blocks x events) memory, and no shared resolution)."""

    def test_one_object_per_distinct_view(self, deployment):
        node = _busy_machine(deployment)
        for step in range(60):
            node.append_transactions(
                [Transaction("log", "append", [f"entry {step}"])]
            )
        csm = node.csm
        restored = restore_checkpoint_bytes(checkpoint_bytes(csm))

        assert len(restored._visible) == len(csm._visible) >= 50
        assert restored._visible == csm._visible
        distinct = set(restored._visible.values())
        objects = {id(view) for view in restored._visible.values()}
        assert len(objects) == len(distinct)
        assert len(objects) == len(
            {id(view) for view in csm._visible.values()}
        )

        assert restored.state_digest() == csm.state_digest()
        for block in node.dag.blocks():
            assert verdicts(restored, block.hash) == verdicts(
                csm, block.hash
            )

        tip = next(iter(node.frontier()))
        block = node.append_transactions(
            [Transaction("log", "append", ["after restore"])]
        )
        restored.replay_block(block)
        assert restored._visible[block.hash] is restored._visible[tip]
        assert restored.state_digest() == csm.state_digest()


class TestErrors:
    def test_garbage_bytes_rejected(self):
        with pytest.raises(CSMError):
            restore_checkpoint_bytes(b"\xff\xff")

    def test_malformed_map_rejected(self):
        with pytest.raises(CSMError):
            restore_checkpoint({"version": 1})

    def test_wrong_version_rejected(self, deployment):
        node = deployment.node(0)
        data = dump_checkpoint(node.csm)
        data["version"] = 99
        with pytest.raises(CSMError):
            restore_checkpoint(data)


class TestWithGossip:
    def test_restored_machine_converges_with_fleet(self, deployment):
        node = _busy_machine(deployment)
        restored_csm = restore_checkpoint(dump_checkpoint(node.csm))
        # Splice the restored CSM into the node (the checkpoint path a
        # pruned device would take) and keep gossiping.
        node.csm = restored_csm
        node.validator._resolve_member = restored_csm.resolve_member
        peer = deployment.node(0)
        FrontierProtocol().run(peer, node)
        peer.append_transactions(
            [Transaction("log", "append", ["from-peer"])]
        )
        FrontierProtocol().run(node, peer)
        assert node.state_digest() == peer.state_digest()
