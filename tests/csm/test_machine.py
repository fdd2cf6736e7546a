"""CRDT state machine tests: genesis bootstrap, transaction verdicts,
permissions, and membership dynamics."""

import tracemalloc

import pytest

from repro.chain.block import Block, Transaction, USERS_CRDT_NAME
from repro.core.genesis import create_genesis
from repro.crypto.keys import KeyPair
from repro.csm.errors import CSMError
from repro.csm.machine import CSMachine
from repro.membership.authority import CertificateAuthority


class TestGenesisBootstrap:
    def test_valid_genesis(self, deployment):
        machine = CSMachine.from_genesis(deployment.genesis)
        assert machine.is_member(deployment.owner.user_id)
        assert machine.member_role(deployment.owner.user_id) == "owner"

    def test_founding_members_admitted(self, deployment):
        machine = CSMachine.from_genesis(deployment.genesis)
        for key, role in zip(deployment.keys, deployment.ROLES):
            assert machine.member_role(key.user_id) == role

    def test_chain_name_register(self, deployment):
        machine = CSMachine.from_genesis(deployment.genesis)
        assert machine.crdt_value("__chain_name__") == "test-chain"

    def test_genesis_with_parents_rejected(self, deployment):
        owner = deployment.owner
        parent = create_genesis(owner)
        fake = Block.create(owner, [parent.hash], 1)
        with pytest.raises(CSMError):
            CSMachine.from_genesis(fake)

    def test_genesis_without_transactions_rejected(self, deployment):
        empty = Block.create(deployment.owner, [], 0)
        with pytest.raises(CSMError):
            CSMachine.from_genesis(empty)

    def test_genesis_first_tx_must_add_owner(self, deployment):
        block = Block.create(
            deployment.owner, [], 0,
            [Transaction("something", "else", [])],
        )
        with pytest.raises(CSMError):
            CSMachine.from_genesis(block)

    def test_genesis_cert_must_match_creator(self, deployment):
        impostor = KeyPair.deterministic(700)
        authority = CertificateAuthority(impostor)
        cert = authority.self_certificate()
        block = Block.create(
            deployment.owner, [], 0,
            [Transaction(USERS_CRDT_NAME, "add", [cert.to_wire()])],
        )
        with pytest.raises(CSMError):
            CSMachine.from_genesis(block)


class TestTransactionVerdicts:
    def test_unknown_crdt_rejected_not_raised(self, deployment):
        node = deployment.node(0)
        block = node.append_transactions(
            [Transaction("nonexistent", "add", ["x"])]
        )
        outcomes = node.csm.outcomes(block.hash)
        assert not outcomes[0].applied
        assert "no CRDT" in outcomes[0].reason

    def test_certificate_with_integer_signature_is_a_bad_certificate(
            self, deployment):
        """A wire integer where the signature belongs is refused at the
        parse, before it becomes a buffer of that many bytes."""
        node = deployment.node(0)
        newcomer = KeyPair.deterministic(701)
        tracemalloc.start()
        try:
            block = node.append_transactions([Transaction(
                USERS_CRDT_NAME, "add", [{
                    "issued_at": 1,
                    "public_key": newcomer.public_key.data,
                    "role": "medic",
                    "signature": 50_000_000,
                }],
            )])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outcome = node.csm.outcomes(block.hash)[0]
        assert not outcome.applied
        assert outcome.reason.startswith("bad certificate")
        assert peak < 1_000_000

    def test_invalid_op_rejected(self, deployment):
        node = deployment.node(0)
        node.create_crdt("s", "g_set", "str", {"add": "*"})
        block = node.append_transactions(
            [Transaction("s", "remove", ["x"])]  # g_set has no remove
        )
        assert not node.csm.outcomes(block.hash)[0].applied

    def test_type_check_rejected(self, deployment):
        node = deployment.node(0)
        node.create_crdt("s", "g_set", "int", {"add": "*"})
        block = node.append_transactions([Transaction("s", "add", ["str"])])
        outcome = node.csm.outcomes(block.hash)[0]
        assert not outcome.applied
        assert "int" in outcome.reason

    def test_rejected_tx_does_not_poison_block(self, deployment):
        node = deployment.node(0)
        node.create_crdt("s", "g_set", "int", {"add": "*"})
        block = node.append_transactions(
            [
                Transaction("s", "add", ["bad type"]),
                Transaction("s", "add", [42]),
            ]
        )
        outcomes = node.csm.outcomes(block.hash)
        assert not outcomes[0].applied
        assert outcomes[1].applied
        assert node.crdt_value("s") == [42]

    def test_applied_and_rejected_counters(self, deployment):
        node = deployment.node(0)
        before_applied = node.csm.applied_count
        before_rejected = node.csm.rejected_count
        node.create_crdt("s", "g_set", "int", {"add": "*"})
        node.append_transactions(
            [Transaction("s", "add", [1]), Transaction("s", "add", ["x"])]
        )
        assert node.csm.applied_count == before_applied + 2  # create + add
        assert node.csm.rejected_count == before_rejected + 1

    def test_reserved_names_rejected(self, deployment):
        node = deployment.node(0)
        block = node.append_transactions(
            [
                Transaction(
                    "__crdts__", "create",
                    ["__users__", "g_set", {"element": "any",
                                            "permissions": {}}],
                )
            ]
        )
        assert not node.csm.outcomes(block.hash)[0].applied


class TestRolePermissions:
    def test_role_grant_enforced(self, deployment):
        # node 0 is a medic, node 1 is a sensor.
        medic = deployment.node(0)
        medic.create_crdt("h", "append_log", "str", {"append": ["medic"]})
        ok = medic.append_transactions([Transaction("h", "append", ["x"])])
        assert medic.csm.outcomes(ok.hash)[0].applied
        assert medic.crdt_value("h") == ["x"]

    def test_wrong_role_rejected(self, deployment):
        medic = deployment.node(0)
        create_block = medic.create_crdt(
            "h", "append_log", "str", {"append": ["medic"]}
        )
        sensor = deployment.node(1)
        sensor.receive_block(create_block)
        block = sensor.append_transactions(
            [Transaction("h", "append", ["intrusion"])]
        )
        outcome = sensor.csm.outcomes(block.hash)[0]
        assert not outcome.applied
        assert "sensor" in outcome.reason

    def test_owner_bypasses_grants(self, deployment):
        medic = deployment.node(0)
        create_block = medic.create_crdt(
            "h", "append_log", "str", {"append": ["medic"]}
        )
        owner = deployment.owner_node()
        owner.receive_block(create_block)
        block = owner.append_transactions(
            [Transaction("h", "append", ["owner write"])]
        )
        assert owner.csm.outcomes(block.hash)[0].applied

    def test_non_owner_cannot_revoke(self, deployment):
        node = deployment.node(0)
        block = node.append_transactions(
            [node.revoke_member_tx(deployment.certificates[1])]
        )
        outcome = node.csm.outcomes(block.hash)[0]
        assert not outcome.applied
        assert node.csm.is_member(deployment.keys[1].user_id)


class TestMembershipDynamics:
    def test_add_member_with_forged_cert_rejected(self, deployment):
        node = deployment.node(0)
        impostor_ca = CertificateAuthority(KeyPair.deterministic(800))
        stranger = KeyPair.deterministic(801)
        bad_cert = impostor_ca.issue(stranger.public_key, "medic")
        block = node.append_transactions([node.add_member_tx(bad_cert)])
        outcome = node.csm.outcomes(block.hash)[0]
        assert not outcome.applied
        assert "not signed by the CA" in outcome.reason
        assert not node.csm.is_member(stranger.user_id)

    def test_add_member_with_valid_cert(self, deployment):
        node = deployment.node(0)
        newcomer = KeyPair.deterministic(802)
        cert = deployment.authority.issue(newcomer.public_key, "medic", 5)
        node.append_transactions([node.add_member_tx(cert)])
        assert node.csm.member_role(newcomer.user_id) == "medic"

    def test_role_upgrade_takes_latest_cert(self, deployment):
        node = deployment.owner_node()
        member = KeyPair.deterministic(803)
        first = deployment.authority.issue(member.public_key, "sensor", 5)
        second = deployment.authority.issue(member.public_key, "medic", 9)
        node.append_transactions([node.add_member_tx(first)])
        assert node.csm.member_role(member.user_id) == "sensor"
        node.append_transactions([node.add_member_tx(second)])
        assert node.csm.member_role(member.user_id) == "medic"

    def test_revocation_removes_membership(self, deployment):
        owner = deployment.owner_node()
        victim = deployment.certificates[0]
        owner.append_transactions([owner.revoke_member_tx(victim)])
        assert not owner.csm.is_member(deployment.keys[0].user_id)

    def test_members_listing(self, deployment):
        machine = CSMachine.from_genesis(deployment.genesis)
        listed = {c.user_id for c in machine.members()}
        expected = {deployment.owner.user_id} | {
            key.user_id for key in deployment.keys
        }
        assert listed == expected


class TestReplayDiscipline:
    def test_replaying_block_twice_raises(self, deployment):
        node = deployment.node(0)
        block = deployment.node(1).append_transactions([])
        node.receive_block(block)
        with pytest.raises(CSMError):
            node.csm.replay_block(block)

    def test_replaying_out_of_order_raises(self, deployment):
        peer = deployment.node(1)
        peer.append_transactions([])
        second = peer.append_transactions([])
        machine = CSMachine.from_genesis(deployment.genesis)
        with pytest.raises(CSMError):
            machine.replay_block(second)

    def test_outcomes_for_unreplayed_block_raises(self, deployment):
        node = deployment.node(0)
        foreign = deployment.node(1).append_transactions([])
        with pytest.raises(CSMError):
            node.csm.outcomes(foreign.hash)


class TestCausalViews:
    """A block's causal view widens only on a membership or creation
    event, so blocks between events hold one shared frozenset."""

    @staticmethod
    def _view(node, block):
        return node.csm._visible[block.hash]

    def test_view_object_is_shared_until_an_event_widens_it(self, deployment):
        medic, sensor = deployment.node(0), deployment.node(1)
        genesis_view = self._view(medic, deployment.genesis)
        plain = medic.append_transactions([])
        assert self._view(medic, plain) is genesis_view

        created = medic.create_crdt("log", "append_log")
        widened = self._view(medic, created)
        assert widened == genesis_view | {max(widened)}
        assert self._view(medic, medic.append_transactions([])) is widened

        # A branch that saw no event nests in the one that did: their
        # merge inherits the wider view as it is.
        concurrent = sensor.append_transactions([])
        medic.receive_block(concurrent)
        assert self._view(medic, concurrent) is genesis_view
        assert self._view(medic, medic.append_transactions([])) is widened

    def test_concurrent_events_union_at_the_merge(self, deployment):
        medic, sensor = deployment.node(0), deployment.node(1)
        ours = medic.create_crdt("ours", "g_set", "int", {"add": "*"})
        theirs = sensor.create_crdt("theirs", "g_set", "int", {"add": "*"})
        medic.receive_block(theirs)
        merge = medic.append_transactions(
            [medic.crdt_op("ours", "add", 1),
             medic.crdt_op("theirs", "add", 2)]
        )
        assert self._view(medic, merge) == (
            self._view(medic, ours) | self._view(medic, theirs)
        )
        assert all(o.applied for o in medic.csm.outcomes(merge.hash))


class TestRevocationSemantics:
    def test_fresh_certificate_readmits_revoked_member(self, deployment):
        """Revocation targets a *certificate*, not a key: the CA can
        re-admit with a fresh certificate (different issued_at), exactly
        the paper's 2P-set semantics on U."""
        owner = deployment.owner_node()
        victim_key = deployment.keys[0]
        owner.append_transactions(
            [owner.revoke_member_tx(deployment.certificates[0])]
        )
        assert not owner.csm.is_member(victim_key.user_id)
        fresh = deployment.authority.issue(
            victim_key.public_key, "medic", issued_at=99
        )
        owner.append_transactions([owner.add_member_tx(fresh)])
        assert owner.csm.member_role(victim_key.user_id) == "medic"

    def test_revoking_fresh_cert_in_advance_blocks_readmission(
        self, deployment
    ):
        """The owner can also revoke a certificate before anyone adds it
        (2P-set remove-before-add), making re-admission with that exact
        certificate impossible."""
        owner = deployment.owner_node()
        victim_key = deployment.keys[0]
        fresh = deployment.authority.issue(
            victim_key.public_key, "medic", issued_at=99
        )
        owner.append_transactions([
            owner.revoke_member_tx(deployment.certificates[0]),
            owner.revoke_member_tx(fresh),
        ])
        owner.append_transactions([owner.add_member_tx(fresh)])
        assert not owner.csm.is_member(victim_key.user_id)
