"""Genesis replay cache: later replicas of one genesis are forks of the
first one's replay — nothing re-checked, nothing re-parsed, and nothing
a cold bootstrap would not have produced."""

import pytest

from repro import wire
from repro.chain.block import Block, Transaction, USERS_CRDT_NAME
from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.csm.errors import CSMError
from repro.csm import machine as machine_mod
from repro.csm.machine import CSMachine, clear_genesis_cache
from repro.membership.authority import CertificateAuthority
from repro.membership.certificate import Certificate

from tests.conftest import TestClock as Clock
from tests.csm.conftest import unsigned_founders, verdicts


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_genesis_cache()
    yield
    clear_genesis_cache()


class Counts:
    """What a replica's bootstrap spends on certificates."""

    def __init__(self):
        self.verify = self.from_wire = self.encode = 0

    def total(self):
        return self.verify + self.from_wire + self.encode


@pytest.fixture
def counts(monkeypatch):
    """Counting wrappers around `Certificate.verify`,
    `Certificate.from_wire` and `wire.encode` of a certificate (its
    fingerprint, its frozen key in U)."""
    tally = Counts()
    real_verify = Certificate.verify
    real_from_wire = Certificate.from_wire.__func__
    real_encode = wire.encode

    def verify(self, ca_key):
        tally.verify += 1
        return real_verify(self, ca_key)

    def from_wire(cls, value):
        tally.from_wire += 1
        return real_from_wire(cls, value)

    def encode(value):
        if isinstance(value, dict) and "public_key" in value:
            tally.encode += 1
        return real_encode(value)

    monkeypatch.setattr(Certificate, "verify", verify)
    monkeypatch.setattr(Certificate, "from_wire", classmethod(from_wire))
    monkeypatch.setattr(wire, "encode", encode)
    return tally


def bootstrap_is_cold(counts, genesis):
    """Build a replica; did it pay the genesis checks?"""
    before = counts.verify
    CSMachine.from_genesis(genesis)
    return counts.verify > before


def make_genesis(index, founders=0):
    owner = KeyPair.deterministic(9000 + index)
    authority = CertificateAuthority(owner)
    keys = [KeyPair.deterministic(9100 + index * 50 + i)
            for i in range(founders)]
    certificates = [
        authority.issue(key.public_key, "sensor", issued_at=1)
        for key in keys
    ]
    return create_genesis(
        owner,
        chain_name=f"cache-{index}",
        timestamp=0,
        founding_members=certificates,
    ), owner, keys


def assert_same_state(left, right, genesis):
    assert left.members() == right.members()
    assert left.crdt_names() == right.crdt_names()
    for name in left.crdt_names():
        assert left.crdt_value(name) == right.crdt_value(name)
    assert verdicts(left, genesis.hash) == verdicts(right, genesis.hash)
    assert left.applied_count == right.applied_count
    assert left.rejected_count == right.rejected_count
    assert left.state_digest() == right.state_digest()


class TestWarmMatchesCold:
    def test_second_bootstrap_is_identical(self, counts):
        genesis, owner, keys = make_genesis(0, founders=4)
        cold = CSMachine.from_genesis(genesis)
        assert counts.verify and counts.from_wire and counts.encode
        paid = counts.total()
        warm = CSMachine.from_genesis(genesis)
        # The fast path: no certificate verified, parsed or encoded.
        assert counts.total() == paid
        assert_same_state(cold, warm, genesis)
        for key in [owner, *keys]:
            assert warm.is_member(key.user_id)
            assert warm.member_role(key.user_id) == cold.member_role(
                key.user_id
            )
            assert warm.resolve_member(
                key.user_id, [genesis.hash]
            ) == key.public_key

    def test_warm_machine_still_replays_new_blocks(self):
        genesis, owner, _ = make_genesis(1, founders=2)
        CSMachine.from_genesis(genesis)
        warm = CSMachine.from_genesis(genesis)
        block = Block.create(
            owner, [genesis.hash], 1,
            [Transaction("__crdts__", "create",
                         ["log", "append_log", {"element": "str"}])],
        )
        outcomes = warm.replay_block(block)
        assert all(outcome.applied for outcome in outcomes)

    def test_clear_cache_forces_cold_path(self, counts):
        genesis, _, _ = make_genesis(2)
        assert bootstrap_is_cold(counts, genesis)
        assert not bootstrap_is_cold(counts, genesis)
        clear_genesis_cache()
        paid = counts.verify
        machine = CSMachine.from_genesis(genesis)
        assert counts.verify > paid
        assert machine.is_member(genesis.user_id)


class TestSafety:
    def test_invalid_genesis_rejected_even_with_populated_cache(self, counts):
        genesis, owner, _ = make_genesis(3)
        CSMachine.from_genesis(genesis)
        impostor = KeyPair.deterministic(9999)
        fake = create_genesis(impostor, chain_name="cache-3", timestamp=0)
        fake_first = fake.transactions[0]
        forged = Block.create(
            owner, [], 0,
            [Transaction(USERS_CRDT_NAME, "add", fake_first.args)],
        )
        with pytest.raises(CSMError):
            CSMachine.from_genesis(forged)
        # The forgery left nothing behind: it is checked, and refused,
        # every time, and the honest chain is still served warm.
        paid = counts.verify
        with pytest.raises(CSMError):
            CSMachine.from_genesis(forged)
        assert counts.verify > paid
        assert not bootstrap_is_cold(counts, genesis)

    def test_distinct_chains_get_distinct_entries(self, counts):
        first, first_owner, _ = make_genesis(4)
        second, second_owner, _ = make_genesis(5)
        assert first.hash.digest != second.hash.digest
        assert bootstrap_is_cold(counts, first)
        assert bootstrap_is_cold(counts, second)
        paid = counts.total()
        one = CSMachine.from_genesis(first)
        two = CSMachine.from_genesis(second)
        assert counts.total() == paid
        assert one.is_member(first_owner.user_id)
        assert not one.is_member(second_owner.user_id)
        assert two.is_member(second_owner.user_id)
        assert one.crdt_value("__chain_name__") == "cache-4"
        assert two.crdt_value("__chain_name__") == "cache-5"

    def test_cache_is_bounded_lru(self, counts):
        limit = machine_mod._GENESIS_CACHE_LIMIT
        chains = [make_genesis(10 + i)[0] for i in range(limit + 2)]
        for genesis in chains:
            CSMachine.from_genesis(genesis)
        # The newest survive; the two oldest entries were evicted.
        assert not bootstrap_is_cold(counts, chains[-1])
        assert not bootstrap_is_cold(counts, chains[2])
        assert bootstrap_is_cold(counts, chains[0])
        assert bootstrap_is_cold(counts, chains[1])

    def test_hit_refreshes_lru_position(self, counts, monkeypatch):
        monkeypatch.setattr(machine_mod, "_GENESIS_CACHE_LIMIT", 3)
        chains = [make_genesis(40 + i)[0] for i in range(3)]
        for genesis in chains:
            CSMachine.from_genesis(genesis)
        CSMachine.from_genesis(chains[0])  # touch the oldest
        evictor, _, _ = make_genesis(80)
        CSMachine.from_genesis(evictor)
        assert not bootstrap_is_cold(counts, chains[0])
        assert bootstrap_is_cold(counts, chains[1])


class TestForksAreIsolated:
    """A fork shares what nothing writes to and copies the rest: what
    one replica replays never shows in a sibling, in the kept machine,
    or in a fork taken afterwards."""

    def test_writes_on_one_fork_stay_there(self):
        genesis, owner, keys = make_genesis(6, founders=3)
        authority = CertificateAuthority(owner)
        victim = authority.issue(keys[0].public_key, "sensor", issued_at=1)
        pristine = CSMachine.from_genesis(genesis)
        busy = CSMachine.from_genesis(genesis)
        sibling = CSMachine.from_genesis(genesis)

        block = Block.create(owner, [genesis.hash], 1, [
            Transaction(USERS_CRDT_NAME, "remove", [victim.to_wire()]),
            Transaction("__crdts__", "create",
                        ["log", "append_log", {"element": "str"}]),
            Transaction("log", "append", ["only here"]),
            # `__chain_name__` was created *and written* by genesis: a
            # mutable instance the kept machine holds.
            Transaction("__chain_name__", "set", ["renamed"]),
        ])
        assert all(o.applied for o in busy.replay_block(block))
        assert not busy.is_member(keys[0].user_id)
        assert busy.crdt_names() == ["__chain_name__", "log"]
        assert busy.crdt_value("__chain_name__") == "renamed"
        assert busy.resolve_member(keys[0].user_id, [block.hash]) is None

        afterwards = CSMachine.from_genesis(genesis)
        for other in (sibling, afterwards):
            assert_same_state(other, pristine, genesis)
            assert other.is_member(keys[0].user_id)
            assert other.crdt_names() == ["__chain_name__"]
            assert other.crdt_value("__chain_name__") == "cache-6"
            assert not other.has_replayed(block.hash)
            assert other.resolve_member(
                keys[0].user_id, [genesis.hash]
            ) == keys[0].public_key

        # Event ids are per replica: a sibling's own events do not land
        # in the busy fork's views, nor the other way round.
        other_block = Block.create(owner, [genesis.hash], 2, [
            Transaction("__crdts__", "create",
                        ["other", "g_counter", {"element": "int"}]),
            Transaction("other", "increment", [5]),
            Transaction("log", "append", ["never created here"]),
        ])
        assert [o.applied for o in sibling.replay_block(other_block)] == [
            True, True, False,
        ]
        assert sibling.crdt_value("other") == 5
        assert busy.crdt_names() == ["__chain_name__", "log"]
        assert [o.applied for o in busy.replay_block(other_block)] == [
            True, True, False,
        ]
        # Same blocks, other order: converged, and a third fork is
        # still the genesis state.
        assert all(o.applied for o in sibling.replay_block(block))
        assert sibling.state_digest() == busy.state_digest()
        assert_same_state(CSMachine.from_genesis(genesis), pristine, genesis)

    def test_outcome_lists_are_the_callers_own(self):
        genesis, _, _ = make_genesis(7)
        first = CSMachine.from_genesis(genesis)
        first.outcomes(genesis.hash).clear()
        assert CSMachine.from_genesis(genesis).outcomes(genesis.hash)
        assert first.outcomes(genesis.hash)


class TestRestartPaths:
    """Every way a replica comes back builds the same replica warm (its
    genesis already replayed in this process) and cold."""

    def test_load_node_warm_and_cold(self, tmp_path, counts):
        from repro.storage.node_store import load_node, save_node

        genesis, owner, keys = make_genesis(11, founders=2)
        authority = CertificateAuthority(owner)
        clock = Clock()
        node = VegvisirNode(owner, genesis, clock=clock)
        node.create_crdt("log", "append_log", "str", {"append": "*"})
        node.append_transactions([
            node.revoke_member_tx(
                authority.issue(keys[1].public_key, "sensor", issued_at=1)
            ),
            Transaction("log", "append", ["kept"]),
            Transaction("__chain_name__", "set", ["renamed"]),
        ])
        path = tmp_path / "node.vgv"
        save_node(node, path)

        paid = counts.verify
        warm = load_node(owner, path, clock=clock)
        warm_paid = counts.verify - paid
        clear_genesis_cache()
        paid = counts.verify
        cold = load_node(owner, path, clock=clock)
        assert counts.verify - paid > warm_paid
        for loaded in (warm, cold):
            assert loaded.state_digest() == node.state_digest()
            assert loaded.members() == node.members()
            assert loaded.crdt_value("__chain_name__") == "renamed"
            for block in node.dag.blocks():
                assert verdicts(loaded.csm, block.hash) == verdicts(
                    node.csm, block.hash
                )
        # The restart wrote to its own fork only.
        assert CSMachine.from_genesis(genesis).crdt_value(
            "__chain_name__"
        ) == "cache-11"

    def test_fault_harness_restart_warm_and_cold(self):
        from repro.faults.plan import CrashEvent, FaultPlan
        from repro.sim import Scenario, Simulation

        def run(cold_restart):
            clear_genesis_cache()
            plan = FaultPlan(
                seed=5, crashes=[CrashEvent(1, 6_000, 9_000)],
                cease_ms=20_000,
            )
            simulation = Simulation(Scenario(
                node_count=4, duration_ms=20_000,
                append_interval_ms=3_000, seed=5,
                session_model="message", faults=plan,
            ))
            if cold_restart:
                simulation.loop.schedule_at(8_999, clear_genesis_cache)
            simulation.run()
            simulation.run_quiescence(10_000)
            try:
                assert simulation.crash_controller.records[0].recovered
                assert simulation.converged(sorted(simulation.fleet.nodes))
                return [
                    simulation.fleet.nodes[n].state_digest().hex()
                    for n in sorted(simulation.fleet.nodes)
                ]
            finally:
                simulation.close()

        assert run(cold_restart=False) == run(cold_restart=True)


class TestOpCount:
    def test_a_thousand_replicas_parse_the_membership_once(
        self, trusting_ca, counts
    ):
        """n replicas of an n-member genesis used to parse, fingerprint
        and freeze n x n certificates."""
        owner = KeyPair.deterministic(9500)
        genesis = create_genesis(
            owner, chain_name="fleet", timestamp=0,
            founding_members=unsigned_founders(1000),
        )
        digests = set()
        for built in range(1000):
            replica = CSMachine.from_genesis(genesis)
            if built % 100 == 0:
                digests.add(replica.state_digest().digest)
        # The owner's certificate twice (the genesis checks read it
        # first), every founder once — by the first replica alone.
        assert counts.from_wire <= 1001 + 1
        assert len(digests) == 1
        assert len(CSMachine.from_genesis(genesis).members()) == 1001
