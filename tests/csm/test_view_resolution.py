"""Resolved views against the scan they replaced.

The machine used to answer "who is a member / which creation does this
name bind to, as of this view" by walking every event of the view, per
block and per transaction.  It now resolves each distinct view once to
two dictionaries.  The three scanning helpers live on here, unchanged in
what they compute, as the oracle: over seeded histories that mix every
membership and creation case, every verdict the dictionaries give must
be the one the scan gives.  The cost half is held by counts, not clocks.
"""

import random

import pytest

from repro.chain.block import Block, Transaction
from repro.chain.errors import ValidationError
from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.crypto.sha import Hash
from repro.csm import machine as machine_mod
from repro.csm.machine import CSMachine, clear_genesis_cache
from repro.membership.authority import CertificateAuthority
from repro.reconcile.frontier import FrontierProtocol

from tests.conftest import TestClock as Clock
from tests.csm.conftest import unsigned_founders, verdicts


# ----------------------------------------------------------------------
# The oracle: the scans `CSMachine` carried until views resolved
# themselves, as plain functions over a machine's events.

def live_certificates(machine, user_id, view):
    """Certificates for *user_id* added and not revoked within *view*."""
    added = {}
    removed = set()
    for event_id in view:
        event = machine._events[event_id]
        if event.certificate is None:
            continue
        if event.certificate.user_id != user_id:
            continue
        fingerprint = event.certificate.fingerprint().digest
        if event.kind == "cert_add":
            added[fingerprint] = event.certificate
        elif event.kind == "cert_remove":
            removed.add(fingerprint)
    return [
        cert for fingerprint, cert in added.items()
        if fingerprint not in removed
    ]


def effective_certificate(live):
    return max(live, key=lambda c: (c.issued_at, c.fingerprint().digest))


def visible_creations(machine, name, view):
    return [
        machine._events[event_id].record
        for event_id in view
        if machine._events[event_id].kind == "create"
        and machine._events[event_id].record.name == name
    ]


class _ScannedMembers:
    def __init__(self, machine, view):
        self._machine, self._view = machine, view

    def get(self, user_digest):
        live = live_certificates(self._machine, Hash(user_digest), self._view)
        return effective_certificate(live) if live else None


class _ScannedBindings:
    def __init__(self, machine, view):
        self._machine, self._view = machine, view

    def get(self, name):
        creations = visible_creations(self._machine, name, self._view)
        if not creations:
            return None
        return min(creations, key=lambda record: record.order_key)


class _ScannedView:
    """Answers what a resolved view answers, by scanning on every ask."""

    def __init__(self, machine, view):
        self.members = _ScannedMembers(machine, view)
        self.bindings = _ScannedBindings(machine, view)


def scanning_machine(genesis):
    """A machine whose every decision after genesis goes through the
    scan: nothing is resolved once, nothing is remembered."""
    machine = CSMachine.from_genesis(genesis)
    machine._resolve = lambda view: _ScannedView(machine, view)
    return machine


# ----------------------------------------------------------------------
# Histories

ROLES = ["medic", "sensor", "farmer"]
NAMES = ["alpha", "beta", "gamma"]
#: Only medics (and the owner) may add: the creator's *role* decides the
#: verdict, so a wrong effective certificate shows in the outcomes.
GRANTS = {"add": ["medic"]}


class History:
    """One seeded deployment: an owner, three founding members and three
    outsiders whose certificates come and go, all gossiping at random."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.clock = Clock()
        base = 5000 + seed * 20
        self.owner = KeyPair.deterministic(base)
        self.authority = CertificateAuthority(self.owner)
        self.keys = [KeyPair.deterministic(base + 1 + i) for i in range(6)]
        founding = [
            self.authority.issue(key.public_key, role, issued_at=1)
            for key, role in zip(self.keys[:3], ROLES)
        ]
        self.genesis = create_genesis(
            self.owner, chain_name=f"views-{seed}", timestamp=0,
            founding_members=founding,
        )
        self.nodes = [self._node(self.owner)] + [
            self._node(key) for key in self.keys
        ]
        self.owner_node = self.nodes[0]
        #: Every certificate the CA ever signed, on chain or not.
        self.issued = list(founding)
        self.on_chain = list(founding)
        self.protocol = FrontierProtocol()
        self.uses = 0

    def _node(self, key):
        return VegvisirNode(key, self.genesis, clock=self.clock)

    def users(self):
        stranger = KeyPair.deterministic(4999)
        return [self.owner.user_id, stranger.user_id] + [
            key.user_id for key in self.keys
        ]

    # -- building blocks ------------------------------------------------

    def fresh_certificate(self, key=None):
        key = key or self.rng.choice(self.keys)
        certificate = self.authority.issue(
            key.public_key, self.rng.choice(ROLES),
            issued_at=self.rng.randrange(2, 60),
        )
        self.issued.append(certificate)
        return certificate

    def append(self, node, transactions):
        """Append if the node can (a replica that is not a member as of
        its own frontier, or no longer one, cannot)."""
        try:
            return node.append_transactions(transactions)
        except ValidationError:
            return None

    def sync(self, a, b):
        self.protocol.run(a, b)

    def create_tx(self, node, name):
        return node.create_crdt_tx(name, "g_set", "int", GRANTS)

    def use_tx(self, node, name):
        self.uses += 1
        return node.crdt_op(name, "add", self.uses)

    # -- the scripted cases, then noise ----------------------------------

    def prologue(self):
        owner, a, b = self.owner_node, self.nodes[1], self.nodes[2]
        outsider = self.keys[3]
        # One block admits a member, creates a CRDT and uses it.
        first = self.fresh_certificate(outsider)
        self.append(owner, [
            owner.add_member_tx(first),
            self.create_tx(owner, "alpha"),
            self.use_tx(owner, "alpha"),
        ])
        self.on_chain.append(first)
        # The same name created on two branches that have not met, and
        # used on each: every use binds inside its own past, where the
        # owner's "alpha" does not exist yet.
        for node in (a, b):
            self.append(node, [self.create_tx(node, "beta"),
                               self.use_tx(node, "beta"),
                               self.use_tx(node, "alpha")])
        # A farmer may not add: the role decides.
        farmer = self.nodes[3]
        self.sync(farmer, owner)
        self.append(farmer, [self.use_tx(farmer, "alpha")])
        # Revoked in advance on one branch, added on another.
        doomed = self.fresh_certificate(self.keys[4])
        self.append(owner, [owner.revoke_member_tx(doomed)])
        self.append(a, [a.add_member_tx(doomed)])
        self.on_chain.append(doomed)
        # Two live certificates for one key, then both revoked, then a
        # fresh one re-admits it.
        second = self.fresh_certificate(outsider)
        self.append(owner, [owner.add_member_tx(second)])
        self.sync(self.nodes[4], owner)
        self.append(self.nodes[4], [self.use_tx(self.nodes[4], "alpha")])
        self.append(owner, [owner.revoke_member_tx(first),
                            owner.revoke_member_tx(second)])
        readmitted = self.authority.issue(
            outsider.public_key, "medic", issued_at=99
        )
        self.issued.append(readmitted)
        self.append(owner, [owner.add_member_tx(readmitted)])
        self.on_chain += [second, readmitted]
        # The branches meet: views that do not nest are joined.
        self.sync(a, b)
        self.sync(owner, a)
        self.append(owner, [self.use_tx(owner, "beta")])

    def random_step(self):
        rng = self.rng
        node = rng.choice(self.nodes)
        roll = rng.random()
        if roll < 0.30:
            peer = rng.choice(self.nodes)
            if peer is not node:
                self.sync(node, peer)
        elif roll < 0.42:
            certificate = (
                rng.choice(self.issued) if rng.random() < 0.5
                else self.fresh_certificate()
            )
            if self.append(node, [node.add_member_tx(certificate)]):
                self.on_chain.append(certificate)
        elif roll < 0.54:
            # Mostly the owner (others are refused, which is a verdict
            # too); sometimes a certificate nobody has added yet.
            revoker = self.owner_node if rng.random() < 0.7 else node
            pool = self.on_chain if rng.random() < 0.7 else self.issued
            self.append(
                revoker, [revoker.revoke_member_tx(rng.choice(pool))]
            )
        elif roll < 0.64:
            self.append(node, [self.create_tx(node, rng.choice(NAMES))])
        elif roll < 0.72:
            name = rng.choice(NAMES)
            certificate = self.fresh_certificate()
            self.append(node, [
                self.use_tx(node, name),
                node.add_member_tx(certificate),
                self.create_tx(node, name),
                self.use_tx(node, name),
            ])
        elif roll < 0.95:
            self.append(node, [self.use_tx(node, rng.choice(NAMES))])
        else:
            self.append(node, [])

    def settle(self):
        for _ in range(2):
            for a in self.nodes:
                for b in self.nodes:
                    if a is not b:
                        self.sync(a, b)


@pytest.fixture(scope="module", params=[1, 2, 3, 4, 5, 6])
def history(request):
    clear_genesis_cache()
    built = History(request.param)
    built.prologue()
    for _ in range(45):
        built.random_step()
    built.settle()
    return built


def ordered_blocks(node):
    genesis = node.dag.genesis_hash
    return [
        node.dag.get(block_hash)
        for block_hash in node.dag.insertion_order()
        if block_hash != genesis
    ]


def joined(machine, parents):
    """The union of the parents' views, computed the plain way."""
    return frozenset().union(*(machine._visible[p] for p in parents))


class TestTheScanIsTheOracle:
    def test_the_histories_hold_what_they_promise(self, history):
        node = history.owner_node
        assert len({n.state_digest().hex() for n in history.nodes}) == 1
        assert node.csm.collection().collisions()  # same-name races
        csm = node.csm
        merges = [
            block for block in ordered_blocks(node)
            if len(block.parents) > 1
            and not any(csm._visible[p] == joined(csm, block.parents)
                        for p in block.parents)
        ]
        assert merges  # views that do not nest, joined
        reasons = {
            o.reason for block in ordered_blocks(node)
            for o in csm.outcomes(block.hash) if not o.applied
        }
        assert any("may not add on" in r for r in reasons)  # role decided
        assert any("in causal past" in r for r in reasons)  # binding did

    def test_every_verdict_is_the_scans(self, history):
        for node in history.nodes:
            oracle = scanning_machine(history.genesis)
            for block in ordered_blocks(node):
                oracle.replay_block(block)
                assert (
                    verdicts(node.csm, block.hash)
                    == verdicts(oracle, block.hash)
                ), block
            assert node.csm.state_digest() == oracle.state_digest()
            assert node.csm.applied_count == oracle.applied_count
            assert node.csm.rejected_count == oracle.rejected_count

    def test_key_role_and_binding_of_every_block(self, history):
        users = history.users()
        for node in history.nodes:
            csm = node.csm
            for block in ordered_blocks(node):
                inherited = joined(csm, block.parents)
                assert csm._inherited_view(block.parents) == inherited
                for view in (inherited, csm._visible[block.hash]):
                    resolved = csm._resolve(view)
                    for user_id in users:
                        live = live_certificates(csm, user_id, view)
                        expected = (
                            effective_certificate(live) if live else None
                        )
                        got = resolved.members.get(user_id)
                        assert got == expected
                        assert (got and got.role) == (
                            expected and expected.role
                        )
                    assert set(resolved.members) <= set(users)
                    for name in NAMES + ["__chain_name__", "nowhere"]:
                        creations = visible_creations(csm, name, view)
                        expected = min(
                            creations, key=lambda r: r.order_key,
                            default=None,
                        )
                        assert resolved.bindings.get(name) is expected
                for user_id in users:
                    live = live_certificates(csm, user_id, inherited)
                    key = csm.resolve_member(user_id, block.parents)
                    assert key == (
                        effective_certificate(live).public_key
                        if live else None
                    )

    def test_views_are_shared_until_an_event_widens_them(self, history):
        """`TestCausalViews`, for every block of every replica."""
        for node in history.nodes:
            csm = node.csm
            for block in ordered_blocks(node):
                view = csm._visible[block.hash]
                inherited = joined(csm, block.parents)
                events = sum(
                    1 for tx, outcome in zip(block.transactions,
                                             csm.outcomes(block.hash))
                    if outcome.applied
                    and tx.crdt_name in ("__users__", "__crdts__")
                )
                assert len(view) == len(inherited) + events
                assert inherited <= view
                if events:
                    continue
                widest = [
                    csm._visible[p] for p in block.parents
                    if csm._visible[p] == inherited
                ]
                if widest:
                    assert any(view is parent for parent in widest)
            distinct = set(csm._visible.values())
            assert len({id(v) for v in csm._visible.values()}) <= (
                len(distinct) + sum(
                    1 for b in ordered_blocks(node) if len(b.parents) > 1
                )
            )

    def test_any_topological_order_gives_the_same_answers(self, history):
        node = history.owner_node
        blocks = {block.hash: block for block in ordered_blocks(node)}
        reference = node.csm
        users = history.users()
        rng = random.Random(97)
        for _ in range(4):
            machine = CSMachine.from_genesis(history.genesis)
            placed = {history.genesis.hash}
            waiting = dict(blocks)
            while waiting:
                ready = sorted(
                    h for h, b in waiting.items()
                    if all(p in placed for p in b.parents)
                )
                block = waiting.pop(rng.choice(ready))
                for user_id in users:
                    assert machine.resolve_member(
                        user_id, block.parents
                    ) == reference.resolve_member(user_id, block.parents)
                machine.replay_block(block)
                placed.add(block.hash)
                assert verdicts(machine, block.hash) == verdicts(
                    reference, block.hash
                )
            assert machine.state_digest() == reference.state_digest()


# ----------------------------------------------------------------------
# Cost, by count.

class CountingList(list):
    """Counts element reads (what a scan of the events does)."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()


class CountingDict(dict):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestCostByCount:
    def test_a_block_costs_no_scan_whatever_the_membership(
        self, trusting_ca
    ):
        owner = KeyPair.deterministic(7100)
        genesis = create_genesis(
            owner, chain_name="wide", timestamp=0,
            founding_members=unsigned_founders(511),
        )
        clock = Clock()
        writer = VegvisirNode(owner, genesis, clock=clock)
        writer.create_crdt("log", "append_log", "str", {"append": "*"})
        blocks = [writer.dag.get(h) for h in writer.dag.insertion_order()][1:]
        blocks += [
            writer.append_transactions(
                [Transaction("log", "append", [f"entry {i}"])]
            )
            for i in range(101)
        ]
        replica = VegvisirNode(
            KeyPair.deterministic(7101), genesis, clock=clock
        )
        assert len(replica.members()) == 512
        # The creation and the first block on the view it made: the one
        # pass over the events is paid here.
        replica.receive_block(blocks[0])
        replica.receive_block(blocks[1])

        csm = replica.csm
        csm._events = CountingList(csm._events)
        csm._visible = CountingDict(csm._visible)
        for block in blocks[2:]:
            outcomes = replica.receive_block(block)
            assert all(outcome.applied for outcome in outcomes)
        assert len(blocks[2:]) == 100
        assert csm._events.reads == 0
        # Validation and replay of one block share one join of its
        # parents' views: one read of the table per single-parent block.
        assert csm._visible.reads == 100
        assert replica.csm.state_digest() == writer.csm.state_digest()

    @pytest.mark.parametrize("limit", [None, 2])
    def test_resolved_views_stay_bounded(self, monkeypatch, limit):
        if limit is not None:
            monkeypatch.setattr(machine_mod, "_RESOLVED_VIEW_LIMIT", limit)
        limit = machine_mod._RESOLVED_VIEW_LIMIT
        owner = KeyPair.deterministic(7200)
        genesis = create_genesis(owner, chain_name="long", timestamp=0)
        machine = CSMachine.from_genesis(genesis)
        tip, views = genesis.hash, set()
        for step in range(200):
            block = Block.create(owner, [tip], step + 1, [
                Transaction("__crdts__", "create", [
                    f"crdt-{step}", "g_counter",
                    {"element": "int", "permissions": {}},
                ]),
                Transaction(f"crdt-{step}", "increment", [step + 1]),
                Transaction("crdt-0", "increment", [1]),
            ])
            assert all(o.applied for o in machine.replay_block(block))
            assert len(machine._resolved) <= limit
            views.add(machine._visible[block.hash])
            tip = block.hash
        assert len(views) == 200
        assert machine.crdt_value("crdt-0") == 201
        # An evicted view is resolved again when a block turns up on it.
        early = Block.create(owner, [genesis.hash], 1000, [
            Transaction("__chain_name__", "set", ["renamed"]),
            Transaction("crdt-0", "increment", [1]),
        ])
        assert [o.applied for o in machine.replay_block(early)] == [
            True, False,
        ]
        assert len(machine._resolved) <= limit
