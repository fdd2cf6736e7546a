"""Snapshot round-trip tests for every CRDT type.

Two obligations, the second strictly stronger than the first:

1. restore(dump(x)) has the same canonical state as x;
2. restore(dump(x)) behaves identically to x under any further
   operations — in particular, tombstones survive, so replaying an
   already-removed element cannot resurrect it in the restored copy.

Plus: snapshots are wire-encodable (they have to cross storage).
"""

import pytest

from repro import wire
from repro.crdt.base import crdt_type, crdt_type_names
from repro.crdt.sequence import HEAD
from repro.crdt.snapshot import SnapshotError, dump_state, restore_crdt

from tests.crdt.helpers import ctx


def _populated_instances():
    """One exercised instance of every type, with tombstone-bearing
    histories where the type has tombstones."""
    instances = {}

    g = crdt_type("g_set")("str")
    for i, e in enumerate(["a", "b"]):
        g.apply("add", [e], ctx(op=i))
    instances["g_set"] = g

    tp = crdt_type("two_phase_set")("str")
    tp.apply("add", ["keep"], ctx(op=0))
    tp.apply("add", ["gone"], ctx(op=1))
    tp.apply("remove", ["gone"], ctx(op=2))
    tp.apply("remove", ["poisoned-in-advance"], ctx(op=3))
    instances["two_phase_set"] = tp

    gc = crdt_type("g_counter")("int")
    gc.apply("increment", [3], ctx(actor=1, op=0))
    gc.apply("increment", [4], ctx(actor=2, op=1))
    instances["g_counter"] = gc

    pn = crdt_type("pn_counter")("int")
    pn.apply("increment", [10], ctx(actor=1, op=0))
    pn.apply("decrement", [4], ctx(actor=2, op=1))
    instances["pn_counter"] = pn

    lww = crdt_type("lww_register")("str")
    lww.apply("set", ["old"], ctx(ts=100, op=0))
    lww.apply("set", ["new"], ctx(ts=200, op=1))
    instances["lww_register"] = lww

    mv = crdt_type("mv_register")("str")
    first = ctx(actor=1, op=0)
    mv.apply("set", ["a", []], first)
    mv.apply("set", ["b", [first.op_id]], ctx(actor=2, op=1))
    instances["mv_register"] = mv

    ors = crdt_type("or_set")("str")
    add_ctx = ctx(actor=1, op=0)
    ors.apply("add", ["x"], add_ctx)
    ors.apply("add", ["y"], ctx(actor=1, op=1))
    ors.apply("remove", ["x", [add_ctx.op_id]], ctx(actor=2, op=2))
    instances["or_set"] = ors

    orm = crdt_type("or_map")("any")
    set_ctx = ctx(actor=1, op=0)
    orm.apply("set", ["k1", 1], set_ctx)
    orm.apply("set", ["k2", 2], ctx(actor=1, op=1))
    orm.apply("remove", ["k1", [set_ctx.op_id]], ctx(actor=2, op=2))
    instances["or_map"] = orm

    log = crdt_type("append_log")("str")
    log.apply("append", ["one"], ctx(ts=100, op=0))
    log.apply("append", ["two"], ctx(ts=200, op=1))
    instances["append_log"] = log

    rga = crdt_type("rga_sequence")("str")
    a_ctx, b_ctx = ctx(op=0), ctx(op=1)
    rga.apply("insert", [HEAD, "a"], a_ctx)
    rga.apply("insert", [a_ctx.op_id, "b"], b_ctx)
    rga.apply("delete", [a_ctx.op_id], ctx(op=2))
    orphan_anchor = ctx(op=99)
    rga.apply("insert", [orphan_anchor.op_id, "orphan"], ctx(op=3))
    instances["rga_sequence"] = rga

    graph = crdt_type("graph_2p2p")("str")
    graph.apply("add_vertex", ["v1"], ctx(op=0))
    graph.apply("add_vertex", ["v2"], ctx(op=1))
    graph.apply("add_edge", ["v1", "v2"], ctx(op=2))
    graph.apply("remove_vertex", ["v2"], ctx(op=3))
    instances["graph_2p2p"] = graph

    return instances


def test_fixture_covers_every_registered_type():
    assert sorted(_populated_instances()) == list(crdt_type_names())


@pytest.mark.parametrize("type_name", sorted(_populated_instances()))
class TestRoundTrip:
    def test_state_digest_preserved(self, type_name):
        original = _populated_instances()[type_name]
        restored = restore_crdt(dump_state(original))
        assert restored.state_digest() == original.state_digest()
        assert restored.value() == original.value()

    def test_snapshot_is_wire_encodable(self, type_name):
        original = _populated_instances()[type_name]
        snapshot = dump_state(original)
        assert wire.decode(wire.encode(snapshot)) == snapshot

    def test_behavioural_equivalence_under_further_ops(self, type_name):
        original = _populated_instances()[type_name]
        restored = restore_crdt(dump_state(original))
        for op, args, context in _further_ops(type_name, original):
            original.apply(op, args, context)
            restored.apply(op, args, context)
        assert restored.state_digest() == original.state_digest()
        assert restored.value() == original.value()


def _further_ops(type_name, instance):
    """Type-appropriate follow-up operations, including tombstone pokes."""
    late = ctx(actor=8, ts=900, op=50)
    if type_name == "g_set":
        return [("add", ["c"], late)]
    if type_name == "two_phase_set":
        # Re-adding removed elements must stay dead in both copies.
        return [("add", ["gone"], late),
                ("add", ["poisoned-in-advance"], ctx(actor=8, op=51))]
    if type_name in ("g_counter", "pn_counter"):
        return [("increment", [7], late)]
    if type_name == "lww_register":
        # An *older* write must lose in both copies.
        return [("set", ["stale"], ctx(actor=8, ts=50, op=50))]
    if type_name == "mv_register":
        # Replaying the overwritten op must stay tombstoned.
        replay = ctx(actor=1, op=0)
        return [("set", ["a", []], replay)]
    if type_name == "or_set":
        replay = ctx(actor=1, op=0)  # the removed tag
        return [("add", ["x"], replay), ("add", ["z"], late)]
    if type_name == "or_map":
        replay = ctx(actor=1, op=0)
        return [("set", ["k1", 1], replay), ("set", ["k3", 3], late)]
    if type_name == "append_log":
        return [("append", ["three"], late)]
    if type_name == "rga_sequence":
        anchor = ctx(op=99)  # arriving orphan anchor re-homes the orphan
        return [("insert", [HEAD, anchor.op_id and "anchored"], late),
                ("insert", [HEAD, "w"], ctx(actor=8, op=52))]
    if type_name == "graph_2p2p":
        return [("add_vertex", ["v2"], late),  # 2P: stays removed
                ("add_edge", ["v1", "v1x"], ctx(actor=8, op=53))]
    raise AssertionError(f"no further ops for {type_name}")


class TestRgaOrphanRestore:
    def test_orphan_rehomes_after_restore(self):
        rga = crdt_type("rga_sequence")("str")
        anchor_ctx = ctx(op=99)
        rga.apply("insert", [anchor_ctx.op_id, "orphan"], ctx(op=3))
        restored = restore_crdt(dump_state(rga))
        # The anchor finally arrives at both copies.
        rga.apply("insert", [HEAD, "anchor"], anchor_ctx)
        restored.apply("insert", [HEAD, "anchor"], anchor_ctx)
        assert rga.value() == restored.value() == ["anchor", "orphan"]


class TestErrors:
    def test_malformed_snapshot_rejected(self):
        with pytest.raises(SnapshotError):
            restore_crdt({"nope": 1})

    def test_unknown_type_rejected(self):
        with pytest.raises(SnapshotError):
            restore_crdt({"type": "alien", "element": "any", "state": []})
