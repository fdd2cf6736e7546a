"""Property-based CRDT convergence tests.

The core CRDT obligation: applying the same set of concurrent operations
in any order yields identical state.  Hypothesis generates a random
batch of up to six operations per type, and every interleaving of it
must converge to the same canonical state — including the orders in
which an op arrives before the op it names (a remove before its add,
an overwrite before what it overwrites, an insert before its anchor).
"""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.crdt.counters import GCounter, PNCounter
from repro.crdt.graph import TwoPTwoPGraph
from repro.crdt.gset import GSet
from repro.crdt.log import AppendLog
from repro.crdt.ormap import ORMap
from repro.crdt.orset import ORSet
from repro.crdt.registers import LWWRegister, MVRegister
from repro.crdt.sequence import HEAD, RGASequence
from repro.crdt.twophase import TwoPhaseSet

from tests.crdt.helpers import ctx, replay_in_order

_elements = st.sampled_from(["a", "b", "c", "d"])
_keys = st.sampled_from(["k1", "k2", "k3"])


def _contexts(n):
    """n distinct contexts with varied actors/timestamps."""
    return [ctx(actor=i % 4, ts=100 + (i * 37) % 50, op=i) for i in range(n)]


def _assert_every_order_converges(factory, ops):
    baseline = replay_in_order(factory, ops, range(len(ops)))
    for order in itertools.permutations(range(len(ops))):
        replayed = replay_in_order(factory, ops, order)
        assert replayed.state_digest() == baseline.state_digest(), order
        assert replayed.value() == baseline.value(), order


@given(
    elements=st.lists(_elements, min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_gset_converges(elements):
    ops = [
        ("add", [element], context)
        for element, context in zip(elements, _contexts(len(elements)))
    ]
    _assert_every_order_converges(lambda: GSet("str"), ops)


@given(
    actions=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), _elements),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=40, deadline=None)
def test_twophase_converges(actions):
    contexts = _contexts(len(actions))
    ops = [
        (action, [element], context)
        for (action, element), context in zip(actions, contexts)
    ]
    _assert_every_order_converges(lambda: TwoPhaseSet("str"), ops)


@given(
    amounts=st.lists(st.integers(1, 100), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_counters_converge(amounts):
    contexts = _contexts(len(amounts))
    g_ops = [
        ("increment", [amount], context)
        for amount, context in zip(amounts, contexts)
    ]
    _assert_every_order_converges(GCounter, g_ops)
    pn_ops = [
        ("increment" if i % 2 else "decrement", [amount], context)
        for i, (amount, context) in enumerate(zip(amounts, contexts))
    ]
    _assert_every_order_converges(PNCounter, pn_ops)


@given(
    values=st.lists(_elements, min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_lww_converges(values):
    ops = [
        ("set", [value], context)
        for value, context in zip(values, _contexts(len(values)))
    ]
    _assert_every_order_converges(lambda: LWWRegister("str"), ops)


@given(
    values=st.lists(_elements, min_size=1, max_size=6),
    overwrite_mask=st.lists(st.booleans(), min_size=6, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_mv_register_converges(values, overwrite_mask):
    contexts = _contexts(len(values))
    ops = []
    for i, (value, context) in enumerate(zip(values, contexts)):
        # Some writes overwrite an earlier op (simulating causal sets),
        # others are blind concurrent writes.
        overwrites = (
            [contexts[i - 1].op_id] if i > 0 and overwrite_mask[i] else []
        )
        ops.append(("set", [value, overwrites], context))
    _assert_every_order_converges(lambda: MVRegister("str"), ops)


@given(
    actions=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), _elements),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=40, deadline=None)
def test_orset_converges(actions):
    contexts = _contexts(len(actions))
    add_tags: dict[str, list[bytes]] = {}
    ops = []
    for (action, element), context in zip(actions, contexts):
        if action == "add":
            add_tags.setdefault(element, []).append(context.op_id)
            ops.append(("add", [element], context))
        else:
            observed = list(add_tags.get(element, []))
            ops.append(("remove", [element, observed], context))
    _assert_every_order_converges(lambda: ORSet("str"), ops)


@given(
    actions=st.lists(
        st.tuples(st.sampled_from(["set", "remove"]), _keys, _elements),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=40, deadline=None)
def test_ormap_converges(actions):
    contexts = _contexts(len(actions))
    set_tags: dict[str, list[bytes]] = {}
    ops = []
    for (action, key, value), context in zip(actions, contexts):
        if action == "set":
            set_tags.setdefault(key, []).append(context.op_id)
            ops.append(("set", [key, value], context))
        else:
            ops.append(("remove", [key, list(set_tags.get(key, []))],
                        context))
    _assert_every_order_converges(lambda: ORMap("str"), ops)


@given(
    entries=st.lists(_elements, min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_append_log_converges(entries):
    ops = [
        ("append", [entry], context)
        for entry, context in zip(entries, _contexts(len(entries)))
    ]
    _assert_every_order_converges(lambda: AppendLog("str"), ops)


@given(
    actions=st.lists(
        st.tuples(st.sampled_from(["insert", "insert", "delete"]),
                  st.integers(0, 5), _elements),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=40, deadline=None)
def test_rga_sequence_converges_in_every_order(actions):
    contexts = _contexts(len(actions))
    inserted: list[bytes] = []
    ops = []
    for (action, pick, element), context in zip(actions, contexts):
        if action == "delete" and inserted:
            ops.append(("delete", [inserted[pick % len(inserted)]], context))
        else:
            # Insert after the head or after any earlier insert: the
            # orders that deliver it first exercise the orphan buffer.
            anchors = [HEAD] + inserted
            ops.append(
                ("insert", [anchors[pick % len(anchors)], element], context)
            )
            inserted.append(context.op_id)
    _assert_every_order_converges(lambda: RGASequence("str"), ops)


@given(
    actions=st.lists(
        st.tuples(
            st.sampled_from(
                ["add_vertex", "remove_vertex", "add_edge", "remove_edge"]
            ),
            _elements, _elements,
        ),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=40, deadline=None)
def test_graph_2p2p_converges_in_every_order(actions):
    ops = [
        (action, [source] if action.endswith("vertex") else [source, target],
         context)
        for (action, source, target), context in zip(
            actions, _contexts(len(actions))
        )
    ]
    _assert_every_order_converges(lambda: TwoPTwoPGraph("str"), ops)
