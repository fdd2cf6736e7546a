"""Delta-state CRDT reconciliation (Almeida et al., delta-CRDTs).

Telemetry-heavy Vegvisir workloads are dominated by a handful of CRDTs
(append-only logs, counters, LWW registers) whose *state* is a
join-semilattice: any two replica states can be merged with an
idempotent, commutative, associative join, and the part one replica is
missing — the **delta** — is usually far smaller than the signed blocks
that produced it.  This protocol ships those deltas instead of blocks:

1. the initiator summarizes each delta-capable CRDT (per-actor version
   vectors for logs, per-actor totals for counters, the winner key for
   LWW registers) in one ``delta_summary`` message;
2. the responder answers with exactly the lattice entries the summary
   proves missing, plus its own summaries (``delta_state``);
3. the initiator joins them and pushes the reverse difference
   (``delta_push``).

Joined state lives in a per-node :class:`DeltaStore`, **never** inside
the CRDT state machine: the CSM stays strictly replay-based (replaying a
counter increment twice would double-count, and unsigned delta entries
must never influence ``state_digest``).  Reads that want the merged view
go through :func:`delta_view_value`, the join of CSM state and store.

Why per-actor summaries are complete: branch-reining (§IV-A) chains one
user's blocks, block timestamps strictly increase along every edge, and
replicas hold parent-closed sets — so the entries a replica holds for
one actor are a prefix of that actor's history in ``(timestamp, op_id)``
order, and a count per actor pins the difference exactly.

By default the session is **durable**: after the state plane it chains
the frontier protocol on the same stats object, so the
block DAGs converge too and the session satisfies the same end-state
guarantees as every other protocol.  ``durable=False`` runs the state
plane alone — the telemetry-radio mode benchmark A14 measures.
"""

from __future__ import annotations

from typing import Any

from repro.crdt.base import CRDTError
from repro.crdt.schema import check_type
from repro.reconcile.engine import Protocol
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.session import Responder, SessionSide, expect, handles


class DeltaStore:
    """Per-node lattice state joined from peers' deltas.

    Keyed by CRDT name; a stored state is only consulted when the local
    CSM instance has the same type name (a concurrently re-created CRDT
    of a different type simply orphans the old entry).
    """

    def __init__(self):
        self._states: dict[str, tuple[str, Any]] = {}

    def state(self, name: str, type_name: str) -> Any:
        held = self._states.get(name)
        if held is None or held[0] != type_name:
            return None
        return held[1]

    def put(self, name: str, type_name: str, state: Any) -> None:
        self._states[name] = (type_name, state)

    def names(self) -> list[str]:
        return sorted(self._states)


def delta_store(node) -> DeltaStore:
    """The node's delta store, created on first use."""
    store = getattr(node, "delta_store", None)
    if store is None:
        store = DeltaStore()
        node.delta_store = store
    return store


# ----------------------------------------------------------------------
# Wire validation helpers.  Structurally malformed payloads raise
# ValueError (the session is torn down, like a malformed block);
# entries that are well-formed but fail the CRDT's element schema are
# *counted* invalid and skipped, like invalid blocks.

def _check_pairs(value) -> None:
    if not isinstance(value, list):
        raise ValueError("actor totals must be a list of pairs")
    for item in value:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], bytes)
            or not item[0]
            or len(item[0]) > 64
            or not isinstance(item[1], int)
            or isinstance(item[1], bool)
            or item[1] < 0
        ):
            raise ValueError("malformed actor/total pair")


def _check_lww_key(value) -> None:
    if value is None:
        return
    if (
        not isinstance(value, list)
        or len(value) != 3
        or not isinstance(value[0], int)
        or isinstance(value[0], bool)
        or not isinstance(value[1], bytes)
        or not isinstance(value[2], bytes)
    ):
        raise ValueError("malformed LWW winner key")


# ----------------------------------------------------------------------
# Per-type codecs.  Each codec defines the joined *view* (CSM ⊔ store),
# the wire summary, the delta a peer summary proves missing, the join of
# a received delta into the store, and the user-visible value.

class _LogCodec:
    type_name = "append_log"

    @staticmethod
    def view(instance, stored) -> dict:
        view = dict(stored) if stored else {}
        if instance is not None:
            for op_id, timestamp, actor, entry in instance.delta_items():
                view[op_id] = (timestamp, actor, entry)
        return view

    @staticmethod
    def summary(view) -> list:
        counts: dict[bytes, int] = {}
        for timestamp, actor, entry in view.values():
            counts[actor] = counts.get(actor, 0) + 1
        return [[actor, counts[actor]] for actor in sorted(counts)]

    @staticmethod
    def delta(view, peer_summary) -> list:
        _check_pairs(peer_summary)
        peer_counts = {actor: count for actor, count in peer_summary}
        per_actor: dict[bytes, list] = {}
        for op_id, (timestamp, actor, entry) in view.items():
            per_actor.setdefault(actor, []).append(
                (timestamp, op_id, entry)
            )
        out = []
        for actor in sorted(per_actor):
            mine = sorted(
                per_actor[actor], key=lambda item: (item[0], item[1])
            )
            for timestamp, op_id, entry in mine[peer_counts.get(actor, 0):]:
                out.append([op_id, timestamp, actor, entry])
        return out

    @staticmethod
    def empty(delta) -> bool:
        return not delta

    @staticmethod
    def size(delta) -> int:
        return len(delta)

    @staticmethod
    def join(view, stored, delta, spec):
        if not isinstance(delta, list):
            raise ValueError("log delta must be a list")
        stored = dict(stored) if stored else {}
        applied = invalid = 0
        for item in delta:
            if not isinstance(item, list) or len(item) != 4:
                raise ValueError("malformed log delta entry")
            op_id, timestamp, actor, entry = item
            if (
                not isinstance(op_id, bytes)
                or not op_id
                or len(op_id) > 64
                or not isinstance(timestamp, int)
                or isinstance(timestamp, bool)
                or not isinstance(actor, bytes)
                or not actor
                or len(actor) > 64
            ):
                raise ValueError("malformed log delta entry")
            if op_id in view or op_id in stored:
                continue
            try:
                check_type(spec, entry)
            except CRDTError:
                invalid += 1
                continue
            stored[op_id] = (timestamp, actor, entry)
            applied += 1
        return stored, applied, invalid

    @staticmethod
    def value(view):
        ordered = sorted(
            view.items(),
            key=lambda kv: (kv[1][0], kv[1][1], kv[0]),
        )
        return [entry for _op_id, (_ts, _actor, entry) in ordered]


def _join_totals(view_map, stored_map, delta_pairs):
    stored = dict(stored_map) if stored_map else {}
    applied = 0
    for actor, total in delta_pairs:
        if total > max(view_map.get(actor, 0), stored.get(actor, 0)):
            stored[actor] = total
            applied += 1
    return stored, applied


class _GCounterCodec:
    type_name = "g_counter"

    @staticmethod
    def view(instance, stored) -> dict:
        view = dict(stored) if stored else {}
        if instance is not None:
            for actor, total in instance.per_actor_totals().items():
                if total > view.get(actor, 0):
                    view[actor] = total
        return view

    @staticmethod
    def summary(view) -> list:
        return [[actor, view[actor]] for actor in sorted(view)]

    @staticmethod
    def delta(view, peer_summary) -> list:
        _check_pairs(peer_summary)
        peer = {actor: total for actor, total in peer_summary}
        return [
            [actor, view[actor]]
            for actor in sorted(view)
            if view[actor] > peer.get(actor, 0)
        ]

    @staticmethod
    def empty(delta) -> bool:
        return not delta

    @staticmethod
    def size(delta) -> int:
        return len(delta)

    @staticmethod
    def join(view, stored, delta, spec):
        _check_pairs(delta)
        new_stored, applied = _join_totals(view, stored, delta)
        return new_stored, applied, 0

    @staticmethod
    def value(view) -> int:
        return sum(view.values())


class _PNCounterCodec:
    type_name = "pn_counter"

    @staticmethod
    def view(instance, stored):
        pos_stored, neg_stored = stored if stored else ({}, {})
        positive = dict(pos_stored)
        negative = dict(neg_stored)
        if instance is not None:
            own_pos, own_neg = instance.per_actor_totals()
            for actor, total in own_pos.items():
                if total > positive.get(actor, 0):
                    positive[actor] = total
            for actor, total in own_neg.items():
                if total > negative.get(actor, 0):
                    negative[actor] = total
        return positive, negative

    @staticmethod
    def summary(view) -> list:
        positive, negative = view
        return [
            [[actor, positive[actor]] for actor in sorted(positive)],
            [[actor, negative[actor]] for actor in sorted(negative)],
        ]

    @staticmethod
    def delta(view, peer_summary) -> list:
        if not isinstance(peer_summary, list) or len(peer_summary) != 2:
            raise ValueError("malformed pn_counter summary")
        out = []
        for view_map, peer_pairs in zip(view, peer_summary):
            _check_pairs(peer_pairs)
            peer = {actor: total for actor, total in peer_pairs}
            out.append([
                [actor, view_map[actor]]
                for actor in sorted(view_map)
                if view_map[actor] > peer.get(actor, 0)
            ])
        return out

    @staticmethod
    def empty(delta) -> bool:
        return not delta[0] and not delta[1]

    @staticmethod
    def size(delta) -> int:
        return len(delta[0]) + len(delta[1])

    @staticmethod
    def join(view, stored, delta, spec):
        if not isinstance(delta, list) or len(delta) != 2:
            raise ValueError("malformed pn_counter delta")
        pos_stored, neg_stored = stored if stored else ({}, {})
        applied = 0
        new_maps = []
        for view_map, stored_map, pairs in zip(
            view, (pos_stored, neg_stored), delta
        ):
            _check_pairs(pairs)
            new_map, map_applied = _join_totals(view_map, stored_map, pairs)
            new_maps.append(new_map)
            applied += map_applied
        return (new_maps[0], new_maps[1]), applied, 0

    @staticmethod
    def value(view) -> int:
        positive, negative = view
        return sum(positive.values()) - sum(negative.values())


class _LWWCodec:
    type_name = "lww_register"

    @staticmethod
    def view(instance, stored):
        candidates = []
        if stored is not None:
            candidates.append(tuple(stored))
        if instance is not None:
            winner = instance.winner()
            if winner is not None:
                candidates.append(winner)
        if not candidates:
            return None
        return max(candidates, key=lambda item: item[:3])

    @staticmethod
    def summary(view):
        if view is None:
            return None
        return [view[0], view[1], view[2]]

    @staticmethod
    def delta(view, peer_summary):
        _check_lww_key(peer_summary)
        if view is None:
            return None
        if peer_summary is not None and tuple(view[:3]) <= (
            peer_summary[0], peer_summary[1], peer_summary[2]
        ):
            return None
        return [view[0], view[1], view[2], view[3]]

    @staticmethod
    def empty(delta) -> bool:
        return delta is None

    @staticmethod
    def size(delta) -> int:
        return 0 if delta is None else 1

    @staticmethod
    def join(view, stored, delta, spec):
        if delta is None:
            return stored, 0, 0
        if (
            not isinstance(delta, list)
            or len(delta) != 4
            or not isinstance(delta[0], int)
            or isinstance(delta[0], bool)
            or not isinstance(delta[1], bytes)
            or not isinstance(delta[2], bytes)
        ):
            raise ValueError("malformed LWW delta")
        key = (delta[0], delta[1], delta[2])
        if view is not None and tuple(view[:3]) >= key:
            return stored, 0, 0
        try:
            check_type(spec, delta[3])
        except CRDTError:
            return stored, 0, 1
        return (delta[0], delta[1], delta[2], delta[3]), 1, 0

    @staticmethod
    def value(view):
        return None if view is None else view[3]


CODECS = {
    codec.type_name: codec
    for codec in (_LogCodec, _GCounterCodec, _PNCounterCodec, _LWWCodec)
}

#: Type names the delta plane can carry.  Everything else (OR-sets,
#: MV registers, maps — types whose merge needs causal context beyond a
#: per-actor summary) rides the block plane untouched.
DELTA_CAPABLE = tuple(sorted(CODECS))


def _eligible(node) -> dict:
    """name -> (codec, instance) for every local delta-capable CRDT."""
    out = {}
    csm = node.csm
    for name in csm.crdt_names():
        instance = csm.crdt_instance(name)
        codec = CODECS.get(getattr(instance, "TYPE_NAME", ""))
        if codec is not None:
            out[name] = (codec, instance)
    return out


def delta_summaries(node) -> list:
    """``[[name, type_name, summary], ...]`` over the joined view."""
    store = delta_store(node)
    out = []
    for name, (codec, instance) in sorted(_eligible(node).items()):
        view = codec.view(instance, store.state(name, codec.type_name))
        out.append([name, codec.type_name, codec.summary(view)])
    return out


def delta_reply(node, summaries) -> list:
    """The responder's answer to a ``delta_summary`` message.

    One ``[name, type_name, delta, my_summary]`` entry per summarized
    CRDT this node also holds (same name *and* type) whose state
    differs; CRDTs only one side knows arrive via the block plane.
    """
    if not isinstance(summaries, list):
        raise ValueError("delta summaries must be a list")
    local = _eligible(node)
    store = delta_store(node)
    out = []
    for item in summaries:
        if (
            not isinstance(item, list)
            or len(item) != 3
            or not isinstance(item[0], str)
            or not isinstance(item[1], str)
        ):
            raise ValueError("malformed delta summary entry")
        name, type_name, peer_summary = item
        pair = local.get(name)
        if pair is None or pair[0].type_name != type_name:
            continue
        codec, instance = pair
        view = codec.view(instance, store.state(name, type_name))
        my_summary = codec.summary(view)
        if my_summary == peer_summary:
            continue
        out.append(
            [name, type_name, codec.delta(view, peer_summary), my_summary]
        )
    return out


def _join_entries(node, entries, width: int, what: str) -> tuple[int, int]:
    """Join ``[name, type_name, delta, ...]`` entries into the store."""
    if not isinstance(entries, list):
        raise ValueError(f"{what} must be a list")
    local = _eligible(node)
    store = delta_store(node)
    applied = invalid = 0
    for item in entries:
        if (
            not isinstance(item, list)
            or len(item) != width
            or not isinstance(item[0], str)
            or not isinstance(item[1], str)
        ):
            raise ValueError(f"malformed {what} entry")
        name, type_name, delta = item[:3]
        pair = local.get(name)
        if pair is None or pair[0].type_name != type_name:
            continue
        codec, instance = pair
        held = store.state(name, type_name)
        view = codec.view(instance, held)
        stored, new_applied, new_invalid = codec.join(
            view, held, delta, instance.element_spec
        )
        store.put(name, type_name, stored)
        applied += new_applied
        invalid += new_invalid
    return applied, invalid


def join_delta_reply(node, reply) -> tuple[int, int]:
    """Join a ``delta_state`` reply into the store; (applied, invalid)."""
    return _join_entries(node, reply, 4, "delta state")


def delta_push_payload(node, reply) -> list:
    """Reverse deltas against the responder summaries in its reply.

    Call after :func:`join_delta_reply` (which validates the reply's
    structure); entries whose delta is empty are omitted, and an empty
    payload means no ``delta_push`` message is sent at all.
    """
    local = _eligible(node)
    store = delta_store(node)
    out = []
    for name, type_name, _delta, peer_summary in reply:
        pair = local.get(name)
        if pair is None or pair[0].type_name != type_name:
            continue
        codec, instance = pair
        view = codec.view(instance, store.state(name, type_name))
        delta = codec.delta(view, peer_summary)
        if codec.empty(delta):
            continue
        out.append([name, type_name, delta])
    return out


def join_delta_push(node, payload) -> tuple[int, int]:
    """Join a ``delta_push`` payload into the store; (applied, invalid)."""
    return _join_entries(node, payload, 3, "delta push")


def count_entries(payload) -> int:
    """Lattice entries in a push payload (what the initiator charges to
    ``delta_entries_pushed``; an honest responder applies them all)."""
    total = 0
    for _name, type_name, delta in payload:
        total += CODECS[type_name].size(delta)
    return total


def delta_view_value(node, name: str):
    """A CRDT's value through the delta plane: CSM state ⊔ store state.

    Falls back to the plain CSM value for CRDTs the delta plane does not
    carry.  Raises ``KeyError`` for unknown names.
    """
    instance = node.csm.crdt_instance(name)
    if instance is None:
        raise KeyError(f"no CRDT named {name!r}")
    codec = CODECS.get(getattr(instance, "TYPE_NAME", ""))
    if codec is None:
        return instance.value()
    store = delta_store(node)
    view = codec.view(instance, store.state(name, codec.type_name))
    return codec.value(view)


class DeltaProtocol(Protocol):
    """Delta-state CRDT sync, durable (block plane chained) by default.

    ``durable=False`` runs the state plane alone: CSM deltas cross the
    radio, block DAGs stay divergent — the telemetry mode whose byte
    cost benchmark A14 measures.  The default chains the frontier
    protocol on the same stats object so the session also converges the
    DAGs, which the gossip/chaos layers require.
    """

    name = "delta"

    def __init__(self, push: bool = True, durable: bool = True):
        self._push = push
        self._durable = durable

    def initiate(self, me: SessionSide):
        node, stats = me.node, me.stats
        stats.rounds += 1
        reply = expect(
            (yield {"type": "delta_summary", "crdts": delta_summaries(node)}),
            "delta_state",
        )
        applied, invalid = join_delta_reply(node, reply["crdts"])
        stats.delta_entries_pulled += applied
        stats.delta_entries_invalid += invalid
        if self._push:
            payload = delta_push_payload(node, reply["crdts"])
            if payload:
                yield {"type": "delta_push", "crdts": payload}
                stats.delta_entries_pushed += count_entries(payload)
        if self._durable:
            yield from FrontierProtocol(push=self._push).initiate(me)
        else:
            stats.converged = True


@handles("delta_summary")
def _on_delta_summary(responder: Responder, message: dict) -> dict:
    return {
        "type": "delta_state",
        "crdts": delta_reply(responder.node, message["crdts"]),
    }


@handles("delta_push", reply=False)
def _on_delta_push(responder: Responder, message: dict) -> None:
    _applied, invalid = join_delta_push(responder.node, message["crdts"])
    responder.stats.delta_entries_invalid += invalid
