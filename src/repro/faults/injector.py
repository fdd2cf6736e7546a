"""Seed-driven fault injection for the message-level gossip path.

The :class:`FaultInjector` sits between the gossip scheduler and the
wire: every message of a message-level reconciliation session is offered
to :meth:`on_message`, which draws — from the injector's **own**
``random.Random`` stream, never the link model's — whether the message
is dropped, duplicated, reordered (extra delay), or byte-corrupted.
Corruption is applied to the message's canonical wire encoding and then
classified exactly the way a real receiver would experience it:

* if the corrupted frame no longer decodes, it surfaces as a
  :class:`~repro.wire.errors.DecodeError` (counted in
  ``wire_decode_errors_total``) and the frame is lost;
* if it still decodes, canonicity guarantees the decoded value differs
  from what was sent, so the session layer detects the desync and
  rejects the frame (counted in ``validation_rejects_total``) — and any
  block whose bytes were touched is additionally offered to the
  receiving replica's *real* validation pipeline, proving end-to-end
  that a corrupted block is never accepted (``corrupt_blocks_accepted``
  must stay zero; the chaos harness asserts it).

Every corrupted frame therefore lands in exactly one bucket, giving the
harness invariant ``corrupted == wire_decode_errors + validation_rejects``.

The :class:`CrashController` handles the crash/restart schedule: each
crashing node persists its replica to an append-only
:class:`~repro.storage.blockstore.BlockStore` as blocks arrive, loses
its in-memory state at crash time, and is rebuilt from disk through the
normal :func:`~repro.storage.node_store.restore_node` validation path at
restart.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
from random import Random
from typing import Optional

from repro import wire
from repro.chain.block import Block
from repro.chain.errors import ChainError, MalformedBlockError
from repro.faults.plan import FaultPlan

DROP = "drop"
DUPLICATE = "duplicate"
REORDER = "reorder"
CORRUPT = "corrupt"
FLAP = "flap"

#: XOR'd into the plan seed so the injector's stream never collides with
#: the link model (``seed ^ 0x5EED``), gossip (``seed ^ 0x60551B``), or
#: workload (``seed ^ 0xC0FFEE``) streams even for equal seeds.
_STREAM_SALT = 0xFA017


class FaultCounters:
    """Plain-integer fault accounting (hot path stays registry-free)."""

    __slots__ = (
        "dropped", "duplicated", "reordered", "corrupted", "flaps",
        "crashes", "restarts", "wire_decode_errors", "validation_rejects",
        "corrupt_blocks_accepted", "duplicate_bytes",
    )

    def __init__(self):
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.corrupted = 0
        self.flaps = 0
        self.crashes = 0
        self.restarts = 0
        # Exactly one of these two buckets per corrupted frame:
        self.wire_decode_errors = 0
        self.validation_rejects = 0
        # Corrupted blocks the replica *accepted* — must remain zero;
        # anything else is a validation-layer hole the harness flags.
        self.corrupt_blocks_accepted = 0
        self.duplicate_bytes = 0

    @property
    def injected_total(self) -> int:
        return (
            self.dropped + self.duplicated + self.reordered
            + self.corrupted + self.flaps
        )

    def as_dict(self) -> dict:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "corrupted": self.corrupted,
            "flaps": self.flaps,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "wire_decode_errors": self.wire_decode_errors,
            "validation_rejects": self.validation_rejects,
            "corrupt_blocks_accepted": self.corrupt_blocks_accepted,
            "duplicate_bytes": self.duplicate_bytes,
        }


class MessageFault:
    """The verdict for one wire message, decided at send time."""

    __slots__ = ("kind", "extra_delay_ms")

    def __init__(self, kind: str, extra_delay_ms: int = 0):
        self.kind = kind
        self.extra_delay_ms = extra_delay_ms

    def __repr__(self) -> str:
        return f"MessageFault({self.kind}, +{self.extra_delay_ms} ms)"


class FaultInjector:
    """Applies a :class:`FaultPlan` to a running simulation.

    The injector draws from its own RNG stream seeded from the plan, so
    attaching it — even with non-zero probabilities — never perturbs the
    link model's or scheduler's seeded draws.  With an all-zero plan no
    draws happen at all and the run is byte-for-byte identical to one
    with no injector attached.
    """

    def __init__(self, plan: FaultPlan, obs=None):
        self.plan = plan
        self.counters = FaultCounters()
        self._rng = Random(plan.seed ^ _STREAM_SALT)
        self._down: set[int] = set()
        self._obs = obs if obs is not None and obs.enabled else None

    # -- node crash state ----------------------------------------------

    def node_down(self, node_id: int) -> bool:
        return node_id in self._down

    def mark_crashed(self, node_id: int) -> None:
        self._down.add(node_id)

    def mark_restarted(self, node_id: int) -> None:
        self._down.discard(node_id)

    # -- link flaps ----------------------------------------------------

    def link_down(self, a: int, b: int, now_ms: int) -> bool:
        """Is the a~b link inside one of its scripted flap windows?"""
        if not self.plan.flaps or not self.plan.active_at(now_ms):
            return False
        return any(w.matches(a, b, now_ms) for w in self.plan.flaps)

    def record_flap(self, a: int, b: int, now_ms: int) -> None:
        """Count one delivery/contact actually blocked by a flap."""
        self.counters.flaps += 1
        if self._obs is not None:
            self._obs.bus.emit("fault.injected", kind=FLAP, a=a, b=b)

    # -- per-message faults --------------------------------------------

    def on_message(self, initiator_id: int, responder_id: int, step,
                   now_ms: int) -> Optional[MessageFault]:
        """Decide this message's fate at send time.

        Returns ``None`` (the common case) without consuming any
        randomness when the link's fault configuration is all-zero or
        the plan has ceased.  At most one fault fires per message.
        """
        if not self.plan.active_at(now_ms):
            return None
        faults = self.plan.link_faults(initiator_id, responder_id)
        if not faults.any():
            return None
        rng = self._rng
        if faults.drop and rng.random() < faults.drop:
            return MessageFault(DROP)
        if faults.corrupt and rng.random() < faults.corrupt:
            return MessageFault(CORRUPT)
        if faults.duplicate and rng.random() < faults.duplicate:
            low, high = faults.duplicate_delay_ms
            return MessageFault(DUPLICATE, rng.randint(low, high))
        if faults.reorder and rng.random() < faults.reorder:
            low, high = faults.reorder_delay_ms
            return MessageFault(REORDER, rng.randint(low, high))
        return None

    def apply(self, fault: MessageFault, step, receiver, a: int,
              b: int) -> bool:
        """Apply a fault at delivery time; True means the frame is lost
        (the session cannot continue and must be torn down)."""
        counters = self.counters
        kind = fault.kind
        detail = None
        kills = False
        if kind == DROP:
            counters.dropped += 1
            kills = True
        elif kind == CORRUPT:
            detail = self._apply_corrupt(step, receiver)
            kills = True
        elif kind == DUPLICATE:
            # The duplicate frame burned airtime (charged as extra
            # latency at send time) and wasted its bytes; the session
            # layer discards the replay and the protocol continues.
            counters.duplicated += 1
            counters.duplicate_bytes += step.size
        elif kind == REORDER:
            counters.reordered += 1
        if self._obs is not None:
            fields = {"kind": kind, "a": a, "b": b, "bytes": step.size}
            if detail is not None:
                fields["classified"] = detail
            self._obs.bus.emit("fault.injected", **fields)
        return kills

    def _apply_corrupt(self, step, receiver) -> str:
        """Corrupt the frame's canonical bytes and classify for real.

        Returns ``"decode_error"`` or ``"validation_reject"`` — exactly
        one bucket per corrupted frame (see module docstring).
        """
        self.counters.corrupted += 1
        frame = wire.encode(step.message)
        corrupted = self._flip_bytes(frame)
        try:
            decoded = wire.decode(corrupted)
        except wire.DecodeError:
            self.counters.wire_decode_errors += 1
            return "decode_error"
        # The codec is canonical: distinct accepted byte strings decode
        # to distinct values, so `decoded` necessarily differs from the
        # sent message and the session layer detects the desync.
        self.counters.validation_rejects += 1
        for block_wire in self._changed_blocks(decoded, step.message):
            try:
                block = Block.from_wire(block_wire)
            except MalformedBlockError:
                continue  # structurally rejected — counted above
            try:
                receiver.receive_block(block)
            except ChainError:
                continue  # rejected by real validation — counted above
            # A corrupted block made it into a replica: validation hole.
            self.counters.corrupt_blocks_accepted += 1
        return "validation_reject"

    def _flip_bytes(self, frame: bytes) -> bytes:
        """Flip 1–3 bytes of *frame*, each to a different value."""
        data = bytearray(frame)
        for _ in range(self._rng.randint(1, min(3, len(data)))):
            index = self._rng.randrange(len(data))
            data[index] ^= self._rng.randrange(1, 256)
        return bytes(data)

    @staticmethod
    def _changed_blocks(decoded, original) -> list:
        """Decoded blocks in *decoded* whose bytes were touched
        (*original* is the lowered step: its blocks are their bytes)."""
        if not isinstance(decoded, dict) or not isinstance(original, dict):
            return []
        decoded_blocks = decoded.get("blocks")
        original_blocks = original.get("blocks")
        if not isinstance(decoded_blocks, list) or not isinstance(
            original_blocks, list
        ):
            return []
        changed = []
        for index, entry in enumerate(decoded_blocks):
            if not isinstance(entry, list):
                continue
            if (
                index >= len(original_blocks)
                or wire.encode(entry) != original_blocks[index].data
            ):
                changed.append(entry)
        return changed

    # -- registry projection -------------------------------------------

    def sync_registry(self, registry):
        """Project the fault counters into ``faults_*`` instruments."""
        counters = self.counters
        injected = registry.counter(
            "faults_injected_total",
            "message/link faults injected by kind", labels=("kind",),
        )
        for kind, count in (
            (DROP, counters.dropped),
            (DUPLICATE, counters.duplicated),
            (REORDER, counters.reordered),
            (CORRUPT, counters.corrupted),
            (FLAP, counters.flaps),
        ):
            injected.labels(kind=kind).value = count
        simple = {
            "faults_corrupted_total":
                ("frames byte-corrupted in flight", counters.corrupted),
            "wire_decode_errors_total":
                ("corrupted frames rejected by the wire codec",
                 counters.wire_decode_errors),
            "validation_rejects_total":
                ("corrupted frames rejected by session/block validation",
                 counters.validation_rejects),
            "faults_corrupt_blocks_accepted_total":
                ("corrupted blocks accepted by a replica (must be 0)",
                 counters.corrupt_blocks_accepted),
            "faults_duplicate_bytes_total":
                ("wasted bytes of duplicated frames",
                 counters.duplicate_bytes),
            "faults_crashes_total":
                ("scheduled node crashes executed", counters.crashes),
            "faults_restarts_total":
                ("crashed nodes recovered from disk", counters.restarts),
        }
        for name, (help_text, count) in simple.items():
            registry.counter(name, help_text)._unlabeled().value = count
        return registry


class CrashRecord:
    """What one crash/restart cycle did, for invariant checking."""

    __slots__ = ("node", "at_ms", "restarted_ms", "pre_crash", "recovered")

    def __init__(self, node: int, at_ms: int, pre_crash: frozenset):
        self.node = node
        self.at_ms = at_ms
        self.restarted_ms: Optional[int] = None
        self.pre_crash = pre_crash
        self.recovered: Optional[frozenset] = None


class CrashController:
    """Executes a plan's crash schedule against a running simulation.

    Each crashing node gets an append-only :class:`BlockStore`; blocks
    are persisted as the gossip layer observes them arriving (the
    device's fsync batching point).  A crash discards the in-memory
    replica and tears any in-flight session; the restart rebuilds the
    node from its store through :func:`restore_node`'s full validation
    path and rejoins it to gossip.
    """

    def __init__(self, plan: FaultPlan, injector: FaultInjector,
                 store_dir=None):
        from repro.storage.blockstore import BlockStore

        self._plan = plan
        self._injector = injector
        self._sim = None
        self._tempdir: Optional[str] = None
        if store_dir is None:
            self._tempdir = tempfile.mkdtemp(prefix="vgv-faults-")
            store_dir = self._tempdir
        self._dir = pathlib.Path(store_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.stores = {
            crash.node: BlockStore(
                self._dir / f"node{crash.node}.vgv", fsync=False
            )
            for crash in plan.crashes
        }
        self.records: list[CrashRecord] = []

    def install(self, sim) -> None:
        """Schedule the crash/restart events on *sim*'s loop."""
        self._sim = sim
        for crash in self._plan.crashes:
            if crash.node not in sim.fleet.nodes:
                from repro.faults.plan import FaultPlanError

                raise FaultPlanError(
                    f"crash names unknown node {crash.node}"
                )
            sim.loop.schedule_at(
                crash.at_ms, self._make_crash(crash.node)
            )
            sim.loop.schedule_at(
                crash.restart_ms, self._make_restart(crash.node)
            )
        if self.stores:
            sim.gossip.set_block_sink(self.persist_block)

    def persist_block(self, node_id: int, block) -> None:
        store = self.stores.get(node_id)
        if store is not None and not self._injector.node_down(node_id):
            store.append(block)

    def _make_crash(self, node_id: int):
        def crash() -> None:
            self._crash(node_id)
        return crash

    def _make_restart(self, node_id: int):
        def restart() -> None:
            self._restart(node_id)
        return restart

    def _crash(self, node_id: int) -> None:
        sim = self._sim
        node = sim.fleet.nodes[node_id]
        self.records.append(CrashRecord(
            node_id, sim.loop.now, frozenset(node.dag.hashes())
        ))
        # Tear any in-flight session first: blocks merged before the
        # crash get observed (and persisted) like any settled batch.
        sim.gossip.interrupt_node(node_id, reason="crash")
        self._injector.mark_crashed(node_id)
        store = self.stores.get(node_id)
        if store is not None:
            store.close()
        self._injector.counters.crashes += 1
        if sim.obs is not None:
            sim.obs.bus.emit("node.crashed", node=node_id)

    def _restart(self, node_id: int) -> None:
        from repro.storage.node_store import restore_node

        sim = self._sim
        old = sim.fleet.nodes[node_id]
        store = self.stores[node_id]
        store.close()  # flush pending writes before the read pass
        loaded = restore_node(
            sim.fleet.keys[node_id], store.blocks(),
            clock=old.clock, location=old.location_provider,
        )
        sim.fleet.nodes[node_id] = loaded
        sim.gossip.resync_node_cursor(node_id)
        self._injector.mark_restarted(node_id)
        record = next(
            r for r in reversed(self.records) if r.node == node_id
        )
        record.restarted_ms = sim.loop.now
        record.recovered = frozenset(loaded.dag.hashes())
        self._injector.counters.restarts += 1
        if sim.obs is not None:
            sim.obs.bus.emit(
                "node.restarted", node=node_id,
                recovered_blocks=len(record.recovered),
            )

    def cleanup(self) -> None:
        """Close stores; remove the temp dir if this controller made it."""
        for store in self.stores.values():
            store.close()
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None


__all__ = [
    "CORRUPT", "CrashController", "CrashRecord", "DROP", "DUPLICATE",
    "FLAP", "FaultCounters", "FaultInjector", "MessageFault", "REORDER",
]
