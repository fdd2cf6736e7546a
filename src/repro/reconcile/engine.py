"""The in-process session driver.

A protocol's two halves (see :mod:`repro.reconcile.session`) exchange
messages; this driver shuttles them between two replicas in one process,
one wire message per step.  That single description serves two
execution models:

* **atomic** — :func:`drive_to_completion` runs every step in one call:
  the blocking ``protocol.run`` behaviour;
* **message** — the gossip scheduler holds a :class:`ReconcileSession`
  and schedules every step as its own event on the simulation loop,
  charging per-message latency and re-checking connectivity before each
  delivery.  A session whose pair walks out of radio range is
  :meth:`~ReconcileSession.abort`-ed between messages; its
  :class:`~repro.reconcile.stats.ReconcileStats` keep the partial
  totals charged so far and are flagged ``interrupted``.

Messages cross as objects: a step is lowered to its wire map for byte
accounting (and for the fault injector), never parsed back.

Interruption can never corrupt a replica: blocks are only ever inserted
through :func:`~repro.reconcile.session.merge_blocks`, which adds a
block if and only if all its parents are present (parent-closed
batches).  Blocks still in flight — or received but awaiting parents —
are simply dropped with the torn session.
"""

from __future__ import annotations

from typing import Optional

from repro.core.node import VegvisirNode
from repro.reconcile.session import Responder, SessionSide, lower, resume
from repro.reconcile.stats import (
    INITIATOR_TO_RESPONDER,
    RESPONDER_TO_INITIATOR,
    ReconcileStats,
)


class Protocol:
    """Base of every protocol: a name, an initiator generator, and the
    blocking ``run``.  The responder half is the module's handlers."""

    name = "?"

    def initiate(self, me: SessionSide):
        """Yield requests, receive replies; touch only ``me.node``."""
        raise NotImplementedError

    def run(self, initiator: VegvisirNode,
            responder: VegvisirNode) -> ReconcileStats:
        return drive_to_completion(self, initiator, responder)


class SessionStep:
    """One wire message of a session, with its canonical encoded size."""

    __slots__ = ("direction", "message", "size")

    def __init__(self, direction: str, message: dict, size: int):
        self.direction = direction
        self.message = message
        self.size = size

    @property
    def from_initiator(self) -> bool:
        return self.direction == INITIATOR_TO_RESPONDER

    def __repr__(self) -> str:
        kind = self.message.get("type", "?")
        return f"SessionStep({self.direction}, {kind!r}, {self.size} B)"


class ReconcileSession:
    """A suspended reconciliation between two replicas.

    Pull wire messages one at a time with :meth:`next_step`; every call
    delivers the previous message (running the receiving half's
    processing) and returns the next transmission, or ``None`` once the
    protocol has finished.  :meth:`abort` tears the session down between
    messages, keeping the partial byte/block totals in :attr:`stats`.
    Both halves charge the one :attr:`stats` object.
    """

    def __init__(self, protocol: Protocol, initiator: VegvisirNode,
                 responder: VegvisirNode):
        self.stats = ReconcileStats(protocol.name)
        self._initiator = protocol.initiate(
            SessionSide(initiator, self.stats)
        )
        self._responder = Responder(responder, self.stats)
        # The message on the air, and which way it is going.
        self._in_flight: Optional[dict] = None
        self._to_responder = False
        # Different genesis blocks: not the same blockchain (§IV-G).
        self._done = initiator.chain_id != responder.chain_id

    @property
    def done(self) -> bool:
        """Has the session finished (completed or aborted)?"""
        return self._done

    @property
    def interrupted(self) -> bool:
        return self.stats.interrupted

    def next_step(self) -> Optional[SessionStep]:
        """Deliver the previous message and return the next one.

        The returned step's bytes are charged to :attr:`stats` at this
        point — transmission energy is spent whether or not the message
        will ultimately be delivered.  Returns ``None`` when the
        protocol is complete (or the session was already torn down).
        """
        if self._done:
            return None
        message = self._in_flight
        if self._to_responder:
            message = self._responder.handle(message)
            if message is not None:
                return self._transmit(RESPONDER_TO_INITIATOR, message)
        message = resume(self._initiator, message)
        if message is None:
            self._done = True
            return None
        return self._transmit(INITIATOR_TO_RESPONDER, message)

    def _transmit(self, direction: str, message: dict) -> SessionStep:
        self._in_flight = message
        self._to_responder = direction == INITIATOR_TO_RESPONDER
        wire_map = lower(message)
        return SessionStep(
            direction, wire_map, self.stats.record(direction, wire_map)
        )

    def abort(self) -> None:
        """Tear the session down between messages.

        Idempotent, and a no-op on an already-completed session.  The
        stats keep every byte and block charged so far and are flagged
        ``interrupted``; no replica is left structurally invalid because
        blocks only ever enter a DAG in parent-closed batches.
        """
        if self._done:
            return
        self._done = True
        self.stats.interrupted = True
        self._initiator.close()


def drive_to_completion(protocol: Protocol, initiator: VegvisirNode,
                        responder: VegvisirNode) -> ReconcileStats:
    """Run a session to the end at one instant.

    This is the atomic execution model: identical message sequence and
    accounting to the message-level model with an ideal (zero-latency,
    uninterrupted) link, which the equivalence tests enforce.
    """
    session = ReconcileSession(protocol, initiator, responder)
    while session.next_step() is not None:
        pass
    return session.stats
