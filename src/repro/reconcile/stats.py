"""Byte and message accounting for reconciliation sessions.

Messages are wire-encodable dicts; :meth:`ReconcileStats.record` charges
the exact canonical encoding size to the sending direction, so protocol
comparisons measure what would really cross the radio.

What a *finished* session reports is defined here too, once, for the
simulator's gossip scheduler and the live anti-entropy loop alike:
:meth:`ReconcileStats.session_fields` is the field set of their
``session.end`` / ``session.completed`` / ``session.interrupted`` trace
events and :class:`SessionCounters` the ``reconcile_*`` metric families
(``docs/observability.md`` has the table).
"""

from __future__ import annotations

from typing import Any

from repro import wire

INITIATOR_TO_RESPONDER = "i->r"
RESPONDER_TO_INITIATOR = "r->i"

DIRECTIONS = (INITIATOR_TO_RESPONDER, RESPONDER_TO_INITIATOR)


class ReconcileStats:
    """Outcome of one pairwise reconciliation session."""

    def __init__(self, protocol: str):
        self.protocol = protocol
        self.rounds = 0
        self.messages = {INITIATOR_TO_RESPONDER: 0, RESPONDER_TO_INITIATOR: 0}
        self.bytes = {INITIATOR_TO_RESPONDER: 0, RESPONDER_TO_INITIATOR: 0}
        self.blocks_pulled = 0
        self.blocks_pushed = 0
        self.duplicate_blocks = 0
        self.invalid_blocks = 0
        self.converged = False
        # Set by the session engine when a message-level session was
        # aborted mid-transfer; the counters above then hold the partial
        # totals charged before the tear-down.
        self.interrupted = False
        # The initiator's frontier as of the push half, set by
        # ``push_missing``: once its batches are out, the responder
        # holds everything under it.  The live loop's push baseline;
        # not a reported field.
        self.held = None

    def record(self, direction: str, message: Any) -> int:
        """Charge one message; returns its encoded size in bytes."""
        return self.record_raw(direction, len(wire.encode(message)))

    def record_raw(self, direction: str, size: int) -> int:
        """Charge one already-encoded message of *size* bytes.

        The live transport layer uses this: it holds the exact frame
        payload that crossed the socket, so re-encoding the decoded
        message just to measure it would be wasted work (the codec is
        canonical, so the sizes are identical by construction).
        """
        if direction not in self.messages:
            raise ValueError(
                f"unknown direction {direction!r}: expected one of "
                f"{DIRECTIONS}"
            )
        self.messages[direction] += 1
        self.bytes[direction] += size
        return size

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def blocks_transferred(self) -> int:
        return self.blocks_pulled + self.blocks_pushed

    def as_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "rounds": self.rounds,
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "blocks_pulled": self.blocks_pulled,
            "blocks_pushed": self.blocks_pushed,
            "duplicates": self.duplicate_blocks,
            "invalid": self.invalid_blocks,
            "converged": self.converged,
            "interrupted": self.interrupted,
        }

    def session_fields(self) -> dict:
        """The trace fields of a finished session, completed or torn.

        The pinned-trace suite hashes the raw JSONL bytes of frontier
        runs, so this set is part of the pins.
        """
        return {
            "protocol": self.protocol,
            "rounds": self.rounds,
            "bytes_i2r": self.bytes[INITIATOR_TO_RESPONDER],
            "bytes_r2i": self.bytes[RESPONDER_TO_INITIATOR],
            "messages_i2r": self.messages[INITIATOR_TO_RESPONDER],
            "messages_r2i": self.messages[RESPONDER_TO_INITIATOR],
            "blocks_pulled": self.blocks_pulled,
            "blocks_pushed": self.blocks_pushed,
            "duplicates": self.duplicate_blocks,
            "invalid": self.invalid_blocks,
        }

    def __repr__(self) -> str:
        return (
            f"ReconcileStats({self.protocol}, rounds={self.rounds}, "
            f"bytes={self.total_bytes}, blocks={self.blocks_transferred})"
        )


class SessionCounters:
    """The ``reconcile_*`` metric families of one registry, folded per
    finished session by whichever runtime ran it."""

    def __init__(self, registry):
        self._bytes = registry.counter(
            "reconcile_bytes_total",
            "session bytes by protocol and direction",
            labels=("protocol", "direction"),
        )
        self._messages = registry.counter(
            "reconcile_messages_total",
            "session messages by protocol and direction",
            labels=("protocol", "direction"),
        )
        self._rounds = registry.counter(
            "reconcile_rounds_total",
            "reconciliation round trips by protocol",
            labels=("protocol",),
        )
        self._sessions = registry.counter(
            "reconcile_sessions_total",
            "completed sessions by protocol", labels=("protocol",),
        )
        self._blocks = registry.counter(
            "reconcile_blocks_total",
            "blocks moved by protocol and kind",
            labels=("protocol", "kind"),
        )
        self._interrupted = registry.counter(
            "reconcile_sessions_interrupted_total",
            "sessions aborted mid-transfer by link loss",
            labels=("protocol",),
        )
        self._partial_bytes = registry.counter(
            "reconcile_partial_bytes_total",
            "bytes charged to sessions later interrupted",
            labels=("protocol", "direction"),
        )

    def completed(self, stats: ReconcileStats) -> None:
        """Fold one session that ran to its end."""
        protocol = stats.protocol
        for direction in DIRECTIONS:
            self._bytes.labels(
                protocol=protocol, direction=direction
            ).inc(stats.bytes[direction])
            self._messages.labels(
                protocol=protocol, direction=direction
            ).inc(stats.messages[direction])
        self._rounds.labels(protocol=protocol).inc(stats.rounds)
        self._sessions.labels(protocol=protocol).inc()
        # Zero-valued kinds are skipped, so a session that moved no
        # block leaves no series behind.
        for kind, count in (
            ("pulled", stats.blocks_pulled),
            ("pushed", stats.blocks_pushed),
            ("duplicate", stats.duplicate_blocks),
            ("invalid", stats.invalid_blocks),
        ):
            if count:
                self._blocks.labels(protocol=protocol, kind=kind).inc(count)

    def interrupted(self, stats: ReconcileStats) -> None:
        """Fold one session torn mid-transfer: its bytes were spent on
        the air but the session never settled."""
        protocol = stats.protocol
        self._interrupted.labels(protocol=protocol).inc()
        for direction in DIRECTIONS:
            self._partial_bytes.labels(
                protocol=protocol, direction=direction
            ).inc(stats.bytes[direction])
