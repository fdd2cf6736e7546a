"""Append-only log.

A G-Set of log entries with a deterministic display order: entries sort by
``(timestamp, actor, op_id)``, so every replica renders the same sequence
once converged even though appends commute.  This is the natural CRDT for
the paper's tamperproof event logs (access requests, sensor readings,
black-box telemetry).
"""

from __future__ import annotations

from typing import Any

from repro.crdt.base import CRDT, InvalidOperation, OpContext, register_crdt_type
from repro.crdt.schema import check_type


@register_crdt_type
class AppendLog(CRDT):
    """Append-only log.  Operations: ``append(entry)``."""

    TYPE_NAME = "append_log"
    OPERATIONS = ("append",)

    def __init__(self, element_spec: Any = "any"):
        super().__init__(element_spec)
        # op_id -> (order_key, entry).  op_id is unique, so an append can
        # never collide with another.
        self._entries: dict[bytes, tuple[tuple, Any]] = {}

    def check_args(self, op: str, args: list) -> None:
        self.require_op(op)
        if len(args) != 1:
            raise InvalidOperation("append takes exactly one argument")
        check_type(self.element_spec, args[0])

    def apply(self, op: str, args: list, ctx: OpContext) -> None:
        self.check_args(op, args)
        self._entries[ctx.op_id] = (ctx.order_key(), args[0])

    def value(self) -> list:
        """Entries in deterministic (timestamp, actor, op_id) order."""
        return [
            entry
            for _, entry in sorted(
                self._entries.values(), key=lambda pair: pair[0]
            )
        ]

    def entries_with_metadata(self) -> list[dict]:
        """Entries with their timestamps and actors, in display order."""
        ordered = sorted(self._entries.values(), key=lambda pair: pair[0])
        return [
            {
                "timestamp": order_key[0],
                "actor": order_key[1],
                "entry": entry,
            }
            for order_key, entry in ordered
        ]

    def canonical_state(self) -> Any:
        return [
            [op_id, self._entries[op_id][1]]
            for op_id in sorted(self._entries)
        ]

    def __len__(self) -> int:
        return len(self._entries)
