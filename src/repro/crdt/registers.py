"""Last-writer-wins and multi-value registers.

The LWW register resolves concurrent writes by the deterministic order key
``(timestamp, actor, op_id)`` — all replicas agree on the winner without
coordination.

The MV register keeps *all* concurrent writes.  Each ``set`` operation
carries the op ids of the entries it overwrites (the writer's view at
creation time); replay removes exactly those entries and inserts the new
one, so two concurrent writes overwrite neither and both survive until a
later write observes them.
"""

from __future__ import annotations

from typing import Any

from repro.crdt.base import CRDT, InvalidOperation, OpContext, register_crdt_type
from repro.crdt.schema import check_type


@register_crdt_type
class LWWRegister(CRDT):
    """Last-writer-wins register.  Operations: ``set(value)``."""

    TYPE_NAME = "lww_register"
    OPERATIONS = ("set",)

    def __init__(self, element_spec: Any = "any"):
        super().__init__(element_spec)
        self._value: Any = None
        self._winner_key: tuple | None = None

    def check_args(self, op: str, args: list) -> None:
        self.require_op(op)
        if len(args) != 1:
            raise InvalidOperation("set takes exactly one argument")
        check_type(self.element_spec, args[0])

    def apply(self, op: str, args: list, ctx: OpContext) -> None:
        self.check_args(op, args)
        key = ctx.order_key()
        if self._winner_key is None or key > self._winner_key:
            self._winner_key = key
            self._value = args[0]

    def value(self) -> Any:
        return self._value

    def is_set(self) -> bool:
        return self._winner_key is not None

    def canonical_state(self) -> Any:
        if self._winner_key is None:
            return None
        timestamp, actor, op_id = self._winner_key
        return [timestamp, actor, op_id, self._value]


@register_crdt_type
class MVRegister(CRDT):
    """Multi-value register.

    Operations: ``set(value, overwrites)`` where *overwrites* is the list
    of op ids (bytes) currently visible to the writer.  Reading yields all
    surviving values; a singleton list means no conflict.
    """

    TYPE_NAME = "mv_register"
    OPERATIONS = ("set",)

    def __init__(self, element_spec: Any = "any"):
        super().__init__(element_spec)
        # op_id -> (order_key, value); tombstones prevent resurrection if
        # an operation is ever replayed after a state restore.
        self._entries: dict[bytes, tuple[tuple, Any]] = {}
        self._tombstones: set[bytes] = set()

    def check_args(self, op: str, args: list) -> None:
        self.require_op(op)
        if len(args) != 2:
            raise InvalidOperation("set takes (value, overwrites)")
        check_type(self.element_spec, args[0])
        overwrites = args[1]
        if not isinstance(overwrites, list) or any(
            not isinstance(item, bytes) for item in overwrites
        ):
            raise InvalidOperation("overwrites must be a list of op ids")

    def apply(self, op: str, args: list, ctx: OpContext) -> None:
        self.check_args(op, args)
        value, overwrites = args
        for op_id in overwrites:
            self._entries.pop(op_id, None)
            self._tombstones.add(op_id)
        if ctx.op_id not in self._tombstones:
            self._entries[ctx.op_id] = (ctx.order_key(), value)

    def current_op_ids(self) -> list[bytes]:
        """Op ids a new ``set`` on this replica should overwrite."""
        return sorted(self._entries)

    def value(self) -> list:
        """All surviving values, ordered by (timestamp, actor, op_id)."""
        return [
            entry_value
            for _, entry_value in sorted(
                self._entries.values(), key=lambda pair: pair[0]
            )
        ]

    def canonical_state(self) -> Any:
        return [
            [op_id, self._entries[op_id][1]]
            for op_id in sorted(self._entries)
        ]
