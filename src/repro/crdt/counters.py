"""Grow-only and positive-negative counters.

Counters partition their total across actors; concurrent increments from
different actors commute because integer addition does, and increments
from the same actor are causally ordered by the DAG.
"""

from __future__ import annotations

from typing import Any

from repro.crdt.base import CRDT, InvalidOperation, OpContext, register_crdt_type


def _check_amount(args: list, allow_any_sign: bool = False) -> int:
    if len(args) != 1:
        raise InvalidOperation("counter operations take exactly one argument")
    amount = args[0]
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise InvalidOperation("counter amount must be an integer")
    if not allow_any_sign and amount <= 0:
        raise InvalidOperation("counter amount must be positive")
    return amount


@register_crdt_type
class GCounter(CRDT):
    """Grow-only counter.  Operations: ``increment(amount > 0)``."""

    TYPE_NAME = "g_counter"
    OPERATIONS = ("increment",)

    def __init__(self, element_spec: Any = "int"):
        super().__init__(element_spec)
        self._per_actor: dict[bytes, int] = {}

    def check_args(self, op: str, args: list) -> None:
        self.require_op(op)
        _check_amount(args)

    def apply(self, op: str, args: list, ctx: OpContext) -> None:
        self.check_args(op, args)
        actor = ctx.actor.digest
        self._per_actor[actor] = self._per_actor.get(actor, 0) + args[0]

    def value(self) -> int:
        return sum(self._per_actor.values())

    def canonical_state(self) -> Any:
        return {key.hex(): total for key, total in self._per_actor.items()}


@register_crdt_type
class PNCounter(CRDT):
    """Counter supporting increment and decrement.

    Operations: ``increment(amount > 0)``, ``decrement(amount > 0)``.
    Internally two G-Counters (P and N); value is P - N.
    """

    TYPE_NAME = "pn_counter"
    OPERATIONS = ("increment", "decrement")

    def __init__(self, element_spec: Any = "int"):
        super().__init__(element_spec)
        self._positive: dict[bytes, int] = {}
        self._negative: dict[bytes, int] = {}

    def check_args(self, op: str, args: list) -> None:
        self.require_op(op)
        _check_amount(args)

    def apply(self, op: str, args: list, ctx: OpContext) -> None:
        self.check_args(op, args)
        actor = ctx.actor.digest
        table = self._positive if op == "increment" else self._negative
        table[actor] = table.get(actor, 0) + args[0]

    def value(self) -> int:
        return sum(self._positive.values()) - sum(self._negative.values())

    def canonical_state(self) -> Any:
        return [
            {key.hex(): total for key, total in self._positive.items()},
            {key.hex(): total for key, total in self._negative.items()},
        ]
