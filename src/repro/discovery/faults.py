"""Fault injection for beacon datagrams.

Discovery rides an unreliable datagram channel, so its faults are
simpler than the session-level ones in :mod:`repro.faults.injector`:
a beacon can be dropped, duplicated, corrupted, or delivered late —
there is no session to tear down and no block to corrupt.  Crucially,
beacon faults must NOT feed the reconciliation fault counters: the
chaos harness asserts ``corrupted == wire_decode_errors +
validation_rejects`` over *session* traffic, and a corrupted beacon is
accounted by the discovery directory instead (as a ``malformed`` or
``bad_signature`` rejection).  :class:`BeaconFaultFilter` therefore
keeps its own RNG stream and its own counters.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

#: Salt for the filter's RNG stream — independent of the link
#: (0x5EED), gossip (0x60551B), workload (0xC0FFEE), and injector
#: (0xFA017) streams, so enabling beacon faults never perturbs them.
BEACON_FAULT_SALT = 0xBEAC0

#: How late a duplicated or reordered beacon lands, in ms (inclusive).
BEACON_DELAY_SPAN_MS = (5, 80)


class BeaconFaultFilter:
    """Applies at most one fault per beacon datagram.

    :meth:`apply` maps one datagram to a list of ``(delay_ms,
    payload)`` deliveries: ``[]`` for a drop, two entries for a
    duplicate, a mutated payload for corruption, a delayed single entry
    for a reorder, and the identity ``[(0, datagram)]`` when no fault
    fires.  Both runtimes honour the delays — the sim schedules them on
    its event loop, the live service on asyncio timers.
    """

    def __init__(
        self,
        drop: float = 0.0,
        duplicate: float = 0.0,
        corrupt: float = 0.0,
        reorder: float = 0.0,
        seed: int = 0,
    ):
        for name, value in (("drop", drop), ("duplicate", duplicate),
                            ("corrupt", corrupt), ("reorder", reorder)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, "
                                 f"got {value!r}")
        self.drop = drop
        self.duplicate = duplicate
        self.corrupt = corrupt
        self.reorder = reorder
        self._rng = random.Random(seed ^ BEACON_FAULT_SALT)
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.reordered = 0
        self.passed = 0

    def any(self) -> bool:
        """Whether any fault can ever fire (the zero filter is inert)."""
        return (self.drop + self.duplicate + self.corrupt
                + self.reorder) > 0.0

    def apply(self, datagram: bytes) -> List[Tuple[int, bytes]]:
        """One datagram in, zero or more ``(delay_ms, payload)`` out."""
        if not self.any():
            self.passed += 1
            return [(0, datagram)]
        draw = self._rng.random()
        if draw < self.drop:
            self.dropped += 1
            return []
        draw -= self.drop
        if draw < self.duplicate:
            self.duplicated += 1
            return [(0, datagram), (self._delay(), datagram)]
        draw -= self.duplicate
        if draw < self.corrupt:
            self.corrupted += 1
            return [(0, self._flip(datagram))]
        draw -= self.corrupt
        if draw < self.reorder:
            self.reordered += 1
            return [(self._delay(), datagram)]
        self.passed += 1
        return [(0, datagram)]

    def counters(self) -> dict:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "reordered": self.reordered,
            "passed": self.passed,
        }

    def _delay(self) -> int:
        return self._rng.randint(*BEACON_DELAY_SPAN_MS)

    def _flip(self, datagram: bytes) -> bytes:
        """Flip 1–4 random bytes — enough to break the signature (or
        the structure), never enough to look like a different valid
        beacon."""
        mutated = bytearray(datagram)
        if not mutated:
            return bytes(mutated)
        for _ in range(self._rng.randint(1, 4)):
            index = self._rng.randrange(len(mutated))
            mutated[index] ^= self._rng.randint(1, 255)
        return bytes(mutated)


def filter_from_plan(plan, seed: Optional[int] = None) -> BeaconFaultFilter:
    """Derive a beacon filter from a session-level fault plan.

    Uses the plan's default link probabilities so ``--faults plan.json``
    can degrade discovery and reconciliation together, while keeping
    the RNG streams (and counters) fully separate.
    """
    link = plan.default_link
    return BeaconFaultFilter(
        drop=link.drop,
        duplicate=link.duplicate,
        corrupt=link.corrupt,
        reorder=link.reorder,
        seed=plan.seed if seed is None else seed,
    )
