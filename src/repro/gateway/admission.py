"""Per-client admission control: token buckets with bounded memory.

Every submitting client id gets a token bucket refilled at ``rate``
tokens/s up to ``burst``.  A request that finds the bucket empty is
refused *before* it costs the node anything, with the exact
``Retry-After`` delay until a token exists again — the 429 path the
gateway's backpressure contract promises.

Millions of distinct client ids must not translate into millions of
resident buckets: the controller keeps at most ``max_clients`` buckets
in an LRU map.  An evicted client that returns simply starts from a
fresh (full) bucket — strictness is traded for a hard memory bound,
which is the right trade at the edge (the batch queue behind it is the
global backstop either way).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Tuple

from repro.runtime import SYSTEM

DEFAULT_RATE = 50.0
DEFAULT_BURST = 100.0
DEFAULT_MAX_CLIENTS = 100_000


class TokenBucket:
    """One client's bucket; time comes from the caller."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def admit(self, now: float, cost: float = 1.0) -> float:
        """0.0 when admitted; otherwise seconds until a token exists."""
        elapsed = now - self.updated
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        # A millionth of a token is float rounding, not a shortfall: a
        # caller that waits until ready_at() is admitted then.
        if self.tokens + 1e-6 >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate

    def ready_at(self, cost: float = 1.0) -> float:
        """When the refill since the last update reaches *cost* tokens
        (at or before that update if the bucket holds them already)."""
        return self.updated + (cost - self.tokens) / self.rate


class AdmissionController:
    """Per-client-id token buckets behind one hard memory bound."""

    def __init__(
        self,
        rate: float = DEFAULT_RATE,
        burst: float = DEFAULT_BURST,
        *,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        clock: Callable[[], float] = SYSTEM.monotonic,
    ):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        if max_clients < 1:
            raise ValueError("need room for at least one client")
        self.rate = rate
        self.burst = burst
        self.max_clients = max_clients
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self.admitted = 0
        self.refused = 0
        self.evicted = 0

    def admit(self, client_id: str, cost: float = 1.0) -> Tuple[bool, float]:
        """``(admitted, retry_after_s)`` for one request."""
        now = self._clock()
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, now)
            self._buckets[client_id] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
                self.evicted += 1
        else:
            self._buckets.move_to_end(client_id)
        retry_after = bucket.admit(now, cost)
        if retry_after == 0.0:
            self.admitted += 1
            return True, 0.0
        self.refused += 1
        return False, retry_after

    @property
    def client_count(self) -> int:
        return len(self._buckets)

    def summary(self) -> dict:
        return {
            "rate": self.rate,
            "burst": self.burst,
            "clients": self.client_count,
            "admitted": self.admitted,
            "refused": self.refused,
            "evicted": self.evicted,
        }
