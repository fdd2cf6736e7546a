"""Simulation metrics: dissemination, contacts, branching.

:class:`PropagationTracker` records when each node first holds each
block, giving per-block coverage and delivery-latency distributions —
the paper's *Transitivity* property ("if one user learns of a
transaction, eventually all users do") made measurable.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.sha import Hash


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


class PropagationTracker:
    """First-delivery times of every block at every node."""

    def __init__(self, node_count: int, obs=None):
        self.node_count = node_count
        self._created: dict[Hash, tuple[int, int]] = {}  # hash -> (t, node)
        self._delivered: dict[Hash, dict[int, int]] = {}  # hash -> node -> t
        self._obs = obs if obs is not None and obs.enabled else None

    def record_created(self, block_hash: Hash, node_id: int,
                       time_ms: int) -> None:
        if block_hash not in self._created:
            self._created[block_hash] = (time_ms, node_id)
            self._delivered.setdefault(block_hash, {})[node_id] = time_ms
            if self._obs is not None:
                self._obs.bus.emit(
                    "block.created", block=block_hash, node=node_id
                )

    def record_delivered(self, block_hash: Hash, node_id: int,
                         time_ms: int) -> None:
        deliveries = self._delivered.setdefault(block_hash, {})
        if node_id not in deliveries:
            deliveries[node_id] = time_ms
            if self._obs is not None:
                self._obs.bus.emit(
                    "block.delivered", block=block_hash, node=node_id
                )

    def blocks(self) -> list[Hash]:
        return sorted(self._created)

    def coverage(self, block_hash: Hash) -> float:
        """Fraction of nodes holding the block."""
        return len(self._delivered.get(block_hash, {})) / self.node_count

    def full_coverage_time(self, block_hash: Hash) -> Optional[int]:
        """When the last node received the block, or None if not yet."""
        deliveries = self._delivered.get(block_hash, {})
        if len(deliveries) < self.node_count:
            return None
        return max(deliveries.values())

    def delivery_latencies(self, block_hash: Hash) -> list[int]:
        """Per-node latency from creation to first delivery."""
        if block_hash not in self._created:
            raise ValueError(
                f"unknown block hash {block_hash!r}: no creation recorded"
            )
        created_at, _ = self._created[block_hash]
        return [
            delivered_at - created_at
            for delivered_at in self._delivered.get(block_hash, {}).values()
        ]

    def fully_covered_fraction(self) -> float:
        """Fraction of created blocks known to every node."""
        if not self._created:
            return 1.0
        covered = sum(
            1 for block_hash in self._created
            if len(self._delivered.get(block_hash, {})) == self.node_count
        )
        return covered / len(self._created)

    def mean_coverage(self) -> float:
        if not self._created:
            return 1.0
        return sum(
            self.coverage(block_hash) for block_hash in self._created
        ) / len(self._created)

    def full_coverage_latencies(self) -> list[int]:
        """Creation-to-everywhere latency for fully covered blocks."""
        result = []
        for block_hash, (created_at, _) in self._created.items():
            covered_at = self.full_coverage_time(block_hash)
            if covered_at is not None:
                result.append(covered_at - created_at)
        return result


class AggregatePropagationTracker(PropagationTracker):
    """Per-block aggregates instead of per-(block, node) times.

    At city scale (10k nodes × hundreds of blocks) the full tracker's
    hash → node → time map is the largest object in the simulation.
    This variant keeps O(blocks) state — creation time, delivery count,
    last-delivery time per block — which is enough for every quantity
    the simulation report uses (coverage, fully-covered fraction,
    full-coverage latencies).  Per-node latency distributions are the
    one casualty: :meth:`delivery_latencies` raises.

    It relies on the gossip layer's call discipline (upheld by the
    insertion-order cursors in ``observe_local_blocks``): at most one
    ``record_delivered`` per (block, node).
    """

    def __init__(self, node_count: int, obs=None):
        super().__init__(node_count, obs=obs)
        # hash -> [delivered_count, last_delivered_ms]
        self._counts: dict[Hash, list[int]] = {}
        self._delivered = None  # poison the parent's per-node map

    def record_created(self, block_hash: Hash, node_id: int,
                       time_ms: int) -> None:
        if block_hash not in self._created:
            self._created[block_hash] = (time_ms, node_id)
            self._counts[block_hash] = [1, time_ms]
            if self._obs is not None:
                self._obs.bus.emit(
                    "block.created", block=block_hash, node=node_id
                )

    def record_delivered(self, block_hash: Hash, node_id: int,
                         time_ms: int) -> None:
        entry = self._counts.setdefault(block_hash, [0, time_ms])
        entry[0] += 1
        if time_ms > entry[1]:
            entry[1] = time_ms
        if self._obs is not None:
            self._obs.bus.emit(
                "block.delivered", block=block_hash, node=node_id
            )

    def coverage(self, block_hash: Hash) -> float:
        entry = self._counts.get(block_hash)
        return (entry[0] if entry else 0) / self.node_count

    def full_coverage_time(self, block_hash: Hash) -> Optional[int]:
        entry = self._counts.get(block_hash)
        if entry is None or entry[0] < self.node_count:
            return None
        return entry[1]

    def delivery_latencies(self, block_hash: Hash) -> list[int]:
        raise NotImplementedError(
            "per-node delivery latencies are not tracked in aggregate "
            "mode (Scenario(aggregate_propagation=True))"
        )

    def fully_covered_fraction(self) -> float:
        if not self._created:
            return 1.0
        covered = sum(
            1 for block_hash in self._created
            if self._counts[block_hash][0] == self.node_count
        )
        return covered / len(self._created)


class SimMetrics:
    """Aggregate counters plus the propagation tracker.

    The counters stay plain integers (the gossip hot path bumps them
    directly); :meth:`sync_registry` projects them into ``sim_*``
    instruments of a :class:`~repro.obs.metrics.MetricsRegistry` on
    demand, which is what reports and exporters read.
    """

    def __init__(self, node_count: int, obs=None,
                 aggregate_propagation: bool = False):
        self._obs = obs if obs is not None and obs.enabled else None
        self._registry = None
        tracker_cls = (
            AggregatePropagationTracker if aggregate_propagation
            else PropagationTracker
        )
        self.propagation = tracker_cls(node_count, obs=obs)
        self.contacts_attempted = 0
        self.contacts_no_neighbor = 0
        self.contacts_lost = 0
        self.contacts_refused = 0
        self.contacts_busy = 0
        # Contacts whose selected peer was crashed (fault injection).
        self.contacts_crashed = 0
        self.sessions_completed = 0
        self.session_bytes = 0
        self.session_messages = 0
        # Sessions torn mid-transfer (message-level model only): their
        # bytes/messages were spent on the air but the session never
        # settled, so they are accounted separately as "partial".
        self.sessions_interrupted = 0
        self.partial_bytes = 0
        self.partial_messages = 0
        self.transfer_ms_total = 0
        self.blocks_created = 0
        self.frontier_width_samples: list[tuple[int, int]] = []

    def record_session(self, byte_count: int, message_count: int) -> None:
        self.sessions_completed += 1
        self.session_bytes += byte_count
        self.session_messages += message_count

    def record_interrupted_session(self, byte_count: int,
                                   message_count: int) -> None:
        self.sessions_interrupted += 1
        self.partial_bytes += byte_count
        self.partial_messages += message_count

    def record_transfer_duration(self, duration_ms: int) -> None:
        self.transfer_ms_total += duration_ms

    def sample_frontier_width(self, time_ms: int, width: int) -> None:
        self.frontier_width_samples.append((time_ms, width))
        if self._obs is not None:
            self._obs.registry.histogram(
                "sim_frontier_width",
                "frontier width sampled at each append",
                buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32),
            ).observe(width)

    def max_frontier_width(self) -> int:
        if not self.frontier_width_samples:
            return 0
        return max(width for _, width in self.frontier_width_samples)

    def as_dict(self) -> dict:
        return {
            "contacts_attempted": self.contacts_attempted,
            "contacts_no_neighbor": self.contacts_no_neighbor,
            "contacts_lost": self.contacts_lost,
            "contacts_refused": self.contacts_refused,
            "contacts_busy": self.contacts_busy,
            "contacts_crashed": self.contacts_crashed,
            "sessions_completed": self.sessions_completed,
            "session_bytes": self.session_bytes,
            "session_messages": self.session_messages,
            "sessions_interrupted": self.sessions_interrupted,
            "partial_bytes": self.partial_bytes,
            "partial_messages": self.partial_messages,
            "transfer_ms_total": self.transfer_ms_total,
            "blocks_created": self.blocks_created,
            "mean_coverage": self.propagation.mean_coverage(),
            "fully_covered_fraction":
                self.propagation.fully_covered_fraction(),
        }

    def sync_registry(self, registry=None):
        """Refresh ``sim_*`` instruments from the counters and return
        the registry (the attached observability's, an explicit one, or
        a lazily created private one)."""
        if registry is None:
            if self._obs is not None:
                registry = self._obs.registry
            else:
                if self._registry is None:
                    from repro.obs.metrics import MetricsRegistry
                    self._registry = MetricsRegistry()
                registry = self._registry
        contacts = registry.counter(
            "sim_contacts_total",
            "gossip contact attempts by outcome", labels=("outcome",),
        )
        outcomes = {
            "ok": self.sessions_completed,
            "busy": self.contacts_busy,
            "no_neighbor": self.contacts_no_neighbor,
            "lost": self.contacts_lost,
            "refused": self.contacts_refused,
            "crashed": self.contacts_crashed,
            "interrupted": self.sessions_interrupted,
        }
        for outcome, count in outcomes.items():
            contacts.labels(outcome=outcome).value = count
        simple = {
            "sim_contacts_attempted_total":
                ("contact attempts (ticks that tried to gossip)",
                 self.contacts_attempted),
            "sim_sessions_total":
                ("completed reconciliation sessions",
                 self.sessions_completed),
            "sim_session_bytes_total":
                ("bytes exchanged across all sessions",
                 self.session_bytes),
            "sim_session_messages_total":
                ("messages exchanged across all sessions",
                 self.session_messages),
            "sim_sessions_interrupted_total":
                ("sessions aborted mid-transfer by link loss",
                 self.sessions_interrupted),
            "sim_session_partial_bytes_total":
                ("bytes spent on later-interrupted sessions",
                 self.partial_bytes),
            "sim_session_partial_messages_total":
                ("messages spent on later-interrupted sessions",
                 self.partial_messages),
            "sim_transfer_ms_total":
                ("milliseconds of radio airtime", self.transfer_ms_total),
            "sim_blocks_created_total":
                ("workload blocks appended", self.blocks_created),
        }
        for name, (help_text, count) in simple.items():
            registry.counter(name, help_text)._unlabeled().value = count
        gauges = {
            "sim_mean_coverage":
                ("mean fraction of nodes holding each block",
                 self.propagation.mean_coverage()),
            "sim_fully_covered_fraction":
                ("fraction of blocks known to every node",
                 self.propagation.fully_covered_fraction()),
            "sim_frontier_width_max":
                ("widest frontier sampled", self.max_frontier_width()),
        }
        for name, (help_text, value) in gauges.items():
            registry.gauge(name, help_text).set(value)
        return registry
