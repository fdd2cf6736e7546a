"""Trace analysis: turn a JSONL trace back into numbers.

``repro simulate --trace run.jsonl`` writes one canonical JSON object
per event; :func:`analyze_trace` reads such a file (or an in-memory
event list) and computes the quantities the experiments report —
per-node contact success rates, per-protocol byte/round breakdowns, and
block propagation timelines.  Because every event is emitted exactly
where the live counters increment, the analyzer's totals match the
run's :class:`~repro.sim.metrics.SimMetrics` / registry values exactly.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Optional, Union

from repro.obs.trace import TraceEvent, read_jsonl_lenient

CONTACT_OUTCOMES = ("ok", "busy", "no_neighbor", "lost", "refused")


def _as_record(event: Union[dict, TraceEvent]) -> dict:
    if isinstance(event, TraceEvent):
        return event.as_dict()
    return event


class TraceAnalysis:
    """Aggregates computed from one trace."""

    def __init__(self):
        self.node_count: Optional[int] = None
        self.seed: Optional[int] = None
        self.last_time_ms = 0
        self.event_count = 0
        #: Non-empty lines that failed to parse (crash-mid-write tails).
        self.malformed_lines = 0
        # Contacts.
        self.contact_attempts = 0
        self.attempts_by_node: dict[int, int] = {}
        self.outcome_counts: dict[str, int] = {}
        self.outcomes_by_node: dict[int, dict[str, int]] = {}
        # Sessions.
        self.sessions_by_protocol: dict[str, dict] = {}
        # Blocks.
        self.created: dict[str, dict] = {}        # hash -> {"t", "node"}
        self.deliveries: dict[str, list] = {}     # hash -> [(t, node), …]
        # Misc events.
        self.partition_changes: list[dict] = []
        self.evictions: list[dict] = []
        # Faults (repro.faults chaos runs).
        self.faults_by_kind: dict[str, int] = {}
        self.corrupt_classified: dict[str, int] = {}
        self.crashes: list[dict] = []
        self.restarts: list[dict] = []

    # -- ingestion -----------------------------------------------------

    def feed(self, event: Union[dict, TraceEvent]) -> None:
        record = _as_record(event)
        self.event_count += 1
        time_ms = record.get("t", 0)
        if time_ms > self.last_time_ms:
            self.last_time_ms = time_ms
        handler = self._HANDLERS.get(record.get("type"))
        if handler is not None:
            handler(self, record)

    def _feed_run_start(self, record: dict) -> None:
        self.node_count = record.get("nodes", self.node_count)
        self.seed = record.get("seed", self.seed)

    def _feed_attempt(self, record: dict) -> None:
        node = record["node"]
        self.contact_attempts += 1
        self.attempts_by_node[node] = self.attempts_by_node.get(node, 0) + 1

    def _feed_outcome(self, record: dict) -> None:
        node, outcome = record["node"], record["outcome"]
        self.outcome_counts[outcome] = (
            self.outcome_counts.get(outcome, 0) + 1
        )
        per_node = self.outcomes_by_node.setdefault(node, {})
        per_node[outcome] = per_node.get(outcome, 0) + 1

    def _session_entry(self, protocol: str) -> dict:
        return self.sessions_by_protocol.setdefault(protocol, {
            "sessions": 0, "rounds": 0,
            "bytes_i2r": 0, "bytes_r2i": 0,
            "messages_i2r": 0, "messages_r2i": 0,
            "blocks_pulled": 0, "blocks_pushed": 0,
            "duplicates": 0, "invalid": 0,
            "duration_ms": 0, "converged": 0,
            "interrupted": 0,
            "partial_bytes_i2r": 0, "partial_bytes_r2i": 0,
            "partial_messages": 0,
        })

    def _feed_session_end(self, record: dict) -> None:
        entry = self._session_entry(record.get("protocol", "?"))
        entry["sessions"] += 1
        for key in ("rounds", "bytes_i2r", "bytes_r2i", "messages_i2r",
                    "messages_r2i", "blocks_pulled", "blocks_pushed",
                    "duplicates", "invalid", "duration_ms"):
            # Older traces simply omit a key; .get keeps them parseable.
            entry[key] += record.get(key, 0)
        if record.get("converged"):
            entry["converged"] += 1

    def _feed_session_interrupted(self, record: dict) -> None:
        # Torn sessions keep their partial bytes/messages out of the
        # completed-session columns, but their elapsed airtime still
        # counts (it matches SimMetrics.transfer_ms_total exactly).
        entry = self._session_entry(record.get("protocol", "?"))
        entry["interrupted"] += 1
        entry["partial_bytes_i2r"] += record.get("bytes_i2r", 0)
        entry["partial_bytes_r2i"] += record.get("bytes_r2i", 0)
        entry["partial_messages"] += (
            record.get("messages_i2r", 0) + record.get("messages_r2i", 0)
        )
        entry["duration_ms"] += record.get("duration_ms", 0)

    def _feed_block_created(self, record: dict) -> None:
        block = record["block"]
        if block not in self.created:
            self.created[block] = {"t": record["t"], "node": record["node"]}
        self.deliveries.setdefault(block, []).append(
            (record["t"], record["node"])
        )

    def _feed_block_delivered(self, record: dict) -> None:
        self.deliveries.setdefault(record["block"], []).append(
            (record["t"], record["node"])
        )

    def _feed_partition_change(self, record: dict) -> None:
        self.partition_changes.append(record)

    def _feed_offload_evict(self, record: dict) -> None:
        self.evictions.append(record)

    def _feed_fault_injected(self, record: dict) -> None:
        kind = record.get("kind", "?")
        self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + 1
        classified = record.get("classified")
        if classified is not None:
            self.corrupt_classified[classified] = (
                self.corrupt_classified.get(classified, 0) + 1
            )

    def _feed_node_crashed(self, record: dict) -> None:
        self.crashes.append(record)

    def _feed_node_restarted(self, record: dict) -> None:
        self.restarts.append(record)

    _HANDLERS = {
        "run.start": _feed_run_start,
        "contact.attempt": _feed_attempt,
        "contact.outcome": _feed_outcome,
        "session.end": _feed_session_end,
        "session.interrupted": _feed_session_interrupted,
        "block.created": _feed_block_created,
        "block.delivered": _feed_block_delivered,
        "partition.change": _feed_partition_change,
        "offload.evict": _feed_offload_evict,
        "fault.injected": _feed_fault_injected,
        "node.crashed": _feed_node_crashed,
        "node.restarted": _feed_node_restarted,
    }

    # -- derived quantities --------------------------------------------

    def sessions_completed(self) -> int:
        return sum(
            entry["sessions"]
            for entry in self.sessions_by_protocol.values()
        )

    def total_bytes(self) -> int:
        return sum(
            entry["bytes_i2r"] + entry["bytes_r2i"]
            for entry in self.sessions_by_protocol.values()
        )

    def total_messages(self) -> int:
        return sum(
            entry["messages_i2r"] + entry["messages_r2i"]
            for entry in self.sessions_by_protocol.values()
        )

    def transfer_ms_total(self) -> int:
        return sum(
            entry["duration_ms"]
            for entry in self.sessions_by_protocol.values()
        )

    def sessions_interrupted(self) -> int:
        return sum(
            entry["interrupted"]
            for entry in self.sessions_by_protocol.values()
        )

    def partial_bytes_total(self) -> int:
        """Bytes spent on sessions that were later torn mid-transfer."""
        return sum(
            entry["partial_bytes_i2r"] + entry["partial_bytes_r2i"]
            for entry in self.sessions_by_protocol.values()
        )

    def faults_injected(self) -> int:
        return sum(self.faults_by_kind.values())

    def success_rate(self, node: Optional[int] = None) -> float:
        """Fraction of attempted contacts that ran a session."""
        if node is None:
            attempts = self.contact_attempts
            ok = self.outcome_counts.get("ok", 0)
        else:
            attempts = self.attempts_by_node.get(node, 0)
            ok = self.outcomes_by_node.get(node, {}).get("ok", 0)
        return ok / attempts if attempts else 0.0

    def nodes_seen(self) -> list[int]:
        nodes = set(self.attempts_by_node)
        for deliveries in self.deliveries.values():
            nodes.update(node for _, node in deliveries)
        return sorted(nodes)

    def block_timeline(self, block: str) -> list[tuple[int, int]]:
        """(time, node) first-delivery pairs, in delivery order."""
        if block not in self.deliveries:
            raise ValueError(f"unknown block hash {block!r}")
        return sorted(self.deliveries[block])

    def delivery_latencies(self, block: str) -> list[int]:
        """Per-node creation-to-delivery latency for one block."""
        if block not in self.created:
            raise ValueError(f"unknown block hash {block!r}")
        created_at = self.created[block]["t"]
        return [
            delivered_at - created_at
            for delivered_at, _ in self.deliveries.get(block, [])
        ]

    def coverage(self, block: str) -> float:
        """Fraction of the fleet that holds *block* (needs run.start)."""
        holders = len(self.deliveries.get(block, ()))
        total = self.node_count or max(len(self.nodes_seen()), 1)
        return holders / total

    # -- rendering -----------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "events": self.event_count,
            "last_time_ms": self.last_time_ms,
            "node_count": self.node_count,
            "contacts": {
                "attempted": self.contact_attempts,
                "outcomes": dict(sorted(self.outcome_counts.items())),
                "success_rate": round(self.success_rate(), 6),
            },
            "sessions": {
                protocol: dict(entry)
                for protocol, entry in sorted(
                    self.sessions_by_protocol.items()
                )
            },
            "totals": {
                "sessions": self.sessions_completed(),
                "bytes": self.total_bytes(),
                "messages": self.total_messages(),
                "transfer_ms": self.transfer_ms_total(),
                "interrupted": self.sessions_interrupted(),
                "partial_bytes": self.partial_bytes_total(),
            },
            "blocks": {
                "created": len(self.created),
                "fully_covered": sum(
                    1 for block in self.created
                    if self.node_count
                    and len(self.deliveries.get(block, ())) >= self.node_count
                ),
            },
            "malformed_lines": self.malformed_lines,
            "partition_changes": len(self.partition_changes),
            "offload_evictions": len(self.evictions),
            "faults": {
                "injected": self.faults_injected(),
                "by_kind": dict(sorted(self.faults_by_kind.items())),
                "corrupt_classified": dict(
                    sorted(self.corrupt_classified.items())
                ),
                "crashes": len(self.crashes),
                "restarts": len(self.restarts),
            },
        }

    def render(self) -> str:
        """A multi-line human-readable report."""
        lines = [
            f"trace:            {self.event_count} events, "
            f"{self.last_time_ms} ms simulated",
        ]
        if self.malformed_lines:
            lines.append(
                f"warning:          skipped {self.malformed_lines} "
                "malformed line(s) (truncated or garbled trace tail)"
            )
        if self.node_count is not None:
            lines.append(f"fleet:            {self.node_count} nodes"
                         + (f" (seed {self.seed})"
                            if self.seed is not None else ""))
        outcomes = ", ".join(
            f"{self.outcome_counts.get(outcome, 0)} {outcome}"
            for outcome in CONTACT_OUTCOMES
        )
        lines.append(
            f"contacts:         {self.contact_attempts} attempted "
            f"({outcomes})"
        )
        lines.append(
            f"contact success:  {100 * self.success_rate():.1f}%"
        )
        for protocol, entry in sorted(self.sessions_by_protocol.items()):
            lines.append(
                f"sessions[{protocol}]: {entry['sessions']} completed, "
                f"{entry['rounds']} rounds, "
                f"{entry['bytes_i2r']} B i->r + "
                f"{entry['bytes_r2i']} B r->i, "
                f"{entry['blocks_pulled']} pulled / "
                f"{entry['blocks_pushed']} pushed, "
                f"{entry['duration_ms']} ms on air"
            )
        lines.append(
            f"totals:           {self.sessions_completed()} sessions, "
            f"{self.total_bytes()} bytes, "
            f"{self.total_messages()} messages, "
            f"{self.transfer_ms_total()} ms on air"
        )
        if self.sessions_interrupted():
            lines.append(
                f"interrupted:      {self.sessions_interrupted()} sessions "
                f"torn mid-transfer, {self.partial_bytes_total()} "
                f"partial bytes"
            )
        lines.append(
            f"blocks:           {len(self.created)} created, "
            f"{sum(len(d) for d in self.deliveries.values())} deliveries"
        )
        if self.created and self.node_count:
            covered = [
                block for block in self.created
                if len(self.deliveries.get(block, ())) >= self.node_count
            ]
            lines.append(
                f"fully covered:    {len(covered)}/{len(self.created)}"
            )
            latencies = sorted(
                max(self.delivery_latencies(block))
                for block in covered
            ) if covered else []
            if latencies:
                lines.append(
                    f"full-coverage:    median "
                    f"{latencies[len(latencies) // 2]} ms, "
                    f"max {latencies[-1]} ms"
                )
        if self.partition_changes:
            lines.append(
                f"partitions:       {len(self.partition_changes)} changes"
            )
        if self.evictions:
            freed = sum(e.get("freed", 0) for e in self.evictions)
            lines.append(
                f"offload:          {len(self.evictions)} bodies evicted, "
                f"{freed} bytes freed"
            )
        if self.faults_by_kind:
            kinds = ", ".join(
                f"{count} {kind}"
                for kind, count in sorted(self.faults_by_kind.items())
            )
            lines.append(f"faults:           {kinds}")
            if self.corrupt_classified:
                classified = ", ".join(
                    f"{count} {name}"
                    for name, count in sorted(
                        self.corrupt_classified.items()
                    )
                )
                lines.append(f"corrupt rejected: {classified}")
        if self.crashes:
            cycle = ", ".join(
                f"node {crash['node']} @{crash['t']} ms"
                for crash in self.crashes
            )
            lines.append(
                f"crashes:          {len(self.crashes)} "
                f"({cycle}), {len(self.restarts)} restarted"
            )
        return "\n".join(lines)


def analyze_events(
    events: Iterable[Union[dict, TraceEvent]]
) -> TraceAnalysis:
    """Analyze an in-memory event stream (dicts or TraceEvents)."""
    analysis = TraceAnalysis()
    for event in events:
        analysis.feed(event)
    return analysis


def analyze_trace(path: Union[str, pathlib.Path]) -> TraceAnalysis:
    """Read a JSONL trace file and analyze it.

    Malformed lines (a node crashed mid-write, corruption) are skipped
    and counted in :attr:`TraceAnalysis.malformed_lines` rather than
    raising — the chaos sweep produces such files by design.
    """
    events, skipped = read_jsonl_lenient(path)
    analysis = analyze_events(events)
    analysis.malformed_lines = skipped
    return analysis
