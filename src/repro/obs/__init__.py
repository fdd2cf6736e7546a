"""repro.obs — deterministic observability for the whole stack.

Three dependency-free pieces:

* :mod:`repro.obs.metrics` — a registry of named Counter / Gauge /
  Histogram instruments with labels, a flat ``as_dict()`` view, and a
  Prometheus text-format exporter;
* :mod:`repro.obs.trace` — a structured trace bus emitting typed events
  (``contact.attempt``, ``session.end``, ``block.delivered``, …) to
  pluggable sinks, timestamped from the **simulation clock** so a trace
  is bit-for-bit reproducible for a given scenario seed;
* :mod:`repro.obs.analyze` — reads a trace back and computes contact
  success rates, per-protocol byte breakdowns, and block propagation
  timelines.

Two more pieces serve the **live** fleet:

* :mod:`repro.obs.live` — the per-node HTTP ops endpoint
  (``/metrics``, ``/healthz``, ``/status``);
* :mod:`repro.obs.merge` — the causal cross-node trace merger behind
  ``vegvisir trace-merge`` (happens-before stitching with pairwise
  clock-skew estimation, zero wire bytes added).

There is one way in: whoever builds a component hands it an
:class:`Observability` as ``obs=`` (default ``None``).
``Scenario(trace_path=..., metrics=True)`` makes the
:class:`~repro.sim.runner.Simulation` build one clocked by its event
loop and thread it through the gossip scheduler, metrics, topology, and
event loop; a :class:`~repro.live.node.LiveNode` passes its own to its
peer manager, anti-entropy loop, discovery service and block store.

Instrumented hot paths hold either an :class:`Observability` or
``None``; the disabled path is a single ``is not None`` attribute check
with no sink or registry calls, measured at ≤5 % overhead by
``benchmarks/test_bench_a5_obs_overhead.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.trace import (
    JsonlFileSink,
    RingBufferSink,
    TraceBus,
    TraceEvent,
    read_jsonl,
    read_jsonl_lenient,
)
from repro.obs.live import OpsServer
from repro.obs.merge import MergeResult, NodeTrace, merge_traces


class Observability:
    """One metrics registry plus one trace bus, with an enable switch."""

    __slots__ = ("enabled", "registry", "bus")

    def __init__(self, enabled: bool = True,
                 clock: Optional[Callable[[], int]] = None,
                 sinks: Iterable = (),
                 registry: Optional[MetricsRegistry] = None):
        self.enabled = bool(enabled)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.bus = TraceBus(clock=clock, sinks=sinks)

    def emit(self, event_type: str, **fields) -> None:
        """Emit one trace event (no-op while disabled)."""
        if self.enabled:
            self.bus.emit(event_type, **fields)

    def events(self) -> list[TraceEvent]:
        """In-memory events, if a ring-buffer sink is attached."""
        return self.bus.ring_events()

    def flush(self) -> None:
        self.bus.flush()

    def close(self) -> None:
        self.bus.close()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlFileSink",
    "MergeResult",
    "MetricsError",
    "MetricsRegistry",
    "NodeTrace",
    "Observability",
    "OpsServer",
    "RingBufferSink",
    "TraceBus",
    "TraceEvent",
    "merge_traces",
    "read_jsonl",
    "read_jsonl_lenient",
]
