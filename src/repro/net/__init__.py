"""Discrete-event ad-hoc network substrate (S12).

The paper's target environment — battery-powered devices meeting
opportunistically over Bluetooth/WiFi-Direct — is simulated by a
discrete-event loop (:mod:`repro.net.events`), node placement and radio-
range connectivity (:mod:`repro.net.topology`), mobility models
(:mod:`repro.net.mobility`), scripted partitions
(:mod:`repro.net.partitions`), and a link model for loss, latency, and
bandwidth (:mod:`repro.net.links`).

This substitutes for the paper's Android/Bluetooth prototype: the
protocol code only ever sees "who are my neighbors now" and "exchange
these bytes with that neighbor", which is exactly the interface real
radios provide.
"""

from repro.net.events import EventLoop
from repro.net.links import LinkModel
from repro.net.mobility import (
    GridPlacement,
    MobilityModel,
    RandomWaypoint,
    StaticPlacement,
)
from repro.net.partitions import PartitionSchedule, PartitionedTopology
from repro.net.spatial import NeighborIndex
from repro.net.topology import (
    FullMeshTopology,
    GeometricTopology,
    StaticTopology,
    Topology,
)

__all__ = [
    "EventLoop",
    "FullMeshTopology",
    "GeometricTopology",
    "GridPlacement",
    "LinkModel",
    "MobilityModel",
    "NeighborIndex",
    "PartitionSchedule",
    "PartitionedTopology",
    "RandomWaypoint",
    "StaticPlacement",
    "StaticTopology",
    "Topology",
]
