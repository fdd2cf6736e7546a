"""Pinned-trace regression: the scale refactor changed nothing.

The GOLDEN hashes below were captured on the pre-refactor tree (before
the spatial index, struct-of-arrays mobility, epoch timers, and lite
fleets existed) by running these exact scenarios and hashing (a) the
raw bytes of the JSONL event trace and (b) the sorted per-node state
digests.  Post-refactor runs must reproduce them byte for byte: the
spatial index is always on for geometric topologies, so any float,
ordering, or RNG drift it introduced would show up here immediately.

If a future change *legitimately* alters simulation behaviour (a new
event type in traces, a protocol change), re-capture the constants in
the same commit and say so — never loosen the comparison.

Re-captured once, for PR 18 (have-pruned frontier reconciliation).
What changed: the frontier protocol's wire — ``get_frontier`` carries
the initiator's frontier hashes, ``frontier_set`` the responder's
frontier as hashes plus only the bodies the initiator can lack — so
every session of all three scenarios (all run ``frontier``) moves
different bytes in a different number of messages, contacts that were
refused as busy now run, and blocks appended after them cite different
parents.  What did not: the scenarios, the comparison (still the raw
trace bytes and the sorted state digests, byte for byte), and the
properties the pins stand for — the spatial index against the O(n²)
oracle is held by ``tests/net``, unchanged and green.
"""

import hashlib
import pathlib

import pytest

from repro.net.links import LinkModel
from repro.net.mobility import RandomWaypoint, StaticPlacement
from repro.net.topology import GeometricTopology
from repro.sim import Scenario, Simulation

GOLDEN = {
    "geo_waypoint_atomic": (
        "203dcce5c8e673a11f92ef25343e61673c0671ae87467e12433f8ce9964e1989",
        "271522b6c65c5d47956d076dc1953f4b8d87831e75710d5c19c73d15b8929248",
    ),
    "geo_waypoint_message": (
        "af6d548c60ef43b35505f6bf093e801960bbb42513150cac007a1fb867955811",
        "ac693a0eb06e314decdc2f34442f3910a14adfd80c0123f0d8fba788b94aca13",
    ),
    "geo_static_message": (
        "dea5133fcb6d16b05381e01ebba40746987ea067864429d560b2e5e943ed4e13",
        "1f74886dd09c3aab51187a513328948df23dc9317a0a84ef6f8d8614e55fd1ab",
    ),
}


def geo_waypoint(node_count):
    return GeometricTopology(
        RandomWaypoint(node_count, 300, 300, speed_mps=8.0,
                       pause_ms=2_000, seed=11),
        radio_range_m=120,
    )


def geo_static(node_count):
    return GeometricTopology(
        StaticPlacement(node_count, 250, 250, seed=5), radio_range_m=110
    )


CASES = {
    "geo_waypoint_atomic": dict(
        node_count=8, duration_ms=20_000, append_interval_ms=4_000,
        seed=3, topology_factory=geo_waypoint, session_model="atomic",
    ),
    "geo_waypoint_message": dict(
        node_count=6, duration_ms=15_000, append_interval_ms=3_000,
        seed=7, topology_factory=geo_waypoint, session_model="message",
        link=LinkModel(bandwidth_bytes_per_ms=200, setup_latency_ms=5,
                       seed=7 ^ 0x11),
    ),
    "geo_static_message": dict(
        node_count=7, duration_ms=15_000, append_interval_ms=3_000,
        seed=13, topology_factory=geo_static, session_model="message",
    ),
}


def run_case(tmp_path: pathlib.Path, **kwargs) -> tuple[str, str]:
    trace = tmp_path / "trace.jsonl"
    scenario = Scenario(trace_path=trace, **kwargs)
    sim = Simulation(scenario).run()
    sim.run_quiescence(5_000)
    sim.close()
    trace_digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    states = sorted(
        node.state_digest().hex() for node in sim.fleet.nodes.values()
    )
    state_digest = hashlib.sha256("".join(states).encode()).hexdigest()
    return trace_digest, state_digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_and_state_byte_identical_to_pre_refactor(name, tmp_path):
    trace_digest, state_digest = run_case(tmp_path, **CASES[name])
    expected_trace, expected_state = GOLDEN[name]
    assert trace_digest == expected_trace, (
        f"{name}: event trace diverged from the pre-refactor pin"
    )
    assert state_digest == expected_state, (
        f"{name}: final node states diverged from the pre-refactor pin"
    )
