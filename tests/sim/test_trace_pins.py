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

Re-captured twice.  First for have-pruned frontier reconciliation.
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

Then for the positional block encoding (a block is the list
``[header, signature, transactions]``, its header and transactions
lists too, with no field names).  What changed: every block's bytes,
so every block hash, every parent a later block cites, every session's
byte count and, through the link model, every session's airtime — and
with it which contacts find a radio busy.  What did not: the scenarios,
the comparison (the raw trace bytes and the sorted state digests, byte
for byte), and the protocol: the same message types, sent by the same
rules.
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
        "7d8e31c26c381eaf629fe5fddf2ebcdfc02b6aeb5dd1a7ddee674e69ad45ea69",
        "70d0bd5de5d9a4f92aefd200d9b4965dbe876003a9eacffa32e4c52f963cd9f6",
    ),
    "geo_waypoint_message": (
        "e018be63d5058c63da1f25aae42991537ad27672cad8f3c7cecfe2cc9c3c2e68",
        "cb37fd8b3ee3b1f77fbe255dcf64b868218b5a83de694510991f9356159f6da1",
    ),
    "geo_static_message": (
        "2801ae6b83a39d50d3af63311fe068f3a8825dd28483a6b82d62b2237b772bb2",
        "504f92ca200e212b5097d40b57761d697384643148ed384605449b1dfc040230",
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
