"""Targeted message-fault behaviour: one fault type at a time, at
probability 1.0, so every session deterministically exercises it."""

import json

from repro import wire
from repro.faults import FaultInjector
from repro.faults.plan import FaultPlan, FlapWindow, LinkFaults
from repro.reconcile.session import lower
from repro.sim import Scenario, Simulation

from tests.conftest import Deployment


def _run(faults, *, duration_ms=15_000, quiescence_ms=10_000, **kwargs):
    scenario = Scenario(
        node_count=4, duration_ms=duration_ms, append_interval_ms=4_000,
        seed=11, session_model="message", faults=faults, **kwargs,
    )
    simulation = Simulation(scenario).run()
    simulation.run_quiescence(quiescence_ms)
    return simulation


def test_drop_kills_every_session_until_cease(tmp_path):
    plan = FaultPlan(
        seed=11, default_link=LinkFaults(drop=1.0), cease_ms=15_000
    )
    simulation = _run(plan)
    counters = simulation.fault_injector.counters
    assert counters.dropped > 0
    # Every session that got a first message on the air died to it...
    assert simulation.metrics.sessions_completed > 0  # post-cease only
    assert simulation.metrics.sessions_interrupted == counters.dropped
    # ...yet once faults cease, gossip drains to convergence (liveness).
    assert simulation.converged(sorted(simulation.fleet.nodes))
    simulation.close()


def test_corruption_always_rejected_and_exactly_classified():
    plan = FaultPlan(
        seed=11, default_link=LinkFaults(corrupt=1.0), cease_ms=15_000
    )
    simulation = _run(plan)
    counters = simulation.fault_injector.counters
    assert counters.corrupted > 0
    # The headline invariant: every corrupted frame lands in exactly
    # one rejection bucket, and none ever becomes an accepted block.
    assert counters.corrupted == (
        counters.wire_decode_errors + counters.validation_rejects
    )
    assert counters.corrupt_blocks_accepted == 0
    assert simulation.converged(sorted(simulation.fleet.nodes))
    simulation.close()


def test_touched_blocks_are_found_by_their_bytes():
    """A lowered step carries each block as its encoding; the injector
    picks out the decoded entries whose bytes a flip reached."""
    deployment = Deployment()
    author = deployment.node(0)
    blocks = [author.append_transactions([]) for _ in range(3)]
    step = lower({"type": "blocks", "blocks": blocks})
    frame = wire.encode(step)
    assert FaultInjector._changed_blocks(wire.decode(frame), step) == []

    # Inside the second block's signature: the frame still decodes, to
    # a message differing in exactly that block.
    damaged = bytearray(frame)
    damaged[frame.index(blocks[1].signature) + 5] ^= 0x01
    decoded = wire.decode(bytes(damaged))
    assert FaultInjector._changed_blocks(decoded, step) == [
        decoded["blocks"][1]
    ]


def test_duplicates_waste_bytes_but_sessions_complete():
    plan = FaultPlan(
        seed=11, default_link=LinkFaults(duplicate=1.0), cease_ms=15_000
    )
    simulation = _run(plan)
    counters = simulation.fault_injector.counters
    assert counters.duplicated > 0
    assert counters.duplicate_bytes > 0
    assert counters.dropped == 0
    # Duplicates only waste airtime; sessions complete under them.
    assert simulation.metrics.sessions_completed > 0
    assert simulation.converged(sorted(simulation.fleet.nodes))
    simulation.close()


def test_reorder_delays_but_sessions_complete():
    plan = FaultPlan(
        seed=11, default_link=LinkFaults(reorder=1.0), cease_ms=15_000
    )
    simulation = _run(plan)
    counters = simulation.fault_injector.counters
    assert counters.reordered > 0
    assert simulation.metrics.sessions_completed > 0
    assert simulation.converged(sorted(simulation.fleet.nodes))
    simulation.close()


def test_blackout_flap_blocks_contacts_and_tears_sessions():
    plan = FaultPlan(
        seed=11,
        flaps=[FlapWindow("*", "*", 2_000, 9_000)],
        cease_ms=15_000,
    )
    simulation = _run(plan)
    assert simulation.fault_injector.counters.flaps > 0
    assert simulation.metrics.contacts_lost > 0
    assert simulation.converged(sorted(simulation.fleet.nodes))
    simulation.close()


def test_fault_events_and_registry_projection(tmp_path):
    trace = tmp_path / "faults.jsonl"
    plan = FaultPlan(
        seed=11,
        default_link=LinkFaults(drop=0.3, corrupt=0.2, duplicate=0.2),
        cease_ms=15_000,
    )
    simulation = _run(plan, trace_path=trace)
    counters = simulation.fault_injector.counters
    simulation.close()

    events = [
        json.loads(line)
        for line in trace.read_text().splitlines() if line
    ]
    injected = [e for e in events if e["type"] == "fault.injected"]
    assert len(injected) == counters.injected_total
    kinds = {e["kind"] for e in injected}
    assert "drop" in kinds
    # Corrupt events carry their rejection classification.
    for event in injected:
        if event["kind"] == "corrupt":
            assert event["classified"] in (
                "decode_error", "validation_reject"
            )

    registry = simulation.registry()
    injected_counter = registry.counter(
        "faults_injected_total",
        "message/link faults injected by kind", labels=("kind",),
    )
    assert injected_counter.labels(kind="drop").value == counters.dropped
    corrupted = registry.counter(
        "faults_corrupted_total", "frames byte-corrupted in flight"
    ).value
    decode_errors = registry.counter(
        "wire_decode_errors_total",
        "corrupted frames rejected by the wire codec",
    ).value
    rejects = registry.counter(
        "validation_rejects_total",
        "corrupted frames rejected by session/block validation",
    ).value
    assert corrupted == counters.corrupted
    assert corrupted == decode_errors + rejects


def test_lossy_link_override_only_affects_that_pair():
    plan = FaultPlan(
        seed=11,
        links={(0, 1): LinkFaults(drop=1.0)},
        cease_ms=15_000,
    )
    simulation = _run(plan)
    counters = simulation.fault_injector.counters
    # Faults fired on the one lossy pair; other links carried traffic.
    assert counters.dropped > 0
    assert simulation.metrics.sessions_completed > 0
    assert simulation.converged(sorted(simulation.fleet.nodes))
    simulation.close()
