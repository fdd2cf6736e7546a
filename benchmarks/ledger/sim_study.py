"""sim_study: the researcher's workload — 32 simulated mobile nodes.

No sockets, no disk, no gateway: random-waypoint mobility in a 200 x
200 m field, 60 m radios (about nine neighbours each, four or five hops
across), 1 s gossip, an append every 5 s per node, frontier
reconciliation in atomic sessions.  Half a simulated minute warms the
run up (counted in ``setup_s``), the measured stretch advances in slices
of simulated seconds, and a quiescence run with the workload stopped
must bring every block to every node.

The mobility trace is a constant of the workload, like the three-node
mesh of the live workloads; ``--seed`` drives keys, payloads, append
phases and every gossip draw.  (With the trace seeded too, one seed in
four starts with node 0 out of range and appends almost nothing for
minutes — a different workload, not a noisier one.)
"""

from __future__ import annotations

import time

from benchmarks.ledger import common
from benchmarks.ledger.calibrate import Calibrator
from benchmarks.ledger.harness import Tally
from repro.chain.block import Transaction
from repro.net.mobility import RandomWaypoint
from repro.net.topology import GeometricTopology
from repro.sim.runner import WORKLOAD_CRDT, Simulation
from repro.sim.scenario import Scenario

NAME = "sim_study"
NODES = 32
FIELD_M = 200.0
RADIO_M = 60.0
MOBILITY_SEED = 7
WARMUP_MS = 30_000
SLICE_MS = 2_000
SLICES = 50
QUIESCENCE_STEP_MS = 10_000
QUIESCENCE_CAP_MS = 120_000
WRITE_PASSES = 8


def _scenario(seed: int) -> Scenario:
    def topology(node_count: int):
        return GeometricTopology(
            RandomWaypoint(node_count, FIELD_M, FIELD_M, speed_mps=1.4,
                           pause_ms=5_000, seed=MOBILITY_SEED),
            radio_range_m=RADIO_M,
        )

    return Scenario(
        node_count=NODES, topology_factory=topology,
        gossip_interval_ms=1_000, append_interval_ms=5_000,
        payload_bytes=64, session_model="atomic", seed=seed,
        crypto_backend="cryptography",
    )


def _setup(cfg, rep: int, cal: Calibrator):
    box = []
    total = cal.run_slice(
        lambda: box.append(Simulation(_scenario(cfg.seed * 8 + rep)))
    ).cal_wall_s
    sim = box[0]
    # Simulation.run starts gossip and the workload; later slices only
    # advance the same loop.
    total += cal.run_slice(lambda: sim.run(SLICE_MS)).cal_wall_s
    for end in range(2 * SLICE_MS, WARMUP_MS + 1, SLICE_MS):
        total += cal.run_slice(
            lambda end=end: sim.loop.run_until(end)
        ).cal_wall_s
    return sim, total


def run(cfg) -> dict:
    setup_cal = Calibrator()
    setups = []
    for rep in range(cfg.setup_repeats):
        setup_cal.forget()
        sim, seconds = _setup(cfg, rep, setup_cal)
        setups.append(seconds)

    cal = Calibrator()
    tally = Tally()
    slices = cfg.count(SLICES)
    metrics = sim.metrics
    before = metrics.as_dict()
    events0 = sim.loop.events_run
    blocks0 = len(metrics.propagation.blocks())
    held0 = sum(len(node.dag) for node in sim.fleet.nodes.values())
    with cfg.window(tally):
        window0 = time.perf_counter()
        for _ in range(slices):
            end = sim.loop.now + SLICE_MS
            tally.add_slice(cal.run_slice(lambda: sim.loop.run_until(end)))
        window_wall = time.perf_counter() - window0
    after = metrics.as_dict()
    events = sim.loop.events_run - events0
    measured = len(metrics.propagation.blocks()) - blocks0
    tally.deliveries = (
        sum(len(node.dag) for node in sim.fleet.nodes.values()) - held0
    )
    tally.remote_deliveries = tally.deliveries - measured

    # Correctness: with the workload stopped, gossip must drain.
    quiesced = 0
    while quiesced < QUIESCENCE_CAP_MS and not sim.converged():
        sim.run_quiescence(QUIESCENCE_STEP_MS)
        quiesced += QUIESCENCE_STEP_MS
    tracker = metrics.propagation
    created = tracker.blocks()
    failed = sum(
        1 for block_hash in created
        if tracker.full_coverage_time(block_hash) is None
    )
    if not sim.converged():
        failed = max(failed, 1)

    # Writes on every node of the now wide-frontier DAG, one pass over
    # the nodes per slice.
    for sequence in range(WRITE_PASSES):
        raw: list[float] = []

        def writes() -> None:
            for node_id in sorted(sim.fleet.nodes):
                tx = Transaction(WORKLOAD_CRDT, "append", [
                    {"node": node_id, "seq": -1 - sequence,
                     "data": bytes(64)}
                ])
                start = time.perf_counter()
                sim.fleet.nodes[node_id].append_transactions([tx])
                raw.append(time.perf_counter() - start)

        piece = cal.run_slice(writes)
        tally.write_ms.extend(r * piece.scale * 1000.0 for r in raw)

    sessions = after["sessions_completed"] - before["sessions_completed"]
    tally.sessions = sessions
    tally.session_bytes = after["session_bytes"] - before["session_bytes"]
    # Two messages make one request/reply exchange.
    tally.session_rounds = (
        after["session_messages"] - before["session_messages"]
    ) / 2.0
    tally.deliver_ms = [float(v) for v in tracker.full_coverage_latencies()]
    sim_minutes = slices * SLICE_MS / 60_000.0
    contacts = after["contacts_attempted"] - before["contacts_attempted"]
    tally.extra.update({
        "sim_events_per_s": events / max(tally.cal_wall_s, 1e-9),
        "sim_wall_s_per_sim_min": tally.cal_wall_s / sim_minutes,
        "sim_sessions_per_block": sessions / max(1, measured),
        "sim_contacts_busy_ratio": (
            (after["contacts_busy"] - before["contacts_busy"])
            / max(1, contacts)
        ),
        "sim_blocks_total": len(created),
        "sim_quiescence_ms": quiesced,
        "sim_blocks_measured": measured,
    })
    sim.close()
    return cfg.result(
        NAME, tally, cal, setups=setups, window_wall_s=window_wall,
        attempted=len(created), failed=failed,
    )
