"""The ledger's metric catalogue: names, units, bounds.

``BENCHMARK.json`` at the repository root repeats this table for the
driver; ``test_ledger.py`` checks the two agree.
"""

from __future__ import annotations

#: ``run_seconds``: the run length the workloads' repeat counts are
#: sized for.
RUN_SECONDS = 15

WORKLOADS = {
    "edge_steady": (
        "gateway + 2 replicas on program defaults under open-loop load: the "
        "client edge (HTTP, admission, batch wait) and the gossip timers "
        "own the result; reconciliation and verification do almost nothing"
    ),
    "partition_heal": (
        "writes under partition then pull+push reconciliation after heal, "
        "harness-driven sessions: write path and shallow-divergence "
        "reconciliation each do about half the work; no timers"
    ),
    "cold_join": (
        "an empty replica pulls a deep single-author chain in one session, "
        "writes, restarts: one-directional, cold verification caches, one "
        "round trip per level, plus the storage read path"
    ),
    "sim_study": (
        "32 simulated mobile nodes, no sockets, disk or gateway: sim, net, "
        "wide-frontier reconcile and the wire codec own it, so an edge or "
        "storage change must leave it flat"
    ),
}

#: name -> (unit, regression bound as a share of the parent's median).
#: All are lower-is-better.
END_TO_END = {
    "setup_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.05),
    "cpu_ms_per_block": ("ms", 0.25),
    "wire_bytes_per_block": ("B", 0.20),
    "round_trips_per_block": ("count", 0.25),
    "write_p50_ms": ("ms", 0.25),
    "deliver_p50_ms": ("ms", 0.25),
}

#: name -> (unit, which way is better).  No bounds: they attribute.
PER_LAYER = {
    "gateway.batch_wait_ms": ("ms", "lower"),
    "gateway.batch_size": ("count", "higher"),
    "gateway.admit_us": ("us", "lower"),
    "gateway.http_ms": ("ms", "lower"),
    "core.append_us": ("us", "lower"),
    "core.receive_us": ("us", "lower"),
    "chain.create_us": ("us", "lower"),
    "chain.validate_us": ("us", "lower"),
    "chain.preverify_us": ("us", "lower"),
    "chain.dag_insert_us": ("us", "lower"),
    "chain.verifycache_hit_ratio": ("ratio", "higher"),
    "crypto.sign_us": ("us", "lower"),
    "crypto.verify_us": ("us", "lower"),
    "crypto.verifies_per_block": ("count", "lower"),
    "csm.replay_us": ("us", "lower"),
    "wire.encode_us_per_kb": ("us/KB", "lower"),
    "wire.decode_us_per_kb": ("us/KB", "lower"),
    "wire.block_parse_us": ("us", "lower"),
    "storage.append_us": ("us", "lower"),
    "storage.fsync_us": ("us", "lower"),
    "storage.fsyncs_per_block": ("count", "lower"),
    "storage.bytes_per_block": ("B", "lower"),
    "storage.load_us_per_block": ("us", "lower"),
    "live.session_ms": ("ms", "lower"),
    "live.recv_wait_ms": ("ms", "lower"),
    "live.responder_us": ("us", "lower"),
    "live.sessions_per_block": ("count", "lower"),
    "live.reconnect_ms": ("ms", "lower"),
    "reconcile.merge_us_per_block": ("us", "lower"),
    "reconcile.merge_calls_per_block": ("count", "lower"),
    "reconcile.rounds_per_session": ("count", "lower"),
    "reconcile.duplicate_ratio": ("ratio", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "sim.wall_s_per_sim_min": ("s", "lower"),
    "sim.sessions_per_block": ("count", "lower"),
    "sim.contacts_busy_ratio": ("ratio", "lower"),
    "net.neighbors_us": ("us", "lower"),
    "net.neighbor_calls": ("count", "lower"),
    "net.positions_us": ("us", "lower"),
    "share.gateway": ("%", "lower"),
    "share.core": ("%", "lower"),
    "share.chain": ("%", "lower"),
    "share.crypto": ("%", "lower"),
    "share.csm": ("%", "lower"),
    "share.wire": ("%", "lower"),
    "share.storage": ("%", "lower"),
    "share.live": ("%", "lower"),
    "share.reconcile": ("%", "lower"),
    "share.net": ("%", "lower"),
    "share.untraced": ("%", "lower"),
    "host.ref_spin_ms": ("ms", "lower"),
    "host.ref_spin_iqr": ("ratio", "lower"),
    "host.ref_sync_us": ("us", "lower"),
    "host.cal_duty": ("ratio", "lower"),
    "bench.raw_wall_s": ("s", "lower"),
    "bench.loadgen_lag_ms": ("ms", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
}
