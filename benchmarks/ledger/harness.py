"""Run configuration, the per-window tally, and the result record."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
from typing import Optional

from benchmarks.ledger import common
from benchmarks.ledger.calibrate import Calibrator, Slice
from benchmarks.ledger.metrics import RUN_SECONDS
from benchmarks.ledger.spans import LAYERS, Recorder
from repro.chain.verifycache import shared_cache

SMOKE_SCALE = 0.1
SETUP_REPEATS = 3


class Tally:
    """What one measured window did, in calibrated time and counts."""

    def __init__(self):
        self.slices = 0
        self.raw_wall_s = 0.0
        self.raw_cpu_s = 0.0
        self.cal_wall_s = 0.0
        self.cal_cpu_s = 0.0
        self.write_ms: list[float] = []
        self.deliver_ms: list[float] = []
        self.reconnect_ms: list[float] = []
        self.deliveries = 0          # author included
        self.remote_deliveries = 0
        self.sessions = 0
        self.session_bytes = 0
        self.session_rounds = 0
        self.blocks_moved = 0
        self.duplicates = 0
        self.extra: dict = {}

    def add_slice(self, piece: Slice) -> None:
        self.slices += 1
        self.raw_wall_s += piece.wall_s
        self.raw_cpu_s += piece.cpu_s
        self.cal_wall_s += piece.cal_wall_s
        self.cal_cpu_s += piece.cal_cpu_s

    def add_session(self, stats) -> None:
        self.sessions += 1
        self.session_bytes += stats.total_bytes
        self.session_rounds += stats.rounds
        self.blocks_moved += stats.blocks_pulled + stats.blocks_pushed
        self.duplicates += stats.duplicate_blocks


class Config:
    """One child run: which seed, how much work, traced or not.

    *share* is the part of a ``--seconds`` run this child does: the
    traced pass splits one run between an untraced and a traced child.
    """

    def __init__(self, seed: int, seconds: float, traced: bool = False,
                 smoke: bool = False, share: float = 1.0):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.smoke = smoke
        self.scale = (seconds / RUN_SECONDS) * share * (
            SMOKE_SCALE if smoke else 1.0
        )
        #: ``setup_s`` is the median of this many whole set-ups; a child
        #: whose ``setup_s`` nobody reads sets up once.
        self.setup_repeats = SETUP_REPEATS if self.scale >= 1.0 else 1
        self.recorder: Optional[Recorder] = Recorder() if traced else None
        self.backend = common.pin_backend()

    @property
    def duration_s(self) -> float:
        """Length of a time-scheduled load."""
        return RUN_SECONDS * self.scale

    def count(self, nominal: int, floor: int = 1) -> int:
        """Work is fixed by count: *nominal* repeats (rounds, joins,
        slices) scaled by the run length.  What one repeat does —
        history depth, appends per round — never scales."""
        return max(floor, round(nominal * self.scale))

    @contextlib.contextmanager
    def window(self, tally: Tally):
        """The measured window: the span shim (traced pass only) is
        installed for exactly this stretch, and the shared verification
        cache's hit/miss counters are read at its two edges."""
        cache = shared_cache()
        before = cache.stats()
        if self.recorder is not None:
            self.recorder.install()
        try:
            yield
        finally:
            if self.recorder is not None:
                self.recorder.restore()
            after = cache.stats()
            tally.extra["verifycache"] = {
                key: after[key] - before[key] for key in ("hits", "misses")
            }

    # -- the result record -------------------------------------------------

    def result(self, workload: str, tally: Tally, cal: Calibrator, *,
               setups: list[float], window_wall_s: float, attempted: int,
               failed: int) -> dict:
        remote = max(1, tally.remote_deliveries)
        deliveries = max(1, tally.deliveries)
        end_to_end = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cpu_ms_per_block": tally.cal_cpu_s * 1000.0 / deliveries,
            "wire_bytes_per_block": tally.session_bytes / remote,
            "round_trips_per_block": tally.session_rounds / remote,
            "write_p50_ms": common.median(tally.write_ms),
            "deliver_p50_ms": common.median(tally.deliver_ms),
        }
        record = {
            "workload": workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "smoke": self.smoke,
            "traced": self.traced,
            "backend": self.backend,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "ops_attempted": attempted,
            "ops_failed": failed,
            "end_to_end": end_to_end,
            "samples": {
                "setup_s": len(setups),
                "write_p50_ms": len(tally.write_ms),
                "deliver_p50_ms": len(tally.deliver_ms),
                "slices": tally.slices,
                "block_deliveries": tally.deliveries,
                "remote_deliveries": tally.remote_deliveries,
                "sessions": tally.sessions,
            },
            "counts": {
                "session_bytes": tally.session_bytes,
                "session_rounds": tally.session_rounds,
                "blocks_moved": tally.blocks_moved,
                "duplicates": tally.duplicates,
            },
            "window": {
                "raw_wall_s": window_wall_s,
                "cal_wall_s": tally.cal_wall_s,
                "cal_cpu_s": tally.cal_cpu_s,
            },
            "host": cal.host_metrics(window_wall_s),
            "extra": tally.extra,
        }
        if self.recorder is not None:
            record["per_layer"] = per_layer(
                self.recorder, tally, cal, window_wall_s
            )
        return record


def _per(total_s: float, count: float, scale: float) -> float:
    return total_s * scale / count if count else 0.0


def per_layer(recorder: Recorder, tally: Tally, cal: Calibrator,
              window_wall_s: float) -> dict:
    """Every per-layer metric, from the spans and the window's counts.

    Span times are raw seconds of this host scaled by the window's mean
    CPU factor (spans are too short to calibrate one by one); the fsync
    span, which mostly waits, by the window's mean wait factor.
    """
    host = cal.host_metrics(window_wall_s)
    factor, wait_factor = cal.mean_factors()
    get = recorder.get
    deliveries = max(1, tally.deliveries)
    remote = max(1, tally.remote_deliveries)
    us, ms = 1e6 * factor, 1e3 * factor

    def each(name: str, scale: float) -> float:
        span = get(name)
        return _per(span.busy_s, span.count, scale)

    def self_each(name: str, scale: float) -> float:
        span = get(name)
        return _per(span.self_s, span.count, scale)

    merge = get("reconcile.merge")
    added = merge.units.get("added", 0.0)
    offered = merge.units.get("offered", 0.0)
    verifies = get("crypto.verify").count
    fsync = get("storage.fsync")
    append = get("storage.append")
    load = get("storage.load")
    session = get("live.session")
    recv = get("live.recv_wait")
    extra = tally.extra
    cache = extra.get("verifycache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out = {
        "gateway.batch_wait_ms": common.median(recorder.batch_wait_ms),
        "gateway.batch_size": (
            statistics.fmean(recorder.batch_sizes)
            if recorder.batch_sizes else 0.0
        ),
        "gateway.admit_us": each("gateway.admit", us),
        "gateway.http_ms": common.median(recorder.http_ms),
        "core.append_us": self_each("core.append", us),
        "core.receive_us": self_each("core.receive", us),
        "chain.create_us": each("chain.create", us),
        "chain.validate_us": each("chain.validate", us),
        "chain.preverify_us": each("chain.preverify", us),
        "chain.dag_insert_us": each("chain.dag_insert", us),
        "chain.verifycache_hit_ratio": (
            cache.get("hits", 0) / lookups if lookups else 0.0
        ),
        "crypto.sign_us": each("crypto.sign", us),
        "crypto.verify_us": each("crypto.verify", us),
        "crypto.verifies_per_block": verifies / deliveries,
        "csm.replay_us": each("csm.replay", us),
        "wire.encode_us_per_kb": _per(
            get("wire.encode").busy_s,
            get("wire.encode").units.get("units", 0.0), us),
        "wire.decode_us_per_kb": _per(
            get("wire.decode").busy_s,
            get("wire.decode").units.get("units", 0.0), us),
        "wire.block_parse_us": each("wire.block_parse", us),
        "storage.append_us": each("storage.append", us),
        "storage.fsync_us": each("storage.fsync", 1e6 * wait_factor),
        "storage.fsyncs_per_block": fsync.count / deliveries,
        "storage.bytes_per_block": _per(
            append.units.get("units", 0.0), append.count, 1.0),
        "storage.load_us_per_block": _per(
            load.busy_s, extra.get("blocks_loaded", 0), us),
        "live.session_ms": _per(session.wall_s, session.count, ms),
        "live.recv_wait_ms": _per(
            recv.wall_s - recv.busy_s, recv.count, ms),
        "live.responder_us": each("live.responder", us),
        "live.sessions_per_block": tally.sessions / remote,
        "live.reconnect_ms": common.median(tally.reconnect_ms),
        "reconcile.merge_us_per_block": _per(merge.busy_s, added, us),
        "reconcile.merge_calls_per_block": (
            merge.count / added if added else 0.0
        ),
        "reconcile.rounds_per_session": (
            tally.session_rounds / tally.sessions if tally.sessions else 0.0
        ),
        "reconcile.duplicate_ratio": (
            merge.units.get("duplicates", 0.0) / offered if offered else 0.0
        ),
        "sim.events_per_s": extra.get("sim_events_per_s", 0.0),
        "sim.wall_s_per_sim_min": extra.get("sim_wall_s_per_sim_min", 0.0),
        "sim.sessions_per_block": extra.get("sim_sessions_per_block", 0.0),
        "sim.contacts_busy_ratio": extra.get("sim_contacts_busy_ratio", 0.0),
        "net.neighbors_us": each("net.neighbors", us),
        "net.neighbor_calls": float(get("net.neighbors").count),
        "net.positions_us": each("net.positions", us),
        "host.ref_spin_ms": host["host.ref_spin_ms"],
        "host.ref_spin_iqr": host["host.ref_spin_iqr"],
        "host.ref_sync_us": host["host.ref_sync_us"],
        "host.cal_duty": host["host.cal_duty"],
        "bench.raw_wall_s": window_wall_s,
        "bench.loadgen_lag_ms": extra.get("loadgen_lag_ms", 0.0),
    }
    # Shares of the measured window (spins taken out), by self time.
    measured = max(1e-9, tally.raw_wall_s)
    shares = recorder.layer_self_s()
    traced = 0.0
    for layer in LAYERS:
        out[f"share.{layer}"] = 100.0 * shares[layer] / measured
        traced += shares[layer]
    out["share.untraced"] = max(0.0, 100.0 * (1.0 - traced / measured))
    out["bench.spans"] = float(
        sum(a.count for a in recorder.aggregates.values())
    )
    return out
