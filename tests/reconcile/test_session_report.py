"""What a finished session reports: ``ReconcileStats.session_fields``
and ``SessionCounters``, the one definition under the simulator's
``session.end`` and the live loop's ``session.completed``."""

from repro.obs.metrics import MetricsRegistry
from repro.reconcile.stats import (
    INITIATOR_TO_RESPONDER,
    RESPONDER_TO_INITIATOR,
    ReconcileStats,
    SessionCounters,
)


def _session(protocol="sketch") -> ReconcileStats:
    stats = ReconcileStats(protocol)
    stats.record_raw(INITIATOR_TO_RESPONDER, 100)
    stats.record_raw(RESPONDER_TO_INITIATOR, 40)
    stats.record_raw(RESPONDER_TO_INITIATOR, 2)
    stats.rounds = 2
    stats.blocks_pulled = 3
    stats.duplicate_blocks = 1
    return stats


def test_fields_omit_the_newer_counters_while_zero():
    fields = _session().session_fields()
    assert fields == {
        "protocol": "sketch", "rounds": 2,
        "bytes_i2r": 100, "bytes_r2i": 42,
        "messages_i2r": 1, "messages_r2i": 2,
        "blocks_pulled": 3, "blocks_pushed": 0,
        "duplicates": 1, "invalid": 0,
    }


def test_completed_and_interrupted_fold_into_separate_families():
    registry = MetricsRegistry()
    counters = SessionCounters(registry)
    counters.completed(_session())
    counters.interrupted(_session())
    labels = dict(protocol="sketch")
    assert registry.value("reconcile_sessions_total", **labels) == 1
    assert registry.value("reconcile_rounds_total", **labels) == 2
    assert registry.value(
        "reconcile_bytes_total", direction="r->i", **labels
    ) == 42
    assert registry.value(
        "reconcile_messages_total", direction="r->i", **labels
    ) == 2
    assert registry.value(
        "reconcile_sessions_interrupted_total", **labels
    ) == 1
    assert registry.value(
        "reconcile_partial_bytes_total", direction="i->r", **labels
    ) == 100
    # Kinds that stayed zero leave no series behind.
    kinds = {
        key for key in registry.as_dict()
        if key.startswith("reconcile_blocks_total")
    }
    assert kinds == {
        'reconcile_blocks_total{protocol="sketch",kind="pulled"}',
        'reconcile_blocks_total{protocol="sketch",kind="duplicate"}',
    }


def test_two_counter_objects_share_one_registry():
    """The simulator and a live node may fold into the same registry:
    the families are registered once, not once per caller."""
    registry = MetricsRegistry()
    SessionCounters(registry).completed(_session())
    SessionCounters(registry).completed(_session())
    assert registry.value("reconcile_sessions_total", protocol="sketch") == 2
