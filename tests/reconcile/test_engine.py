"""Resumable session engine tests.

The acceptance property of the message-level model: a session may be
aborted between *any* two wire messages without raising, without leaving
either replica's DAG missing a parent, and with its partial stats
intact (``interrupted=True``, totals no larger than an uninterrupted
run's).
"""

import pytest

from repro.reconcile import ReconcileSession, drive_to_completion
from repro.reconcile.stats import (
    INITIATOR_TO_RESPONDER,
    RESPONDER_TO_INITIATOR,
)

from benchmarks.protocols import PROTOCOLS

# The shipped protocol and every study protocol run these tests.
ALL_PROTOCOLS = list(PROTOCOLS.values())


def _diverge(deployment, left_appends=5, right_appends=3):
    left = deployment.node(0)
    right = deployment.node(1)
    shared = left.append_transactions([])
    right.receive_block(shared)
    for _ in range(left_appends):
        left.append_transactions([])
    for _ in range(right_appends):
        right.append_transactions([])
    return left, right


def _assert_parent_closed(node):
    """Every block's parents are present — nothing dangling."""
    for block in node.dag.blocks():
        for parent in block.parents:
            assert node.has_block(parent)


@pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS)
class TestSessionStepping:
    def test_stepping_matches_blocking_run(self, protocol_cls):
        from tests.conftest import Deployment

        left, right = _diverge(Deployment())
        blocking = protocol_cls().run(*_diverge(Deployment()))
        session = ReconcileSession(protocol_cls(), left, right)
        steps = []
        while True:
            step = session.next_step()
            if step is None:
                break
            steps.append(step)
        assert session.done
        assert session.stats.converged
        assert not session.stats.interrupted
        assert session.stats.as_dict() == blocking.as_dict()
        assert left.state_digest() == right.state_digest()
        # Step accounting: sizes sum to the stats byte totals.
        assert sum(s.size for s in steps) == session.stats.total_bytes
        assert len(steps) == session.stats.total_messages

    def test_step_directions_and_sizes(self, deployment, protocol_cls):
        left, right = _diverge(deployment)
        session = ReconcileSession(protocol_cls(), left, right)
        step = session.next_step()
        assert step is not None
        assert step.direction in (
            INITIATOR_TO_RESPONDER, RESPONDER_TO_INITIATOR
        )
        assert step.from_initiator == (
            step.direction == INITIATOR_TO_RESPONDER
        )
        assert step.size > 0
        assert isinstance(step.message, dict)

    def test_next_step_after_done_returns_none(self, deployment,
                                               protocol_cls):
        left, right = _diverge(deployment)
        session = ReconcileSession(protocol_cls(), left, right)
        while session.next_step() is not None:
            pass
        assert session.next_step() is None
        assert session.next_step() is None

    def test_abort_at_every_step_is_safe(self, protocol_cls):
        """Cut the session at every possible message boundary."""
        from tests.conftest import Deployment

        # Total step count from one uninterrupted run.
        probe = ReconcileSession(
            protocol_cls(), *_diverge(Deployment())
        )
        total_steps = 0
        while probe.next_step() is not None:
            total_steps += 1
        full = probe.stats
        assert total_steps > 0

        for cut in range(total_steps + 1):
            left, right = _diverge(Deployment())
            session = ReconcileSession(protocol_cls(), left, right)
            for _ in range(cut):
                assert session.next_step() is not None
            session.abort()
            assert session.done
            assert session.stats.interrupted
            assert session.next_step() is None
            # Partial totals never exceed the uninterrupted run's.
            assert session.stats.total_bytes <= full.total_bytes
            assert session.stats.total_messages == cut
            # Neither replica is ever left structurally invalid.
            _assert_parent_closed(left)
            _assert_parent_closed(right)
            left.state_digest()
            right.state_digest()

    def test_abort_is_idempotent(self, deployment, protocol_cls):
        left, right = _diverge(deployment)
        session = ReconcileSession(protocol_cls(), left, right)
        session.next_step()
        session.abort()
        session.abort()
        assert session.stats.interrupted

    def test_abort_before_first_step(self, deployment, protocol_cls):
        left, right = _diverge(deployment)
        session = ReconcileSession(protocol_cls(), left, right)
        session.abort()
        assert session.done
        assert session.stats.interrupted
        assert session.stats.total_bytes == 0

    def test_completed_session_abort_keeps_converged(self, deployment,
                                                     protocol_cls):
        left, right = _diverge(deployment)
        session = ReconcileSession(protocol_cls(), left, right)
        while session.next_step() is not None:
            pass
        session.abort()  # late abort is a no-op
        assert session.stats.converged
        assert not session.stats.interrupted

    def test_drive_to_completion_equals_run(self, protocol_cls):
        from tests.conftest import Deployment

        left_a, right_a = _diverge(Deployment())
        left_b, right_b = _diverge(Deployment())
        via_run = protocol_cls().run(left_a, right_a)
        via_drive = drive_to_completion(protocol_cls(), left_b, right_b)
        assert via_run.as_dict() == via_drive.as_dict()
        assert left_a.state_digest() == left_b.state_digest()

    def test_interrupted_flag_in_as_dict(self, deployment, protocol_cls):
        left, right = _diverge(deployment)
        session = ReconcileSession(protocol_cls(), left, right)
        session.next_step()
        session.abort()
        assert session.stats.as_dict()["interrupted"] is True
