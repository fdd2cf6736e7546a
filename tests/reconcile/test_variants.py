"""Protocol variants: what hash-first bought, now the frontier protocol's
default exchange."""


from repro.reconcile import FrontierProtocol


def _diverged(deployment, left_appends, right_appends):
    left = deployment.node(0)
    right = deployment.node(1)
    shared = left.append_transactions([])
    right.receive_block(shared)
    for _ in range(left_appends):
        left.append_transactions([])
    for _ in range(right_appends):
        right.append_transactions([])
    return left, right


class TestHashFirstFrontier:
    """The first exchange is hashes both ways: equal replicas move no
    body, and the hashes ride the first request instead of costing a
    round of their own."""

    def test_identical_replicas_cost_collapses(self, deployment):
        left, right = _diverged(deployment, 0, 0)
        FrontierProtocol().run(left, right)
        assert left.dag.frontier_width() == 1
        again = FrontierProtocol().run(left, right)
        assert again.converged
        assert again.blocks_transferred == 0
        assert again.total_bytes < 200

    def test_divergence_still_converges(self, deployment):
        left, right = _diverged(deployment, 3, 5)
        stats = FrontierProtocol().run(left, right)
        assert stats.converged
        assert left.state_digest() == right.state_digest()

    def test_initiator_ahead_pushes_after_hash_round(self, deployment):
        left, right = _diverged(deployment, 5, 0)
        stats = FrontierProtocol().run(left, right)
        assert stats.converged
        assert stats.rounds == 1
        assert stats.blocks_pulled == 0
        assert stats.blocks_pushed == 5
        assert left.dag.hashes() == right.dag.hashes()

    def test_behind_replica_pays_no_extra_round(self, deployment):
        left, right = _diverged(deployment, 0, 4)
        stats = FrontierProtocol().run(left, right)
        assert stats.converged
        assert stats.rounds == 1
        assert stats.blocks_pulled == 4
        assert stats.duplicate_blocks == 0
