"""IOTA-style tangle baseline tests."""

from benchmarks.baselines.tangle import Tangle


class TestTangle:
    def test_genesis_is_initial_tip(self):
        tangle = Tangle()
        assert tangle.tips() == [tangle.genesis_id]

    def test_issue_approves_tips(self):
        tangle = Tangle(seed=1)
        tx = tangle.issue({"v": 1}, issuer=0, timestamp=1)
        assert tx.approves == [tangle.genesis_id]
        assert tangle.tips() == [tx.tx_id]

    def test_cumulative_weight_grows(self):
        tangle = Tangle(seed=2)
        first = tangle.issue({"v": 1}, 0, 1)
        assert tangle.cumulative_weight(first.tx_id) == 1
        tangle.issue({"v": 2}, 0, 2)
        tangle.issue({"v": 3}, 0, 3)
        assert tangle.cumulative_weight(first.tx_id) == 3

    def test_confirmation_threshold(self):
        tangle = Tangle(seed=3)
        first = tangle.issue({"v": 1}, 0, 1)
        for i in range(5):
            tangle.issue({"v": i + 2}, 0, i + 2)
        assert tangle.is_confirmed(first.tx_id, weight_threshold=5)

    def test_receive_rejects_unknown_parents(self):
        a = Tangle(seed=4)
        b = Tangle(seed=4)
        a.issue({"v": 1}, 0, 1)
        deep = a.issue({"v": 2}, 0, 2)
        assert not b.receive(deep)  # parent missing on b

    def test_merge_from_heals_partition(self):
        a = Tangle(seed=5)
        b = Tangle(seed=6)
        for i in range(4):
            a.issue({"side": "a", "i": i}, 0, i + 1)
            b.issue({"side": "b", "i": i}, 1, i + 1)
        added = a.merge_from(b)
        assert added == 4
        assert b.all_ids() <= a.all_ids()

    def test_partition_stalls_cross_confirmation(self):
        """Each side's early transactions confirm only from same-side
        weight during the partition — the §III connectivity assumption."""
        a = Tangle(seed=7)
        b = Tangle(seed=8)
        first_a = a.issue({"side": "a"}, 0, 1)
        for i in range(6):
            a.issue({"filler": i}, 0, i + 2)
            b.issue({"filler": i}, 1, i + 2)
        weight_during = a.cumulative_weight(first_a.tx_id)
        a.merge_from(b)
        # Merging alone adds no approvals of first_a: side B's
        # transactions approve their own lineage.
        assert a.cumulative_weight(first_a.tx_id) == weight_during
        # Only *new* post-heal transactions can merge the lineages.
        merged = a.issue({"post": "heal"}, 0, 100)
        assert len(merged.approves) >= 1


class TestMcmcTipSelection:
    def test_walk_reaches_tips(self):
        tangle = Tangle(seed=10)
        for i in range(8):
            tangle.issue({"i": i}, 0, i + 1)
        selected = tangle.select_tips_mcmc()
        tips = set(tangle.tips())
        assert selected
        assert all(tip in tips for tip in selected)

    def test_issue_mcmc_extends_tangle(self):
        tangle = Tangle(seed=11)
        for i in range(5):
            tangle.issue({"i": i}, 0, i + 1)
        tx = tangle.issue_mcmc({"mcmc": True}, 1, 100)
        assert tx.tx_id in tangle
        assert len(tx.approves) >= 1

    def test_high_alpha_starves_lazy_branch(self):
        # Build a heavy main chain plus one stale side transaction; a
        # strongly weighted walk should almost always land on the main
        # chain's tip rather than the lazy one.
        tangle = Tangle(seed=12)
        lazy = tangle.issue({"lazy": True}, 9, 1)
        for i in range(20):
            # Force-extend the main chain only.
            main_tips = [t for t in tangle.tips() if t != lazy.tx_id]
            approves = main_tips[:2] if main_tips else [tangle.genesis_id]
            from benchmarks.baselines.tangle import TangleTransaction
            from repro.crypto.sha import Hash

            tx_id = Hash.of_value(["main", i])
            tangle.receive(
                TangleTransaction(tx_id, {"i": i}, approves, 0, i + 2)
            )
        hits = sum(
            1 for _ in range(30)
            if lazy.tx_id in tangle.select_tips_mcmc(count=1, alpha=2.0)
        )
        assert hits <= 3

    def test_alpha_zero_is_unweighted(self):
        tangle = Tangle(seed=13)
        for i in range(6):
            tangle.issue({"i": i}, 0, i + 1)
        selected = tangle.select_tips_mcmc(alpha=0.0)
        assert all(tip in set(tangle.tips()) for tip in selected)
