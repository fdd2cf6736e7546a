"""Majority-quorum chain baseline tests: safe but unavailable."""


from benchmarks.baselines.quorum import QuorumChain


class TestCommitment:
    def test_connected_majority_commits(self):
        chain = QuorumChain(5)
        chain.submit(0, {"tx": 1})
        assert chain.round()
        assert chain.committed_payloads(4) == [{"tx": 1}]

    def test_empty_round_commits_nothing(self):
        chain = QuorumChain(3)
        assert not chain.round()

    def test_quorum_size(self):
        assert QuorumChain(5).quorum_size() == 3
        assert QuorumChain(6).quorum_size() == 4
        assert QuorumChain(1).quorum_size() == 1

    def test_round_robin_proposers(self):
        chain = QuorumChain(3)
        for member in range(3):
            chain.submit(member, {"from": member})
        for _ in range(3):
            chain.round()
        committed = chain.committed_payloads(0)
        assert committed == [{"from": 0}, {"from": 1}, {"from": 2}]


class TestPartitionBehaviour:
    def test_minority_partition_is_unavailable(self):
        chain = QuorumChain(5)
        minority = {0, 1}
        majority = {2, 3, 4}
        chain.submit(0, {"tx": "stuck"})
        committed = chain.round(groups=[minority, majority])  # proposer 0
        assert not committed
        assert chain.commits_blocked == 1
        assert chain.committed_payloads(0) == []
        assert chain.pending_count() == 1  # nothing lost, nothing done

    def test_majority_partition_stays_live(self):
        chain = QuorumChain(5)
        minority = {0, 1}
        majority = {2, 3, 4}
        chain.submit(2, {"tx": "live"})
        chain.round(groups=[minority, majority])  # proposer 0: no payload
        chain.round(groups=[minority, majority])  # proposer 1: no payload
        assert chain.round(groups=[minority, majority])  # proposer 2
        assert chain.committed_payloads(2) == [{"tx": "live"}]
        assert chain.committed_payloads(0) == []  # minority unaware

    def test_heal_delivers_without_loss(self):
        chain = QuorumChain(5)
        minority, majority = {0, 1}, {2, 3, 4}
        chain.submit(0, {"tx": "queued-in-minority"})
        chain.submit(2, {"tx": "committed-in-majority"})
        for _ in range(5):
            chain.round(groups=[minority, majority])
        # Heal: queued minority work commits on the next full round
        # where member 0 proposes.
        for _ in range(5):
            chain.round()
        final = chain.committed_payloads(4)
        assert {"tx": "committed-in-majority"} in final
        assert {"tx": "queued-in-minority"} in final
        assert chain.consistent()

    def test_never_forks(self):
        chain = QuorumChain(4)
        for step in range(12):
            chain.submit(step % 4, {"n": step})
            groups = (
                [{0, 1}, {2, 3}] if step % 3 == 0 else None
            )
            chain.round(groups=groups)
        assert chain.consistent()

    def test_even_split_fully_stalls(self):
        chain = QuorumChain(4)
        for member in range(4):
            chain.submit(member, {"m": member})
        halves = [{0, 1}, {2, 3}]
        for _ in range(8):
            assert not chain.round(groups=halves)
        assert all(
            chain.committed_payloads(member) == [] for member in range(4)
        )
        assert chain.pending_count() == 4
