"""Nakamoto baseline tests: real mining, longest-chain, fork discard."""


from benchmarks.baselines.nakamoto import (
    NakamotoChain,
    NakamotoNetwork,
    PowBlock,
    PowMiner,
)


class TestMining:
    def test_real_mining_meets_difficulty(self):
        miner = PowMiner(0, seed=1)
        chain = NakamotoChain(difficulty_bits=8)
        block = miner.mine(chain.genesis, [{"tx": 1}], 1_000, 8)
        assert block.meets_difficulty()
        assert not block.simulated
        assert miner.attempts >= 1

    def test_real_mining_attempts_scale_with_difficulty(self):
        # Expected attempts double per bit; 30 blocks at each difficulty
        # gives a crude but stable ratio.
        def average_attempts(bits, rounds=30):
            miner = PowMiner(0, seed=2)
            chain = NakamotoChain(difficulty_bits=bits)
            prev = chain.genesis
            for i in range(rounds):
                prev = miner.mine(prev, [], i + 1, bits)
            return miner.attempts / rounds

        assert average_attempts(10) > 2.5 * average_attempts(6)

    def test_simulated_mining_counts_attempts(self):
        miner = PowMiner(0, seed=3)
        chain = NakamotoChain(difficulty_bits=24)
        block = miner.mine(chain.genesis, [], 1_000, 24)
        assert block.simulated
        assert block.meets_difficulty()  # simulated blocks self-certify
        assert miner.attempts > 1_000  # E[attempts] = 2^24

    def test_invalid_pow_rejected(self):
        chain = NakamotoChain(difficulty_bits=16)
        bogus = PowBlock(
            chain.genesis.hash, 1, 0, 1_000, nonce=0, payload=[],
            difficulty_bits=16, simulated=False,
        )
        # One specific nonce almost surely fails 16 bits of difficulty.
        if not bogus.meets_difficulty():
            assert not chain.add_block(bogus)


class TestLongestChain:
    def _mined(self, chain, miner, prev, ts):
        block = miner.mine(prev, [], ts, chain.difficulty_bits)
        assert chain.add_block(block)
        return block

    def test_longest_chain_wins(self):
        chain = NakamotoChain(difficulty_bits=4)
        miner = PowMiner(0, seed=4)
        a1 = self._mined(chain, miner, chain.genesis, 1)
        b1 = self._mined(chain, miner, chain.genesis, 2)
        b2 = self._mined(chain, miner, b1, 3)
        assert chain.tip() == b2
        assert a1.hash in {b.hash for b in chain.discarded_blocks()}

    def test_fork_discards_losing_payloads(self):
        chain = NakamotoChain(difficulty_bits=4)
        miner = PowMiner(0, seed=5)
        loser = miner.mine(chain.genesis, [{"tx": "lost"}], 1, 4)
        chain.add_block(loser)
        w1 = miner.mine(chain.genesis, [{"tx": "kept1"}], 2, 4)
        chain.add_block(w1)
        w2 = miner.mine(w1, [{"tx": "kept2"}], 3, 4)
        chain.add_block(w2)
        committed = chain.committed_payloads()
        assert {"tx": "lost"} not in committed
        assert {"tx": "kept1"} in committed

    def test_unknown_parent_rejected(self):
        chain = NakamotoChain(difficulty_bits=4)
        other = NakamotoChain(difficulty_bits=4)
        miner = PowMiner(0, seed=6)
        orphan_parent = miner.mine(other.genesis, [], 1, 4)
        orphan = miner.mine(orphan_parent, [], 2, 4)
        assert not chain.add_block(orphan)

    def test_duplicate_ignored(self):
        chain = NakamotoChain(difficulty_bits=4)
        miner = PowMiner(0, seed=7)
        block = self._mined(chain, miner, chain.genesis, 1)
        assert not chain.add_block(block)


class TestNetwork:
    def test_connected_network_converges(self):
        net = NakamotoNetwork(4, difficulty_bits=4, block_probability=0.5,
                              seed=8)
        for _ in range(20):
            net.round()
        tips = {chain.tip().hash for chain in net.chains}
        assert len(tips) == 1

    def test_partition_loses_committed_work(self):
        """The paper's core claim about Nakamoto chains under partition:
        one side's blocks are discarded at heal."""
        net = NakamotoNetwork(6, difficulty_bits=4, block_probability=0.6,
                              seed=9)
        groups = [set(range(3)), set(range(3, 6))]
        for _ in range(15):
            net.round(groups=groups)
        committed_a = set(
            map(str, net.chains[0].committed_payloads())
        )
        committed_b = set(
            map(str, net.chains[3].committed_payloads())
        )
        assert committed_a and committed_b
        for _ in range(5):
            net.round()  # healed
        survivors = set(map(str, net.chains[0].committed_payloads()))
        lost = (committed_a | committed_b) - survivors
        assert lost, "partition healing should discard one side's work"

    def test_total_attempts_accumulate(self):
        net = NakamotoNetwork(3, difficulty_bits=6, block_probability=0.5,
                              seed=10)
        for _ in range(10):
            net.round()
        assert net.total_attempts() > 0
