"""Adversarial reconciliation: malicious responders cannot poison a DAG."""

import pytest

from repro.chain.block import Block
from benchmarks.protocols.bloom import BloomFilter
from repro.reconcile.session import merge_blocks
from repro.crypto.keys import KeyPair


class TestMergeDefenses:
    def test_forged_block_dropped(self, deployment):
        node = deployment.node(0)
        stranger = KeyPair.deterministic(950)
        forged = Block.create(
            stranger, [deployment.genesis.hash], deployment.clock() + 1
        )
        result = merge_blocks(node, [forged])
        assert result.invalid == 1
        assert not node.has_block(forged.hash)
        assert result.complete

    def test_tampered_signature_dropped(self, deployment):
        node = deployment.node(0)
        good = deployment.node(1).append_transactions([])
        tampered = Block(good.header, good.transactions, b"\x01" * 64)
        result = merge_blocks(node, [tampered])
        assert result.invalid == 1
        assert not node.has_block(tampered.hash)

    def test_orphan_block_quarantined_not_inserted(self, deployment):
        node = deployment.node(0)
        peer = deployment.node(1)
        first = peer.append_transactions([])
        second = peer.append_transactions([])
        result = merge_blocks(node, [second])
        assert not result.complete
        assert first.hash in result.missing_parents
        assert not node.has_block(second.hash)

    def test_out_of_order_batch_inserted(self, deployment):
        node = deployment.node(0)
        peer = deployment.node(1)
        blocks = [peer.append_transactions([]) for _ in range(4)]
        result = merge_blocks(node, list(reversed(blocks)))
        assert result.complete
        assert len(result.added) == 4

    def test_duplicates_counted(self, deployment):
        node = deployment.node(0)
        block = deployment.node(1).append_transactions([])
        merge_blocks(node, [block])
        result = merge_blocks(node, [block, block])
        assert result.duplicates == 2
        assert result.complete

    def test_mixed_batch(self, deployment):
        node = deployment.node(0)
        peer = deployment.node(1)
        good = peer.append_transactions([])
        stranger = KeyPair.deterministic(951)
        forged = Block.create(
            stranger, [deployment.genesis.hash], deployment.clock() + 1
        )
        result = merge_blocks(node, [forged, good])
        assert result.invalid == 1
        assert len(result.added) == 1
        assert node.has_block(good.hash)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter.for_capacity(100, 0.01)
        items = [bytes([i, i + 1]) * 16 for i in range(0, 200, 2)]
        for item in items:
            bf.add(item)
        assert all(item in bf for item in items)

    def test_false_positive_rate_roughly_respected(self):
        bf = BloomFilter.for_capacity(500, 0.01)
        for i in range(500):
            bf.add(i.to_bytes(4, "big"))
        false_positives = sum(
            1 for i in range(500, 10_500)
            if i.to_bytes(4, "big") in bf
        )
        assert false_positives / 10_000 < 0.05

    def test_wire_roundtrip(self):
        bf = BloomFilter.for_capacity(10)
        bf.add(b"element")
        restored = BloomFilter.from_wire(bf.to_wire())
        assert b"element" in restored
        assert b"other" in restored or b"other" not in restored  # total

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(4, 1)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)

    def test_capacity_sizing_monotone(self):
        small = BloomFilter.for_capacity(10, 0.01)
        large = BloomFilter.for_capacity(1000, 0.01)
        assert large.bit_count > small.bit_count
