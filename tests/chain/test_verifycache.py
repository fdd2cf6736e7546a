"""Verified-block LRU correctness.

The load-bearing properties: a cached verdict is never returned for a
different block hash, corrupt blocks are never cached as valid, and the
cache actually prevents re-verification when the same block arrives
through many nodes in one process.
"""

from __future__ import annotations

import pytest

from repro.chain.block import Block, Transaction
from repro.chain.errors import SignatureInvalidError
from repro.chain.verifycache import VerifiedBlockCache, shared_cache
from repro.reconcile import FrontierProtocol


def _block(deployment, index=0, payload="x"):
    node = deployment.node(index)
    return node, node.append_transactions(
        [Transaction("__crdts__", "noop", [payload])]
    )


class TestVerifiedBlockCache:
    def test_put_get_roundtrip(self):
        cache = VerifiedBlockCache(capacity=4)
        cache.put(b"a" * 32, True)
        cache.put(b"b" * 32, False)
        assert cache.get(b"a" * 32) is True
        assert cache.get(b"b" * 32) is False
        assert cache.get(b"c" * 32) is None
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            VerifiedBlockCache(capacity=0)

    def test_lru_eviction_order(self):
        cache = VerifiedBlockCache(capacity=2)
        cache.put(b"a" * 32, True)
        cache.put(b"b" * 32, True)
        assert cache.get(b"a" * 32) is True  # refresh a
        cache.put(b"c" * 32, True)  # evicts b, the least recent
        assert cache.get(b"b" * 32) is None
        assert cache.get(b"a" * 32) is True
        assert cache.get(b"c" * 32) is True
        assert cache.evictions == 1

    def test_verdict_never_crosses_block_hashes(self, deployment):
        """A cached verdict for one block is not returned for another
        block by the same signer — distinct hashes, distinct entries."""
        cache = VerifiedBlockCache()
        node = deployment.node(0)
        first = node.append_transactions([Transaction("__crdts__", "a", [])])
        second = node.append_transactions([Transaction("__crdts__", "b", [])])
        assert first.hash != second.hash
        key = node.key_pair.public_key
        assert cache.verify_block(key, first) is True
        # Only `first`'s hash is cached; `second` must be computed
        # (and must not inherit first's verdict slot).
        assert second.hash not in cache
        assert cache.verify_block(key, second) is True
        assert len(cache) == 2

    def test_corrupt_block_never_cached_as_valid(self, deployment):
        cache = VerifiedBlockCache()
        node, block = _block(deployment)
        key = node.key_pair.public_key
        forged = Block(
            block.header, block.transactions,
            bytes(64),  # a signature that cannot verify
        )
        assert forged.hash != block.hash
        assert cache.verify_block(key, forged) is False
        # The False verdict is cached — under the forged block's OWN
        # hash, where it can never vouch for the genuine block.
        assert cache.get(forged.hash) is False
        assert cache.verify_block(key, block) is True

    def test_cache_hit_skips_backend(self, deployment):
        cache = VerifiedBlockCache()
        node, block = _block(deployment)
        key = node.key_pair.public_key
        assert cache.verify_block(key, block) is True
        assert cache.verify_block(key, block) is True
        assert cache.verify_block(key, block) is True
        # One backend verification (the miss), then pure hits.
        assert cache.misses == 1
        assert cache.hits == 2

    def test_preverify_batches_only_missing(self, deployment):
        cache = VerifiedBlockCache()
        node = deployment.node(0)
        blocks = [
            node.append_transactions([Transaction("__crdts__", "n", [i])])
            for i in range(3)
        ]
        key = node.key_pair.public_key
        cache.preverify([(key, blocks[0])])
        assert len(cache) == 1
        cache.preverify([(key, block) for block in blocks])
        assert len(cache) == 3
        for block in blocks:
            assert cache.get(block.hash) is True

    def test_clear_resets_everything(self):
        cache = VerifiedBlockCache()
        cache.put(b"a" * 32, True)
        cache.get(b"a" * 32)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0


class TestValidatorIntegration:
    def test_invalid_signature_still_raises_with_cache(self, deployment):
        node = deployment.node(0)
        other = deployment.node(1)
        good = node.append_transactions([Transaction("__crdts__", "n", [])])
        forged = Block(good.header, good.transactions, bytes(64))
        with pytest.raises(SignatureInvalidError):
            other.receive_block(forged)
        # Re-offering the same forged block fails again (cached False).
        with pytest.raises(SignatureInvalidError):
            other.receive_block(forged)
        # The genuine block is unaffected by the forged one's verdict.
        other.receive_block(good)

    def test_shared_cache_deduplicates_across_nodes(self, deployment):
        """A block replicated to n in-process nodes verifies once."""
        shared = shared_cache()
        shared.clear()
        author = deployment.node(0)
        block = author.append_transactions(
            [Transaction("__crdts__", "n", ["shared"])]
        )
        baseline_misses = shared.misses
        receivers = [deployment.node(i) for i in (1, 2, 3)]
        for receiver in receivers:
            receiver.receive_block(block)
        # The signature was computed at most once for all three replicas
        # (the first receive misses; the rest hit).
        assert shared.misses - baseline_misses <= 1
        assert shared.get(block.hash) is True

    def test_reconcile_pair_still_converges(self, deployment):
        shared_cache().clear()
        a = deployment.node(0)
        b = deployment.node(1)
        for i in range(5):
            a.append_transactions([Transaction("__crdts__", "n", [i])])
        stats = FrontierProtocol(push=True).run(b, a)
        assert stats.blocks_pulled == 5
        assert {h for h in a.dag.hashes()} == {h for h in b.dag.hashes()}
