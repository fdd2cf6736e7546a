"""Group commit on receive, and what a crash inside a batch leaves.

``LiveNode`` writes every block of a merged batch, makes the batch
durable with one fsync, and only then announces any of it.  The store
stays a valid replica at every byte a crash can cut it at: a reader
recovers a record-aligned prefix, and the next writer appends behind
the last intact record — never behind the tear, where no reader would
find it.  That holds for a store whose tail interleaves local appends
(one record, one fsync) with the group commits of received pushes, as
a replica's does once every write is pushed.
"""

from __future__ import annotations

import hashlib
import os
from itertools import accumulate

import pytest

from repro.chain.block import Block, Transaction
from repro.chain.errors import ChainError
from repro.live import LiveNode
from repro.reconcile import FrontierProtocol
from repro.reconcile.session import Responder
from repro.storage import BlockStore, load_node

from tests.conftest import Deployment, over_loopback


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "chain.vgv"


def _chain(deployment, count):
    author = deployment.node(0)
    return [author.append_transactions([]) for _ in range(count)]


def _spy_on_fsync(monkeypatch, events: list) -> None:
    """Append ``"fsync"`` to *events* on every ``os.fsync`` from now on."""
    real_fsync = os.fsync

    def fsync(fd):
        events.append("fsync")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)


class TestTornTail:
    def test_append_after_a_tear_is_reachable(self, deployment, store_path):
        first, second, third = _chain(deployment, 3)
        with BlockStore(store_path) as store:
            store.append_all([deployment.genesis, first, second])
        store_path.write_bytes(store_path.read_bytes()[:-7])
        with BlockStore(store_path) as store:
            store.append(second)
            store.append(third)
        assert list(BlockStore(store_path).blocks()) == [
            deployment.genesis, first, second, third,
        ]

    def test_clean_store_is_not_truncated(self, deployment, store_path):
        blocks = [deployment.genesis] + _chain(deployment, 2)
        with BlockStore(store_path) as store:
            store.append_all(blocks[:2])
        before = store_path.read_bytes()
        with BlockStore(store_path) as store:
            store.append(blocks[2])
        assert store_path.read_bytes().startswith(before)
        assert list(BlockStore(store_path).blocks()) == blocks

    def test_batch_cut_at_every_byte(self, deployment, store_path):
        """Genesis is durable; a three-record batch is cut at each byte
        offset in turn.  ``load_node`` recovers exactly the records that
        are whole, and a block appended afterwards survives a reread."""
        *batch, later = _chain(deployment, 4)
        store = BlockStore(store_path)
        store.append(deployment.genesis)
        ends = [store_path.stat().st_size]
        for block in batch:
            store.append(block, sync=False)
            store.sync()
            ends.append(store_path.stat().st_size)
        store.close()
        image = store_path.read_bytes()
        assert len(image) == ends[-1]

        for cut in range(ends[0], ends[-1] + 1):
            store_path.write_bytes(image[:cut])
            whole = sum(1 for end in ends[1:] if end <= cut)
            survivors = [deployment.genesis] + batch[:whole]
            recovered = load_node(deployment.keys[1], store_path)
            assert list(recovered.dag.blocks()) == survivors, cut

            # The replica carries on from its prefix: re-pull what the
            # crash lost, then something new.
            with BlockStore(store_path, fsync=False) as reopened:
                reopened.append_all(batch[whole:] + [later])
            assert list(BlockStore(store_path).blocks()) == (
                [deployment.genesis] + batch + [later]
            ), cut
            reloaded = load_node(deployment.keys[1], store_path)
            assert reloaded.has_block(later.hash), cut

    def test_last_record_flipped_at_every_byte(self, deployment, store_path):
        """Corruption rather than a cut: each byte of the batch's last
        record (length, checksum, payload) is flipped in turn.  The
        checksum catches every one, ``load_node`` recovers exactly the
        records before it, and the replica carries on from there."""
        *batch, later = _chain(deployment, 4)
        image, last_record_at = self._batch_image(
            deployment, store_path, batch
        )
        survivors = [deployment.genesis] + batch[:-1]
        for position in range(last_record_at, len(image)):
            for flip in (0x01, 0x80, 0xFF):
                damaged = bytearray(image)
                damaged[position] ^= flip
                store_path.write_bytes(bytes(damaged))
                recovered = load_node(deployment.keys[1], store_path)
                assert list(recovered.dag.blocks()) == survivors, position
            # Re-pull what the corruption cost, then something new.
            with BlockStore(store_path, fsync=False) as reopened:
                reopened.append_all([batch[-1], later])
            assert list(BlockStore(store_path).blocks()) == (
                [deployment.genesis] + batch + [later]
            ), position

    def test_flipped_payload_under_a_matching_checksum(self, deployment,
                                                       store_path):
        """What the checksum cannot catch — a payload byte flipped and
        the record's checksum recomputed over it — is refused by
        parsing (``MalformedBlockError``) or by validation (another
        ``ChainError``): never loaded, never any other exception."""
        batch = _chain(deployment, 3)
        image, last_record_at = self._batch_image(
            deployment, store_path, batch
        )
        payload_at = last_record_at + 4 + 32
        for position in range(payload_at, len(image)):
            damaged = bytearray(image)
            damaged[position] ^= 0x01
            damaged[last_record_at + 4:payload_at] = hashlib.sha256(
                damaged[payload_at:]
            ).digest()
            store_path.write_bytes(bytes(damaged))
            with pytest.raises(ChainError):
                load_node(deployment.keys[1], store_path)

    @staticmethod
    def _batch_image(deployment, store_path, batch):
        """Genesis + *batch* on disk: the file, and where the last
        record starts."""
        with BlockStore(store_path) as store:
            store.append_all([deployment.genesis] + batch[:-1])
            last_record_at = store_path.stat().st_size
            store.append(batch[-1])
        return store_path.read_bytes(), last_record_at


class TestInterleavedTail:
    """The last :attr:`TAIL` records of a replica's store, written as
    pushes write it: each local append a record and an fsync, each
    received push batch a group commit, one handle for both."""

    #: Local appends between received batches of these sizes.
    PUSHED = (2, 1, 2)
    TAIL = 6

    @pytest.fixture
    def written(self, tmp_path):
        """The store's bytes, its blocks in record order with the end
        offset of each record, and a block written after all of them."""
        deployment = Deployment()
        writer = deployment.node(0)
        replica = LiveNode(
            deployment.keys[1], tmp_path / "replica.blocks",
            genesis=deployment.genesis, name="replica",
            runtime=deployment.runtime,
        )
        responder = Responder(
            replica.node,
            on_blocks=lambda _blocks=None: replica._persist_blocks(
                _blocks, origin="push:writer"
            ),
        )
        commits = []
        for size in self.PUSHED:
            replica.append_transactions([])
            commits.append(replica.store.path.stat().st_size)
            batch = [writer.append_transactions([]) for _ in range(size)]
            responder.handle({"type": "push_blocks", "blocks": batch})
            commits.append(replica.store.path.stat().st_size)
        replica.store.close()
        image = replica.store.path.read_bytes()
        blocks = list(replica.node.dag.blocks())
        # A record is its length (4 bytes), checksum (32) and payload.
        sizes = [4 + 32 + len(block.to_bytes()) for block in blocks]
        ends = list(accumulate(sizes, initial=len(image) - sum(sizes)))[1:]
        assert ends[-1] == len(image) and set(commits) <= set(ends)
        assert list(BlockStore(replica.store.path).blocks()) == blocks
        assert len(blocks) > self.TAIL
        later = replica.node.append_transactions([])
        return replica.store.path, image, blocks, ends, later, deployment

    @staticmethod
    def _carries_on(path, blocks, kept, later, where):
        """The replica re-pulls what it lost, then appends *later*: the
        next reader finds every block, *later* last."""
        with BlockStore(path, fsync=False) as reopened:
            reopened.append_all(blocks[kept:] + [later])
        assert list(BlockStore(path).blocks()) == blocks + [later], where

    def test_tail_cut_at_every_byte(self, written):
        path, image, blocks, ends, later, deployment = written
        for cut in range(ends[-self.TAIL - 1], ends[-1] + 1):
            path.write_bytes(image[:cut])
            kept = sum(1 for end in ends if end <= cut)
            recovered = load_node(deployment.keys[2], path)
            assert list(recovered.dag.blocks()) == blocks[:kept], cut
            self._carries_on(path, blocks, kept, later, cut)

    def test_tail_flipped_at_every_byte(self, written):
        path, image, blocks, ends, later, deployment = written
        for position in range(ends[-self.TAIL - 1], ends[-1]):
            # The record holding the byte, and every one behind it, is
            # lost; the ones before it are whole.
            kept = sum(1 for end in ends if end <= position)
            for flip in (0x01, 0x80, 0xFF):
                damaged = bytearray(image)
                damaged[position] ^= flip
                path.write_bytes(bytes(damaged))
                recovered = load_node(deployment.keys[2], path)
                assert list(recovered.dag.blocks()) == blocks[:kept], (
                    position, flip,
                )
            self._carries_on(path, blocks, kept, later, position)


class TestDeferredSync:
    def test_one_fsync_for_many_records(self, deployment, store_path,
                                        monkeypatch):
        blocks = _chain(deployment, 5)
        store = BlockStore(store_path)
        store.append(deployment.genesis)
        syncs = []
        _spy_on_fsync(monkeypatch, syncs)
        for block in blocks:
            store.append(block, sync=False)
        assert syncs == []
        store.sync()
        assert len(syncs) == 1
        store.append(_chain(deployment, 1)[0])  # the per-record default
        assert len(syncs) == 2
        store.close()
        assert BlockStore(store_path).count() == 7


class TestLiveNodeGroupCommit:
    def _joiner(self, deployment, tmp_path):
        return LiveNode(
            deployment.keys[1], tmp_path / "joiner.blocks",
            genesis=deployment.genesis, name="joiner",
        )

    def test_one_fsync_per_batch_then_the_listener(self, tmp_path,
                                                   monkeypatch):
        deployment = Deployment()
        batch = _chain(deployment, 6)
        joiner = self._joiner(deployment, tmp_path)
        events = []
        _spy_on_fsync(monkeypatch, events)

        def listener(block, origin):
            # Announced means durable: the block is already readable
            # from the file by someone else.
            on_disk = list(BlockStore(joiner.store.path).blocks())
            assert block in on_disk
            events.append(origin)

        joiner.block_listener = listener
        for block in batch[:4]:
            joiner.node.receive_block(block)
        joiner._persist_blocks(origin="pull:source")
        assert events == ["fsync"] + ["pull:source"] * 4

        # Nothing new: no write, no fsync, no announcement.
        joiner._persist_blocks(origin="pull:source")
        assert len(events) == 5

        # A local write is still one block, one fsync.
        del events[:]
        joiner.append_transactions([])
        assert events == ["fsync", "local"]
        joiner.store.close()

    def test_a_pulled_chain_shares_one_fsync(self, tmp_path, monkeypatch):
        deployment = Deployment()
        source = deployment.node(0)
        for _ in range(20):
            source.append_transactions([])
        joiner = self._joiner(deployment, tmp_path)
        batches, announced, syncs = [], [], []
        joiner.block_listener = lambda block, origin: announced.append(origin)
        persist = joiner._pull_sink("source")

        def on_blocks(blocks):
            batches.append(len(blocks))
            persist(blocks)

        _spy_on_fsync(monkeypatch, syncs)

        stats = over_loopback(
            FrontierProtocol(), joiner.node, source, on_blocks=on_blocks
        )
        assert stats.converged and stats.rounds == 1
        assert batches == [20] and len(syncs) == 1
        assert announced == ["pull:source"] * 20
        joiner.store.close()
        assert BlockStore(joiner.store.path).count() == 21

    def test_a_pulled_block_is_stored_as_its_writer_stored_it(self, tmp_path):
        deployment = Deployment()
        writer = LiveNode(
            deployment.keys[0], tmp_path / "writer.blocks",
            genesis=deployment.genesis, name="writer",
            runtime=deployment.runtime,
        )
        for reading in range(5):
            writer.append_transactions(
                [Transaction("events", "append", [{"reading": reading}])]
            )
        joiner = self._joiner(deployment, tmp_path)
        stats = over_loopback(FrontierProtocol(), joiner.node, writer.node)
        assert stats.blocks_pulled == 5
        joiner._persist_blocks(origin="pull:writer")
        for node in (writer, joiner):
            node.store.close()
        # Same blocks in the same order, so the same file: the joiner
        # re-encoded every block itself and arrived at the writer's bytes.
        assert (
            joiner.store.path.read_bytes() == writer.store.path.read_bytes()
        )

    def test_listener_failure_does_not_rewrite_the_batch(self, tmp_path):
        deployment = Deployment()
        batch = _chain(deployment, 3)
        joiner = self._joiner(deployment, tmp_path)

        def listener(block, origin):
            raise RuntimeError("subscriber went away")

        joiner.block_listener = listener
        for block in batch:
            joiner.node.receive_block(block)
        with pytest.raises(RuntimeError):
            joiner._persist_blocks()
        joiner.block_listener = None
        joiner._persist_blocks()
        joiner.store.close()
        assert list(BlockStore(joiner.store.path).blocks()) == (
            [deployment.genesis] + batch
        )

    def test_restart_parses_the_store_once(self, tmp_path, monkeypatch):
        deployment = Deployment()
        batch = _chain(deployment, 8)
        first = self._joiner(deployment, tmp_path)
        for block in batch:
            first.node.receive_block(block)
        first._persist_blocks()
        first.store.close()

        parsed = []
        real_from_bytes = Block.from_bytes.__func__
        monkeypatch.setattr(
            Block, "from_bytes",
            classmethod(lambda cls, data: (
                parsed.append(1), real_from_bytes(cls, data)
            )[1]),
        )
        again = LiveNode(deployment.keys[1], tmp_path / "joiner.blocks")
        assert len(parsed) == 1 + len(batch)
        assert again.status()["persisted"] == len(again.node.dag) == 9
        # The cursor is right: a new block is appended once, after them.
        again.append_transactions([])
        again.store.close()
        assert BlockStore(again.store.path).count() == 10

    def test_torn_genesis_is_rewritten_in_place(self, tmp_path):
        deployment = Deployment()
        path = tmp_path / "joiner.blocks"
        first = self._joiner(deployment, tmp_path)
        first.store.close()
        path.write_bytes(path.read_bytes()[:-5])
        again = self._joiner(deployment, tmp_path)
        again.append_transactions([])
        again.store.close()
        reloaded = load_node(deployment.keys[1], path)
        assert len(reloaded.dag) == 2
