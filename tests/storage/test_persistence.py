"""Block store and node save/load tests, including crash tolerance."""

import pytest

from repro.chain.block import MAX_ARG_DEPTH, Transaction
from repro.storage import BlockStore, StorageError, load_node, save_node


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "chain.vgv"


class TestBlockStore:
    def test_roundtrip(self, deployment, store_path):
        node = deployment.node(0)
        blocks = [deployment.genesis] + [
            node.append_transactions([]) for _ in range(5)
        ]
        store = BlockStore(store_path)
        store.append_all(blocks)
        restored = list(BlockStore(store_path).blocks())
        assert restored == blocks

    def test_the_deepest_legal_args_load_from_the_store(self, deployment,
                                                         store_path):
        args = 0
        for _ in range(MAX_ARG_DEPTH - 1):
            args = [args]
        block = deployment.node(0).append_transactions(
            [Transaction("x", "y", args)]
        )
        BlockStore(store_path).append_all([deployment.genesis, block])
        restored = list(BlockStore(store_path).blocks())
        assert restored == [deployment.genesis, block]
        assert restored[1].transactions[0].args == args

    def test_count(self, deployment, store_path):
        store = BlockStore(store_path)
        assert store.count() == 0
        store.append(deployment.genesis)
        assert store.count() == 1

    def test_reopen_appends(self, deployment, store_path):
        node = deployment.node(0)
        first = BlockStore(store_path)
        first.append(deployment.genesis)
        second = BlockStore(store_path)
        second.append(node.append_transactions([]))
        assert BlockStore(store_path).count() == 2

    def test_bad_magic_rejected(self, store_path):
        store_path.write_bytes(b"not a store file")
        with pytest.raises(StorageError):
            BlockStore(store_path)

    def test_torn_tail_ignored(self, deployment, store_path):
        node = deployment.node(0)
        store = BlockStore(store_path)
        store.append(deployment.genesis)
        store.append(node.append_transactions([]))
        # Simulate a power loss mid-write: truncate the last record.
        data = store_path.read_bytes()
        store_path.write_bytes(data[:-7])
        survivors = list(BlockStore(store_path).blocks())
        assert survivors == [deployment.genesis]

    def test_corrupt_record_stops_iteration(self, deployment, store_path):
        store = BlockStore(store_path)
        store.append(deployment.genesis)
        data = bytearray(store_path.read_bytes())
        data[-3] ^= 0xFF  # flip a bit inside the block payload
        store_path.write_bytes(bytes(data))
        assert list(BlockStore(store_path).blocks()) == []


class TestPersistentHandle:
    """Appends reuse one file handle; close() is explicit and safe."""

    def test_handle_reused_across_appends(self, deployment, store_path):
        node = deployment.node(0)
        store = BlockStore(store_path)
        store.append(deployment.genesis)
        handle = store._writer
        assert handle is not None and not handle.closed
        store.append(node.append_transactions([]))
        assert store._writer is handle  # same handle, not reopened
        assert store.count() == 2

    def test_close_is_idempotent(self, deployment, store_path):
        store = BlockStore(store_path)
        store.close()  # nothing open yet
        store.append(deployment.genesis)
        store.close()
        store.close()
        assert store._writer is None

    def test_append_after_close_reopens(self, deployment, store_path):
        node = deployment.node(0)
        store = BlockStore(store_path)
        store.append(deployment.genesis)
        store.close()
        store.append(node.append_transactions([]))
        assert BlockStore(store_path).count() == 2

    def test_context_manager_closes(self, deployment, store_path):
        with BlockStore(store_path) as store:
            store.append(deployment.genesis)
            handle = store._writer
            assert not handle.closed
        assert handle.closed
        assert store._writer is None

    def test_reads_see_unclosed_appends(self, deployment, store_path):
        # Every append flushes, so a concurrent reader (or the same
        # store's blocks()) sees all acknowledged records even while
        # the writer handle stays open.
        node = deployment.node(0)
        store = BlockStore(store_path)
        store.append(deployment.genesis)
        store.append(node.append_transactions([]))
        assert len(list(store.blocks())) == 2

    def test_torn_tail_recovery_with_open_handle(self, deployment,
                                                 store_path):
        """The crash-recovery property survives the refactor: tear the
        last record while the writer handle is still open."""
        node = deployment.node(0)
        store = BlockStore(store_path)
        store.append(deployment.genesis)
        store.append(node.append_transactions([]))
        data = store_path.read_bytes()
        store.close()
        store_path.write_bytes(data[:-7])
        survivors = list(BlockStore(store_path).blocks())
        assert survivors == [deployment.genesis]


class TestNodeSaveLoad:
    def test_state_survives_reboot(self, deployment, store_path):
        node = deployment.node(0)
        node.create_crdt("log", "append_log", "str", {"append": "*"})
        node.append_transactions(
            [Transaction("log", "append", ["before reboot"])]
        )
        save_node(node, store_path)
        rebooted = load_node(
            deployment.keys[0], store_path, clock=deployment.clock
        )
        assert rebooted.state_digest() == node.state_digest()
        assert rebooted.crdt_value("log") == ["before reboot"]

    def test_reboot_then_continue_appending(self, deployment, store_path):
        node = deployment.node(0)
        node.create_crdt("log", "append_log", "str", {"append": "*"})
        save_node(node, store_path)
        rebooted = load_node(
            deployment.keys[0], store_path, clock=deployment.clock
        )
        rebooted.append_transactions(
            [Transaction("log", "append", ["after reboot"])]
        )
        assert rebooted.crdt_value("log") == ["after reboot"]

    def test_reboot_with_clock_reset(self, deployment, store_path):
        # The device clock resets to a value far before the stored
        # blocks' timestamps; loading must still validate them.
        node = deployment.node(0)
        for _ in range(3):
            node.append_transactions([])
        save_node(node, store_path)
        rebooted = load_node(deployment.keys[0], store_path, clock=lambda: 1)
        assert len(rebooted.dag) == len(node.dag)

    def test_reboot_then_reconcile(self, deployment, store_path):
        node = deployment.node(0)
        node.create_crdt("log", "append_log", "str", {"append": "*"})
        save_node(node, store_path)
        rebooted = load_node(
            deployment.keys[0], store_path, clock=deployment.clock
        )
        peer = deployment.node(1)
        from repro.reconcile.frontier import FrontierProtocol

        stats = FrontierProtocol().run(peer, rebooted)
        assert stats.converged
        assert peer.state_digest() == rebooted.state_digest()

    def test_empty_store_rejected(self, deployment, store_path):
        BlockStore(store_path)  # header only
        with pytest.raises(StorageError):
            load_node(deployment.keys[0], store_path)

    def test_non_genesis_first_rejected(self, deployment, store_path):
        node = deployment.node(0)
        block = node.append_transactions([])
        store = BlockStore(store_path)
        store.append(block)  # child without its genesis
        with pytest.raises(StorageError):
            load_node(deployment.keys[0], store_path)

    def test_tampered_store_rejected_on_load(self, deployment, store_path):
        """A store with a forged block fails validation at load, rather
        than loading silently-wrong state."""
        from repro.chain.block import Block
        from repro.chain.errors import ValidationError
        from repro.crypto.keys import KeyPair

        node = deployment.node(0)
        save_node(node, store_path)
        stranger = KeyPair.deterministic(1234)
        forged = Block.create(
            stranger, [deployment.genesis.hash], deployment.clock() + 1
        )
        BlockStore(store_path).append(forged)
        with pytest.raises(ValidationError):
            load_node(deployment.keys[0], store_path,
                      clock=deployment.clock)

    def test_forged_signature_rejected_on_load(self, deployment,
                                               store_path):
        """Every restored block has its signature checked: a member's
        block with one signature bit flipped fails the load."""
        from repro.chain.block import Block
        from repro.chain.errors import SignatureInvalidError

        node = deployment.node(0)
        good = node.append_transactions([])
        signature = bytearray(good.signature)
        signature[0] ^= 0x01
        forged = Block(good.header, good.transactions, bytes(signature))
        BlockStore(store_path).append_all([deployment.genesis, forged])
        with pytest.raises(SignatureInvalidError):
            load_node(deployment.keys[0], store_path,
                      clock=deployment.clock)

    def test_save_overwrites_previous(self, deployment, store_path):
        node = deployment.node(0)
        save_node(node, store_path)
        node.append_transactions([])
        save_node(node, store_path)
        restored = load_node(
            deployment.keys[0], store_path, clock=deployment.clock
        )
        assert len(restored.dag) == len(node.dag)
