"""Experiment F2 — block layout and wire size (Fig. 2, §IV-D).

Fig. 2 shows the block anatomy: header (user id, timestamp, location,
variable parent hashes), transaction body, signature.  This experiment
reproduces the figure quantitatively: the canonical wire size of a block
broken down by component as the parent count and transaction count vary.

Expected shape: a fixed ~125-byte floor (user id, timestamp, location,
signature and the list framing around them), +34 bytes per parent hash,
and transaction-dominated growth for fat blocks — confirming that
witness blocks (0 transactions) are cheap and that multi-parent merges
cost little.  A block is a positional list, so no field name is in its
bytes: the one-parent witness is exactly its fields plus list framing,
159 bytes (231 when every field carried its name).
"""

from __future__ import annotations

from repro import wire
from repro.chain.block import Block, Transaction
from repro.crypto.keys import KeyPair
from repro.crypto.sha import Hash

from benchmarks.bench_util import Table


def _block_with(parents: int, txs: int) -> Block:
    key = KeyPair.deterministic(77)
    parent_hashes = [Hash.of_value(["parent", i]) for i in range(parents)]
    transactions = [
        Transaction("events", "append",
                    [{"seq": i, "data": b"x" * 32}])
        for i in range(txs)
    ]
    return Block.create(
        key, parent_hashes, 1_000, transactions,
        location=(424433000, -764935000),
    )


def _component_sizes(block: Block) -> dict[str, int]:
    return {
        "header": len(wire.encode(block.header.to_wire())),
        "transactions": len(
            wire.encode([tx.to_wire() for tx in block.transactions])
        ),
        "signature": len(block.signature),
        "total": block.wire_size,
    }


def test_f2_block_layout(benchmark, results_dir):
    table = Table(
        "F2: block wire size (bytes) by parents and transactions",
        ["parents", "txs", "header", "tx_body", "signature", "total"],
    )
    for parents in (1, 2, 4, 8, 16):
        for txs in (0, 1, 8, 32):
            sizes = _component_sizes(_block_with(parents, txs))
            table.add(parents, txs, sizes["header"], sizes["transactions"],
                      sizes["signature"], sizes["total"])
    table.emit(results_dir, "f2_block_layout")

    # Marginal costs implied by the figure.
    one_parent = _block_with(1, 0).wire_size
    two_parents = _block_with(2, 0).wire_size
    per_parent = two_parents - one_parent
    assert 32 <= per_parent <= 40, "a parent is one 32-byte hash + framing"

    # Tripwire: a witness block is its fields and the tag and count of
    # its two lists (block, header), nothing more — a keyed form fails.
    witness = _block_with(1, 0)
    fields = sum(map(wire.encoded_size, [
        *witness.header.to_wire(), witness.signature, [],
    ]))
    assert witness.wire_size == fields + 2 + 2 == 159, (
        "a witness block is its fields plus list framing"
    )

    benchmark(_block_with, 4, 8)
