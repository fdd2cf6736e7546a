"""Experiment F4 — support-chain offloading (Fig. 4, §IV-I).

Fig. 4 shows the IoT blockchain with periodic access to a support
blockchain.  This experiment grows a device's chain to n blocks and
sweeps the device's storage budget, reporting bodies dropped, bytes
retained, and that (a) topological order is preserved on the support
chain, (b) every dropped body is recoverable, (c) frontier and genesis
are never dropped.

Expected shape: retained bytes track the budget until the floor set by
undroppable blocks (frontier + stubs); the support chain always verifies.
"""

from __future__ import annotations

from repro.reconcile.frontier import FrontierProtocol
from repro.support import OffloadManager, Superpeer
from repro.support.offload import STUB_BYTES

from benchmarks.bench_util import Table, make_fleet

CHAIN_BLOCKS = 60


def _device_with_history(seed: int = 0):
    _, genesis, nodes, clock = make_fleet(2, seed=seed, role="superpeer")
    device, truck = nodes
    for i in range(CHAIN_BLOCKS):
        device.append_transactions(
            [device.crdt_op("__chain_name__", "set", f"name-{i}")]
        )
    FrontierProtocol().run(truck, device)
    superpeer = Superpeer(truck)
    superpeer.archive_new_blocks()
    return device, superpeer


def test_f4_support_offload(benchmark, results_dir):
    table = Table(
        f"F4: device storage vs budget (chain = {CHAIN_BLOCKS} blocks)",
        ["budget_bytes", "full_bytes", "dropped_bodies", "retained_bytes",
         "over_budget", "support_verifies"],
    )
    device_full, superpeer_full = _device_with_history(seed=1)
    full_bytes = device_full.dag.total_wire_size()
    trusted = {
        superpeer_full.node.user_id: superpeer_full.node.key_pair.public_key
    }

    retained_by_budget = {}
    dropped_by_budget = {}
    for budget in (full_bytes, full_bytes // 2, full_bytes // 4,
                   full_bytes // 8, 0):
        device, superpeer = _device_with_history(seed=1)
        manager = OffloadManager(device, max_bytes=budget)
        dropped = manager.offload(superpeer)
        retained = manager.stored_bytes()
        retained_by_budget[budget] = retained
        dropped_by_budget[budget] = dropped
        table.add(
            budget, full_bytes, dropped, retained,
            manager.over_budget(),
            superpeer.chain.verify(trusted),
        )
        # Invariants regardless of budget:
        assert manager.holds_body(device.chain_id)
        for frontier_hash in device.frontier():
            assert manager.holds_body(frontier_hash)
        for victim in manager.dropped_hashes():
            restored = superpeer.serve_block(victim)
            assert restored.hash == victim
    table.emit(results_dir, "f4_support_offload")

    assert retained_by_budget[full_bytes] == full_bytes  # no-op offload
    # The floor is genesis + frontier bodies + a STUB_BYTES stub per
    # dropped block (honest accounting of retained structure), ≈57 %
    # here: a stub is a fixed 96 bytes however small a block encodes.
    # The *body* bytes freed are what §IV-I is after.
    bodies_kept = retained_by_budget[0] - STUB_BYTES * dropped_by_budget[0]
    assert bodies_kept < full_bytes * 0.10, (
        "aggressive offload must free most body bytes"
    )

    def kernel():
        device, superpeer = _device_with_history(seed=2)
        OffloadManager(device, max_bytes=0).offload(superpeer)

    benchmark(kernel)
