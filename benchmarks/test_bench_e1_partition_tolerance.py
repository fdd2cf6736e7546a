"""Experiment E1 — partition tolerance vs Nakamoto and tangle (§I, §IV-A).

The paper's central claim: linear chains resolve partition-induced forks
by *discarding* a branch, while Vegvisir permits branches and keeps
every block.  A fleet is split k ways; both sides commit transactions;
the partition heals.  We report, for each system:

* transactions committed during the partition,
* transactions surviving on every replica after healing,
* loss rate.

Expected shape: Vegvisir loses 0 regardless of k; Nakamoto loses
roughly the work of all but the longest side's branch, growing with
partition duration; the tangle keeps transactions (it is a DAG too) but
its cross-side *confirmations* stall during the partition.
"""

from __future__ import annotations


from benchmarks.baselines.nakamoto import NakamotoNetwork
from benchmarks.baselines.quorum import QuorumChain
from benchmarks.baselines.tangle import Tangle
from repro.chain.block import Transaction
from repro.reconcile.frontier import FrontierProtocol

from benchmarks.bench_util import Table, make_fleet

NODES = 6
ROUNDS = 12


def _vegvisir_partition_run(groups_count: int, seed: int = 0):
    _, genesis, nodes, clock = make_fleet(NODES, seed=seed)
    protocol = FrontierProtocol()
    nodes[0].create_crdt("txs", "append_log", "any", {"append": "*"})
    for node in nodes[1:]:
        protocol.run(node, nodes[0])
    groups = [
        [nodes[i] for i in range(NODES) if i % groups_count == g]
        for g in range(groups_count)
    ]
    committed = 0
    for round_index in range(ROUNDS):
        for group in groups:
            for node in group:
                node.append_transactions(
                    [Transaction("txs", "append",
                                 [{"n": committed}])]
                )
                committed += 1
            for a, b in zip(group, group[1:]):
                protocol.run(a, b)
    # Heal.
    for a in nodes:
        for b in nodes:
            if a is not b:
                protocol.run(a, b)
    survived = min(len(node.crdt_value("txs")) for node in nodes)
    converged = len({node.state_digest().hex() for node in nodes}) == 1
    return committed, survived, converged


def _nakamoto_partition_run(groups_count: int, seed: int = 0):
    net = NakamotoNetwork(NODES, difficulty_bits=6, block_probability=0.5,
                          seed=seed)
    groups = [
        {i for i in range(NODES) if i % groups_count == g}
        for g in range(groups_count)
    ]
    for _ in range(ROUNDS):
        net.round(groups=groups if groups_count > 1 else None)
    committed = sum(
        len({str(p) for p in net.chains[min(g)].committed_payloads()})
        for g in groups
    ) if groups_count > 1 else len(
        {str(p) for p in net.chains[0].committed_payloads()}
    )
    for _ in range(6):
        net.round()  # healed
    survived = len(net.committed_everywhere())
    return committed, survived


def _tangle_partition_run(groups_count: int, seed: int = 0):
    tangles = [Tangle(seed=seed + g) for g in range(groups_count)]
    issued = 0
    first_ids = []
    for round_index in range(ROUNDS):
        for g, tangle in enumerate(tangles):
            tx = tangle.issue({"n": issued}, g, round_index + 1)
            issued += 1
            if round_index == 0:
                first_ids.append(tx.tx_id)
    weight_during = [
        tangles[g].cumulative_weight(first_ids[g])
        for g in range(groups_count)
    ]
    # Heal: merge all into tangle 0.
    for other in tangles[1:]:
        tangles[0].merge_from(other)
    survived = len(tangles[0]) - 1
    return issued, survived, weight_during


def _quorum_partition_run(groups_count: int):
    """The §VI linearizable alternative: safe but (partially) unavailable.

    Returns (submitted, committed anywhere during the partition,
    committed by the largest side, blocked attempts)."""
    chain = QuorumChain(NODES)
    groups = [
        {i for i in range(NODES) if i % groups_count == g}
        for g in range(groups_count)
    ]
    submitted = 0
    for round_index in range(ROUNDS):
        member = round_index % NODES
        chain.submit(member, {"n": submitted})
        submitted += 1
        chain.round(groups=groups)
    committed = max(
        len(chain.committed_payloads(member)) for member in range(NODES)
    )
    return submitted, committed, chain.commits_blocked


def test_e1_partition_tolerance(benchmark, results_dir):
    table = Table(
        f"E1: transactions surviving a k-way partition "
        f"({NODES} nodes, {ROUNDS} rounds)",
        ["system", "partitions", "committed", "survived", "lost",
         "loss_rate"],
    )
    for groups_count in (2, 3):
        committed, survived, converged = _vegvisir_partition_run(
            groups_count, seed=groups_count
        )
        assert converged
        assert survived == committed, "Vegvisir must lose nothing"
        table.add("vegvisir", groups_count, committed, survived,
                  committed - survived, "0.000")

        n_committed, n_survived = _nakamoto_partition_run(
            groups_count, seed=groups_count
        )
        lost = n_committed - n_survived
        table.add("nakamoto", groups_count, n_committed, n_survived, lost,
                  f"{lost / max(1, n_committed):.3f}")
        assert lost > 0, "Nakamoto must discard a losing branch"

        t_issued, t_survived, _ = _tangle_partition_run(
            groups_count, seed=groups_count
        )
        table.add("tangle", groups_count, t_issued, t_survived,
                  t_issued - t_survived,
                  f"{(t_issued - t_survived) / max(1, t_issued):.3f}")

        q_submitted, q_committed, q_blocked = _quorum_partition_run(
            groups_count
        )
        # The quorum chain loses nothing but *commits* little: its
        # failure mode is unavailability (§VI), shown as blocked
        # commits rather than lost transactions.
        table.add(f"quorum(blocked={q_blocked})", groups_count,
                  q_submitted, q_committed, 0,
                  f"unavail={1 - q_committed / max(1, q_submitted):.3f}")
        if groups_count >= 2 and NODES % groups_count == 0:
            assert q_committed < q_submitted, (
                "an even split must block some quorum commits"
            )
    table.emit(results_dir, "e1_partition_tolerance")

    benchmark(_vegvisir_partition_run, 2, 42)
