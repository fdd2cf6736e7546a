#!/usr/bin/env python3
"""Fleet observability: ops endpoints, live traces, and the causal merge.

Boots a three-node live cluster on localhost with the full
observability plane switched on, then plays the on-call engineer:

1. each node gets a wall-clock JSONL trace and an HTTP ops endpoint
   (``/healthz``, ``/metrics``, ``/status``) on a free port;
2. nodes diverge, mesh, and gossip until every DAG agrees — exactly
   what ``vegvisir serve --ops-port ... --trace ...`` gives a real
   deployment;
3. the script curls every node's ``/healthz`` and ``/metrics`` and
   cross-checks ``/status`` against the converged replica;
4. the three per-node traces are merged into one causally ordered
   timeline (``vegvisir trace-merge``): clock skew is estimated from
   handshakes and every push is ordered after the session that sent it.

Exit code 0 iff the cluster converges, every endpoint answers, and the
merge reports zero causal-order violations (the CI live-smoke job runs
this with a hard timeout).

Run:  python examples/fleet_ops.py
"""

import asyncio
import json
import pathlib
import sys
import tempfile
import time
import urllib.request

from repro import CertificateAuthority, KeyPair, create_genesis
from repro.live import LiveNode, PeerSpec
from repro.obs import JsonlFileSink, Observability
from repro.obs.merge import NodeTrace, merge_traces

NODE_COUNT = 3


def _wall_ms() -> int:
    return int(time.time() * 1000)


def _curl(port: int, path: str) -> bytes:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5
    ) as response:
        return response.read()


async def _await_convergence(nodes, deadline_s, expect_blocks):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + deadline_s
    while loop.time() < deadline:
        if len({node.dag_digest() for node in nodes}) == 1 and (
            len(nodes[0].node.dag) >= expect_blocks
        ):
            return True
        await asyncio.sleep(0.05)
    return False


async def main() -> int:
    owner = KeyPair.deterministic(1)
    authority = CertificateAuthority(owner)
    keys = [KeyPair.deterministic(i + 2) for i in range(NODE_COUNT)]
    genesis = create_genesis(
        owner, chain_name="fleet-ops-demo", founding_members=[
            authority.issue(key.public_key, "sensor") for key in keys
        ],
    )

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="vegvisir-ops-"))
    trace_paths = [workdir / f"node{i}.trace.jsonl"
                   for i in range(NODE_COUNT)]
    observers = [
        Observability(clock=_wall_ms, sinks=[JsonlFileSink(path)])
        for path in trace_paths
    ]
    nodes = [
        LiveNode(
            key, workdir / f"node{i}.blocks", genesis=genesis,
            name=f"node{i}", interval_s=0.1, jitter_s=0.03,
            seed=i + 1, obs=observers[i], ops_port=0,
        )
        for i, key in enumerate(keys)
    ]

    # --- 1. boot with the observability plane on -------------------------
    # Diverge first so reconciliation has to move blocks both ways.
    for i, node in enumerate(nodes):
        for _ in range(i + 1):
            node.append_transactions([])
    for node in nodes:
        await node.start()
    for node in nodes:
        for other in nodes:
            if other is not node:
                node.add_peer(
                    PeerSpec(other.name, "127.0.0.1", other.listen_port)
                )
    ops_ports = [node.ops.port for node in nodes]
    print(f"booted {NODE_COUNT} nodes, ops endpoints on {ops_ports}")

    try:
        # --- 2. converge under gossip ------------------------------------
        total = 1 + sum(range(1, NODE_COUNT + 1))
        if not await _await_convergence(nodes, 30.0, total):
            print("FAIL: gossip did not converge")
            return 1
        await asyncio.sleep(0.3)  # let a post-convergence session land
        print(f"gossip converged: {total} blocks everywhere")

        # --- 3. curl the fleet -------------------------------------------
        # urllib blocks, and the ops servers live in *this* event loop:
        # fetch from a worker thread, as an external client would.
        statuses = []
        for node in nodes:
            health = await asyncio.to_thread(
                _curl, node.ops.port, "/healthz"
            )
            assert health == b"ok\n"
            metrics = (await asyncio.to_thread(
                _curl, node.ops.port, "/metrics"
            )).decode("utf-8")
            assert "reconcile_sessions_total" in metrics
            statuses.append(json.loads(
                await asyncio.to_thread(_curl, node.ops.port, "/status")
            ))
        frontier_digests = {s["frontier_digest"] for s in statuses}
        assert len(frontier_digests) == 1, statuses
        assert all(s["blocks"] == total for s in statuses)
        sessions = sum(s["sessions"]["completed"] for s in statuses)
        print(f"every /healthz ok; /status agrees on frontier "
              f"{frontier_digests.pop()[:12]}; "
              f"{sessions} sessions completed fleet-wide")
    finally:
        for node in nodes:
            await node.stop()
    for obs in observers:
        obs.close()

    # --- 4. merge the per-node traces into one timeline ------------------
    traces = [NodeTrace.load(path) for path in trace_paths]
    result = merge_traces(traces)
    print(result.render())
    assert result.order_violations == 0, "causal order violated"
    assert result.edge_count > 0
    merged_path = workdir / "merged.jsonl"
    result.write(merged_path)
    print(f"merged timeline written to {merged_path}")
    print(f"causal merge clean: {result.edge_count} edges, "
          f"0 order violations")
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
