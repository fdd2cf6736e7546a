"""One simulated city hour on real ``VegvisirNode``s or on the lite stack.

``docs/scale.md`` (Layer 4) sizes the lite stack against real nodes with
this method.  One process per run, ``cryptography`` backend.  Wall time
runs from building the ``city_scenario`` simulation to the end of
``Simulation.run()``; memory is ``ru_maxrss``.  A real run swaps three
things into the same scenario object:

* a fleet factory that builds one ``VegvisirNode`` (with its own key
  pair) per city node.  Its genesis founds either every node
  (``--founders all``) or only the scenario's writers
  (``--founders writers``);
* ``FrontierProtocol`` in place of ``LiteSyncProtocol``;
* a workload on ``CityWorkload``'s own schedule (same stream, same
  draws) whose tick is ``append_transactions([])``.

Both runs therefore make the same blocks at the same instants and move
them through the same sessions.  Usage::

    PYTHONPATH=src python benchmarks/city_real_vs_lite.py real \\
        --nodes 10000 --interval-ms 600000 --founders writers
    PYTHONPATH=src python benchmarks/city_real_vs_lite.py lite \\
        --nodes 10000 --interval-ms 600000
"""

from __future__ import annotations

import argparse
import resource
import time

from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.membership.authority import CertificateAuthority
from repro.reconcile.frontier import FrontierProtocol
from repro.sim.city import CityWorkload, city_scenario
from repro.sim.runner import Simulation
from repro.sim.scenario import Fleet

HOUR_MS = 3_600_000


class EmptyBlockCity(CityWorkload):
    """``CityWorkload``'s schedule; each tick appends an empty block."""

    def _append_once(self, sim, writer_id: int) -> bool:
        sim.fleet.nodes[writer_id].append_transactions([])
        self.appends += 1
        sim.metrics.blocks_created += 1
        sim.gossip.observe_local_blocks(writer_id)
        return True


def real_fleet_factory(founders: str, writers: list[int]):
    def build(scenario, loop, mobility) -> Fleet:
        base = scenario.seed * 100_003
        owner = KeyPair.deterministic(base)
        authority = CertificateAuthority(owner)
        keys = [KeyPair.deterministic(base + 1 + index)
                for index in range(scenario.node_count)]
        founding = (writers if founders == "writers"
                    else range(scenario.node_count))
        certificates = [
            authority.issue(keys[index].public_key,
                            scenario.role_of(index), issued_at=0)
            for index in founding
        ]
        genesis = create_genesis(owner, chain_name=scenario.chain_name,
                                 timestamp=0,
                                 founding_members=certificates)
        nodes = {
            index: VegvisirNode(keys[index], genesis, clock=loop.clock)
            for index in range(scenario.node_count)
        }
        fleet = Fleet(owner, authority, keys, certificates, genesis, nodes)
        # The workload appends empty blocks, so the simulation must not
        # create its workload CRDT (which needs node 0 to be a member).
        fleet.lite = True
        return fleet

    return build


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stack", choices=["real", "lite"])
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--interval-ms", type=int, default=600_000)
    parser.add_argument("--founders", choices=["all", "writers"],
                        default="writers")
    args = parser.parse_args()

    scenario = city_scenario(node_count=args.nodes, duration_ms=HOUR_MS,
                             append_interval_ms=args.interval_ms)
    scenario.crypto_backend = "cryptography"
    if args.stack == "real":
        lite = scenario.workload
        scenario.fleet_factory = real_fleet_factory(args.founders,
                                                    lite.writer_ids)
        scenario.protocol_factory = (
            lambda push: FrontierProtocol(push=push)
        )
        scenario.workload = EmptyBlockCity(
            lite.writer_ids, lite.interval_ms, seed=scenario.seed
        )
    start = time.perf_counter()
    sim = Simulation(scenario)
    built = time.perf_counter() - start
    sim.run()
    wall = time.perf_counter() - start
    metrics = sim.metrics.as_dict()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{args.stack} nodes={args.nodes} interval_ms={args.interval_ms}"
          f" founders={args.founders} build_s={built:.2f}"
          f" wall_s={wall:.2f} maxrss_mb={rss_mb:.0f}"
          f" blocks={metrics['blocks_created']}"
          f" sessions={metrics['sessions_completed']}")


if __name__ == "__main__":
    main()
