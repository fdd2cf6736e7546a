"""Command-line interface.

Thirteen subcommands:

* ``keygen PATH`` — generate an Ed25519 key seed file.
* ``init STORE --owner-key KEY [--name NAME]`` — create a new chain and
  persist it to a block store.
* ``inspect STORE`` — summarize a persisted chain: blocks, members,
  CRDTs, frontier, per-CRDT values.
* ``verify STORE`` — replay a store through full validation.
* ``export STORE [--crdt NAME]`` — print CRDT values as JSON.
* ``simulate`` — run a gossiping fleet (optionally partitioned) and
  print the dissemination/energy summary; ``--trace out.jsonl`` writes
  a deterministic event trace, ``--metrics`` dumps the registry in
  Prometheus text format.
* ``analyze TRACE`` — recompute contact/session/propagation numbers
  from a JSONL trace (tolerates a truncated tail with a counted
  warning).
* ``serve STORE --key KEY`` — run a live node: listen for peers on TCP,
  dial ``--peer host:port`` entries, and gossip until interrupted
  (``python -m repro.live`` is a shortcut to this command).  With
  ``--discover`` the node announces itself via signed UDP multicast
  beacons and dials whoever it hears — zero static configuration.
  ``--ops-port`` exposes ``/metrics``, ``/healthz``, ``/status`` over
  HTTP; ``--profile-dump PATH`` writes a cProfile of the whole run.
* ``gateway STORE --key KEY`` — ``serve`` plus the client plane: every
  ``serve`` flag (``--port``, ``--peer``, ``--discover``, …) places the
  replica in its cluster, and an HTTP/WebSocket edge (``POST /v1/tx``,
  ``GET /v1/state/<crdt>``, ``GET /v1/block/<hash>``,
  ``WS /v1/subscribe``) with per-client admission control and
  transaction batching sits in front of it.  ``--chain STORE:KEY``
  (repeatable) hosts extra tenant chains under ``/v1/c/<prefix>/…``.
* ``loadgen --port PORT`` — open-loop Poisson load against a gateway;
  prints the A13-style latency/throughput report as JSON.
* ``trace-merge TRACE...`` — stitch per-node live traces into one
  causally ordered timeline with clock-skew estimation.
* ``top TARGET...`` — poll ``/status`` across a cluster and render a
  one-line-per-node view (``--watch`` to refresh).
* ``demo`` — the quickstart scenario end to end.

Run as ``python -m repro <command>`` or via the ``vegvisir`` script.
Every failure the user can fix is a :class:`CliError`: ``main`` prints
it as one ``error: …`` line on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
from typing import Optional, Sequence

from repro.core.genesis import create_genesis
from repro.crypto.backend import BackendUnavailable
from repro.crypto.keys import KeyPair
from repro.crypto.ed25519 import PrivateKey


class CliError(Exception):
    """A failure to report as one ``error: …`` line and exit code 1."""


def _load_key(path: str) -> KeyPair:
    try:
        seed = pathlib.Path(path).read_bytes()
    except OSError as exc:
        raise CliError(
            f"cannot read key file {path}: {exc.strerror or exc}"
        ) from exc
    if len(seed) != 32:
        raise CliError(f"key file {path} must hold a 32-byte seed")
    return KeyPair(PrivateKey(seed))


def _existing(path: str, what: str, hint: str = "") -> pathlib.Path:
    """*path* as a ``Path``, refused if nothing is there."""
    found = pathlib.Path(path)
    if not found.exists():
        raise CliError(f"no such {what}: {found}{hint}")
    return found


def _open_store(path: str) -> pathlib.Path:
    """The path of a store that exists.  Opening a ``BlockStore`` on a
    missing path creates it, which a mistyped path must never do."""
    return _existing(path, "store", " (create one with `init`)")


@contextlib.contextmanager
def _readable_store(path: str):
    """A store that is not one, or holds a record no block parses from
    (such as a block in an encoding this version does not read), is a
    refusal, not a traceback."""
    from repro.chain.errors import ChainError
    from repro.storage import StorageError

    try:
        yield
    except (StorageError, ChainError) as exc:
        raise CliError(f"cannot read store {path}: {exc}") from exc


def _replay_store(path: str):
    """``(dag, machine)`` of a persisted chain, replayed unvalidated."""
    from repro.storage import BlockStore
    from repro.chain.dag import BlockDAG
    from repro.csm.machine import CSMachine

    with _readable_store(path):
        blocks = list(BlockStore(_open_store(path)).blocks())
    if not blocks:
        raise CliError("store is empty")
    dag = BlockDAG(blocks[0])
    machine = CSMachine.from_genesis(blocks[0])
    for block in blocks[1:]:
        dag.add_block(block)
        machine.replay_block(block)
    return dag, machine


def _cmd_keygen(args: argparse.Namespace) -> int:
    import os

    path = pathlib.Path(args.path)
    if path.exists() and not args.force:
        raise CliError(f"refusing to overwrite {path} (use --force)")
    seed = os.urandom(32)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(seed)
    key = KeyPair(PrivateKey(seed))
    print(f"wrote key seed to {path}")
    print(f"user id: {key.user_id.hex()}")
    return 0


def _cmd_init(args: argparse.Namespace) -> int:
    from repro.core.node import VegvisirNode
    from repro.storage import save_node

    if pathlib.Path(args.store).exists():
        raise CliError(f"refusing to overwrite {args.store}: it already exists")
    owner = _load_key(args.owner_key)
    genesis = create_genesis(owner, chain_name=args.name)
    node = VegvisirNode(owner, genesis)
    save_node(node, args.store)
    print(f"created chain {node.chain_id.hex()}")
    print(f"owner: {owner.user_id.hex()}")
    print(f"store: {args.store}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    dag, machine = _replay_store(args.store)
    print(f"chain:     {dag.genesis_hash.hex()}")
    print(f"blocks:    {len(dag)}  (max height {dag.max_height()}, "
          f"frontier width {dag.frontier_width()})")
    print(f"bytes:     {dag.total_wire_size()}")
    print(f"txs:       {machine.applied_count} applied, "
          f"{machine.rejected_count} rejected")
    print("members:")
    for certificate in machine.members():
        print(f"  {certificate.user_id.hex()[:16]}…  role={certificate.role}")
    print("crdts:")
    for name in machine.crdt_names():
        value = machine.crdt_value(name)
        rendered = repr(value)
        if len(rendered) > 70:
            rendered = rendered[:67] + "..."
        print(f"  {name}: {rendered}")
    if args.dag:
        from repro.report import render_dag

        print()
        print(render_dag(dag))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Replay a store through full validation and report the verdict."""
    from repro.chain.errors import ChainError
    from repro.storage import StorageError, load_node
    import os

    # Verification needs any key pair to instantiate a node; use a
    # throwaway one (it never signs anything during a load).
    throwaway = KeyPair(PrivateKey(os.urandom(32)))
    try:
        node = load_node(throwaway, _open_store(args.store))
    except (StorageError, ChainError) as exc:
        raise CliError(f"INVALID: {exc}") from exc
    print(f"OK: {len(node.dag)} blocks validate "
          f"(chain {node.chain_id.hex()[:16]}…, "
          f"{node.csm.applied_count} txs applied, "
          f"{node.csm.rejected_count} rejected)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Print one CRDT's value (or all) as JSON."""
    import json

    from repro.httpd import jsonable

    _, machine = _replay_store(args.store)
    names = machine.crdt_names()
    if args.crdt:
        if args.crdt not in names:
            raise CliError(f"no CRDT named {args.crdt!r}")
        names = [args.crdt]
    payload = {name: jsonable(machine.crdt_value(name)) for name in names}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.net.partitions import PartitionSchedule, PartitionedTopology
    from repro.net.topology import FullMeshTopology
    from repro.sim import Scenario
    from repro.sim.gossip import SESSION_MODELS

    # Validated here rather than via argparse choices= so an unknown
    # name exits with a single scriptable `error:` line (argparse's
    # usage dump is multi-line).
    if (args.session_model is not None
            and args.session_model not in SESSION_MODELS):
        raise CliError(
            f"unknown session model {args.session_model!r}: "
            f"expected one of {sorted(SESSION_MODELS)}"
        )

    if args.scenario == "city":
        return _simulate_city(args)

    # Unset size knobs resolve to the classic small-fleet defaults here
    # (the city scenario has its own, much larger ones).
    nodes = args.nodes if args.nodes is not None else 8
    duration = args.duration if args.duration is not None else 30_000

    topology_factory = FullMeshTopology
    if args.partition_until:
        def topology_factory(node_count):  # noqa: F811
            half = node_count // 2
            schedule = PartitionSchedule([
                (0, args.partition_until,
                 [set(range(half)), set(range(half, node_count))])
            ])
            return PartitionedTopology(
                FullMeshTopology(node_count), schedule
            )

    contact_epoch = args.contact_epoch
    if contact_epoch is not None and contact_epoch < 1:
        raise CliError("--contact-epoch must be positive")

    faults = None
    session_model = args.session_model
    if args.faults is not None:
        from repro.faults.plan import FaultPlan, FaultPlanError

        try:
            faults = FaultPlan.load(args.faults)
        except (OSError, FaultPlanError) as error:
            raise CliError(f"cannot load fault plan: {error}") from error
        if session_model == "atomic":
            raise CliError("--faults requires --session-model message")
        # Unspecified model defaults to "message" when faults are given
        # (they only exist at message granularity).
        session_model = "message"
    elif session_model is None:
        session_model = "atomic"

    scenario = Scenario(
        node_count=nodes,
        duration_ms=duration,
        append_interval_ms=args.append_interval,
        topology_factory=topology_factory,
        seed=args.seed,
        session_model=session_model,
        trace_path=args.trace,
        metrics=args.metrics,
        faults=faults,
        contact_epoch_ms=contact_epoch,
        crypto_backend=args.crypto_backend,
    )
    sim = _run_simulation(args, scenario, duration // 2)
    return 0 if sim.converged() else 1


def _run_simulation(args: argparse.Namespace, scenario, quiescence_ms: int):
    """Run *scenario*, drain it for ``--quiescence`` (default
    *quiescence_ms*), print the report; returns the simulation."""
    from repro.report import metrics_report, simulation_report
    from repro.sim import Simulation

    sim = Simulation(scenario).run()
    sim.run_quiescence(
        args.quiescence if args.quiescence is not None else quiescence_ms
    )
    sim.close()
    print(simulation_report(sim))
    if args.trace:
        print(f"trace:            written to {args.trace}")
    if args.metrics:
        print()
        print(metrics_report(sim), end="")
    return sim


def _simulate_city(args: argparse.Namespace) -> int:
    """Run the city-scale scenario (see repro.sim.city, docs/scale.md)."""
    from repro.sim.city import city_scenario

    if args.partition_until or args.faults is not None:
        raise CliError("--scenario city does not combine with "
                       "--partition-until or --faults")
    if args.session_model == "message":
        raise CliError("--scenario city runs the atomic session model")
    kwargs = {}
    if args.nodes is not None:
        kwargs["node_count"] = args.nodes
    if args.duration is not None:
        kwargs["duration_ms"] = args.duration
    if args.contact_epoch is not None:
        kwargs["contact_epoch_ms"] = args.contact_epoch
    scenario = city_scenario(seed=args.seed, **kwargs)
    scenario.trace_path = args.trace
    scenario.metrics = args.metrics
    scenario.crypto_backend = args.crypto_backend
    # A half-duration quiescence would double a day-long run; two gossip
    # periods are enough for the last appends to make local progress.
    _run_simulation(args, scenario, 2 * scenario.gossip_interval_ms)
    # City runs are dissemination studies, not convergence gates: with
    # sparse radios and a day of churn, full bit-identity across 10k
    # nodes is not the success criterion — completing the schedule and
    # reporting coverage is.
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Analyze a JSONL trace written by ``simulate --trace``."""
    import json

    from repro.obs.analyze import analyze_trace

    # Lenient read: a truncated or garbled line (crash mid-write) is
    # skipped and counted, never a traceback.
    analysis = analyze_trace(_existing(args.trace, "trace file"))
    if args.json:
        print(json.dumps(analysis.as_dict(), indent=2, sort_keys=True))
    else:
        print(analysis.render())
    return 0


def _cmd_trace_merge(args: argparse.Namespace) -> int:
    """Merge per-node live traces into one causal timeline."""
    import json

    from repro.obs.merge import NodeTrace, merge_traces

    traces = [
        NodeTrace.load(_existing(entry, "trace file"))
        for entry in args.traces
    ]
    try:
        result = merge_traces(traces)
    except ValueError as exc:
        raise CliError(f"cannot merge: {exc}") from exc
    if args.out:
        result.write(args.out)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
        if args.out:
            print(f"timeline:         written to {args.out}")
    return 0


def _fetch_status(target: str, timeout_s: float) -> dict:
    """GET /status from one ``host:port`` ops endpoint."""
    import json
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(
            f"http://{target}/status", timeout=timeout_s
        ) as response:
            return json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        reason = getattr(exc, "reason", None) or exc
        return {"error": str(reason)}


def _render_top(targets, timeout_s: float) -> str:
    lines = [
        f"{'TARGET':<22} {'NODE':<14} {'BLOCKS':>7} {'PEERS':>5} "
        f"{'SESS':>6} {'INT':>4}  FRONTIER"
    ]
    for target in targets:
        status = _fetch_status(target, timeout_s)
        if "error" in status:
            lines.append(f"{target:<22} !! {status['error']}")
            continue
        sessions = status.get("sessions", {})
        peers = status.get("peers", {})
        lines.append(
            f"{target:<22} {str(status.get('name', '?')):<14} "
            f"{status.get('blocks', 0):>7} "
            f"{len(peers.get('connected', ())):>5} "
            f"{sessions.get('completed', 0):>6} "
            f"{sessions.get('interrupted', 0):>4}  "
            f"{str(status.get('frontier_digest', ''))[:16]}"
        )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """One-shot (or watch-mode) cluster view over the ops endpoints."""
    import time

    if not args.watch:
        print(_render_top(args.target, args.timeout))
        return 0
    try:
        while True:
            print(f"-- {time.strftime('%H:%M:%S')}")
            print(_render_top(args.target, args.timeout))
            time.sleep(args.watch)
    except KeyboardInterrupt:
        pass
    return 0


def _node_setup(args: argparse.Namespace):
    """Check the node flags `serve` and `gateway` share; returns
    ``(obs, place)`` — *place* is what puts a replica in its
    cluster (listen address, peers, discovery), as LiveNode keywords."""
    from repro.live import PeerSpec

    try:
        peers = [PeerSpec.parse(entry) for entry in args.peer]
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.crypto_backend is not None:
        from repro.crypto import backend as crypto_backend

        crypto_backend.set_backend(args.crypto_backend)
    obs = None
    if args.trace or args.metrics or args.ops_port is not None:
        from repro.obs import JsonlFileSink, Observability
        from repro.runtime import SYSTEM

        sinks = [JsonlFileSink(args.trace)] if args.trace else []
        # Live traces are stamped with wall-clock ms so the cross-node
        # merger (`vegvisir trace-merge`) can estimate clock skew.
        obs = Observability(sinks=sinks, clock=SYSTEM.wall_ms)
    discovery = None
    if args.discover:
        from repro.discovery import DiscoveryConfig

        discovery = DiscoveryConfig(
            group=args.discovery_group, port=args.discovery_port,
            beacon_interval_s=args.beacon_interval,
        )
    return obs, dict(
        host=args.host, port=args.port, peers=peers, discovery=discovery
    )


def _live_node(args: argparse.Namespace, store: str, key: str,
               obs, **where):
    """The one place the CLI builds a ``LiveNode``: *where* is its name,
    its *place* and, for `serve`, its ops endpoint."""
    from repro.live import LiveNode

    with _readable_store(store):
        return LiveNode(
            _load_key(key), _open_store(store),
            interval_s=args.interval,
            session_timeout_s=args.session_timeout,
            obs=obs, **where,
        )


def _run_service(args: argparse.Namespace, node, service, obs,
                 banner=None, summary=None) -> None:
    """Start *service* — *node* itself, or the gateway around it — wait
    for SIGINT/SIGTERM (or ``node.request_stop()``), stop it, report.
    *banner* and *summary* add the service's own line to each report."""
    import asyncio
    import contextlib
    import cProfile
    import signal

    from repro.runtime import ListenError

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, node.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix event loops
        await service.start()
        mode = (
            f"discovering on {args.discovery_group}:{args.discovery_port}, "
            f"{len(args.peer)} seed peer(s)"
            if args.discover else f"{len(args.peer)} static peer(s)"
        )
        print(f"serving chain {node.chain_id.hex()[:16]}… "
              f"on {args.host}:{node.listen_port} "
              f"({mode})")
        if banner is not None:
            print(banner())
        if service.ops is not None:
            print(f"ops endpoint on http://{args.ops_host}:"
                  f"{service.ops.port} (/metrics /healthz /status)")
        try:
            await node.wait_stop_requested()
        finally:
            await service.stop()

    cprofile = cProfile.Profile() if args.profile_dump else None
    try:
        try:
            with cprofile or contextlib.nullcontext():
                asyncio.run(_run())
        except KeyboardInterrupt:
            pass
        except ListenError as exc:
            raise CliError(str(exc)) from exc
        print(f"stopped with {len(node.node.dag)} blocks "
              f"(digest {node.dag_digest()[:16]}…)")
        if summary is not None:
            print(summary())
        if cprofile is not None:
            cprofile.dump_stats(args.profile_dump)
            print(f"cProfile stats written to {args.profile_dump}")
        if obs is not None and args.metrics:
            print(obs.registry.render_prometheus(), end="")
    finally:
        if obs is not None:
            obs.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a live node until interrupted (Ctrl-C exits cleanly)."""
    obs, place = _node_setup(args)
    node = _live_node(
        args, args.store, args.key, obs, name=args.name,
        ops_host=args.ops_host, ops_port=args.ops_port, **place,
    )
    _run_service(args, node, node, obs)
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    """`serve` plus the client plane, until interrupted."""
    from repro.gateway import GatewayNode

    obs, place = _node_setup(args)
    tenants = []
    for entry in args.chain:
        store, _, key = entry.rpartition(":")
        if not store or not key:
            raise CliError(f"bad --chain {entry!r}; expected STORE:KEYPATH")
        tenants.append((store, key))

    def name(store: str) -> str:
        return f"gw-{pathlib.Path(store).stem}"

    lives = [_live_node(args, args.store, args.key, obs,
                        name=args.name or name(args.store), **place)]
    # A peer follows one chain and a port has one listener: an extra
    # tenant gossips from a free port, with whoever dials it.
    lives += [_live_node(args, store, key, obs, name=name(store))
              for store, key in tenants]
    gateway = GatewayNode(
        lives,
        http_host=args.http_host, http_port=args.http_port,
        admission_rate=args.admission_rate,
        admission_burst=args.admission_burst,
        max_clients=args.max_clients,
        max_batch=args.max_batch,
        max_delay_s=args.batch_delay_ms / 1000.0,
        max_queue=args.max_queue,
        ops_host=args.ops_host, ops_port=args.ops_port,
        obs=obs,
    )

    def banner() -> str:
        return (f"gateway on http://{args.http_host}:{gateway.http_port} "
                f"hosting {len(gateway.hosts)} chain(s): "
                f"{', '.join(sorted(gateway.hosts))}")

    def summary() -> str:
        served = gateway.status()["gateway"]
        return (f"stopped after {served['requests_served']} requests "
                f"({served['admission']['admitted']} admitted, "
                f"{served['admission']['refused']} refused)")

    _run_service(args, lives[0], gateway, obs, banner, summary)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Open-loop load against a running gateway; JSON report on stdout."""
    import asyncio
    import json

    from repro.gateway.loadgen import run_loadgen

    try:
        report = asyncio.run(run_loadgen(
            args.host, args.port,
            rate=args.rate, duration_s=args.duration,
            num_clients=args.clients, connections=args.connections,
            crdt=args.crdt, op=args.op, chain=args.chain,
            seed=args.seed,
        ))
    except (ConnectionError, OSError) as exc:
        raise CliError(f"cannot reach gateway at "
                       f"{args.host}:{args.port}: {exc}") from exc
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.node import VegvisirNode
    from repro.membership.authority import CertificateAuthority
    from repro.reconcile import FrontierProtocol

    owner = KeyPair.deterministic(1)
    authority = CertificateAuthority(owner)
    alice, bob = KeyPair.deterministic(2), KeyPair.deterministic(3)
    genesis = create_genesis(owner, chain_name="demo", founding_members=[
        authority.issue(alice.public_key, "medic"),
        authority.issue(bob.public_key, "sensor"),
    ])
    ticks = [1000]

    def clock():
        ticks[0] += 10
        return ticks[0]

    node_a = VegvisirNode(alice, genesis, clock=clock)
    node_b = VegvisirNode(bob, genesis, clock=clock)
    node_a.create_crdt("events", "append_log", "str",
                       permissions={"append": "*"})
    protocol = FrontierProtocol()
    protocol.run(node_b, node_a)
    node_a.append_transactions(
        [node_a.crdt_op("events", "append", "hello from alice")]
    )
    node_b.append_transactions(
        [node_b.crdt_op("events", "append", "hello from bob")]
    )
    stats = protocol.run(node_a, node_b)
    print(f"chain {node_a.chain_id.short()} reconciled in "
          f"{stats.rounds} round(s), {stats.total_bytes} bytes")
    print("events:", node_a.crdt_value("events"))
    print("converged:", node_a.state_digest() == node_b.state_digest())
    return 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """What every command that runs replicas takes — `simulate` its
    simulated fleet, `serve` and `gateway` a live one."""
    parser.add_argument("--crypto-backend",
                        choices=["pure", "cryptography", "auto"],
                        default=None,
                        help="Ed25519 backend (default: process setting / "
                             "VGV_CRYPTO_BACKEND)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSONL event trace to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print the Prometheus-format metric dump "
                             "when the run ends")


def _add_node_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of a live replica, shared by `serve` and `gateway`."""
    _add_run_arguments(parser)
    parser.add_argument("store", help="block store path (from `init`)")
    parser.add_argument("--key", required=True,
                        help="the node's member key seed file (from "
                             "`keygen`)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--peer", action="append", default=[],
                        metavar="HOST:PORT",
                        help="static peer to dial (repeatable; with "
                             "--discover these are optional seeds)")
    parser.add_argument("--discover", action="store_true",
                        help="announce and discover peers via signed "
                             "UDP multicast beacons (no --peer needed)")
    parser.add_argument("--beacon-interval", type=float, default=1.0,
                        dest="beacon_interval", metavar="SECONDS",
                        help="discovery beacon period (default 1.0)")
    parser.add_argument("--discovery-group", default="239.86.71.86",
                        dest="discovery_group", metavar="ADDR",
                        help="multicast group for beacons")
    parser.add_argument("--discovery-port", type=int, default=47474,
                        dest="discovery_port", metavar="PORT",
                        help="UDP port for beacons")
    parser.add_argument("--name", default=None,
                        help="node name for logs and traces")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between anti-entropy sessions "
                             "(default 1.0); a local write does not wait "
                             "for one: it is pushed to every peer a "
                             "session has converged with")
    parser.add_argument("--session-timeout", type=float, default=30.0,
                        dest="session_timeout",
                        help="per-session deadline in seconds")
    parser.add_argument("--ops-port", type=int, default=None,
                        dest="ops_port", metavar="PORT",
                        help="expose /metrics /healthz /status over HTTP "
                             "on this port (0 picks a free one)")
    parser.add_argument("--ops-host", default="127.0.0.1",
                        dest="ops_host", metavar="ADDR",
                        help="bind address for the ops endpoint")
    parser.add_argument("--profile-dump", metavar="PATH", default=None,
                        dest="profile_dump",
                        help="profile the whole run with cProfile and "
                             "write its stats to PATH on exit")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all subcommands."""
    from repro import __version__

    # Flags match exactly, on every command: a retired flag that
    # prefixes a live one (``--profile``, ``--profile-dump``) is
    # refused, not taken for it.
    parser = argparse.ArgumentParser(
        prog="vegvisir",
        description="Vegvisir: a partition-tolerant blockchain for IoT",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, **kwargs) -> argparse.ArgumentParser:
        return commands.add_parser(name, allow_abbrev=False, **kwargs)

    keygen = command("keygen", help="generate a key seed file")
    keygen.add_argument("path")
    keygen.add_argument("--force", action="store_true")
    keygen.set_defaults(func=_cmd_keygen)

    init = command("init", help="create a new chain")
    init.add_argument("store")
    init.add_argument("--owner-key", required=True)
    init.add_argument("--name", default="vegvisir")
    init.set_defaults(func=_cmd_init)

    inspect = command("inspect", help="summarize a chain store")
    inspect.add_argument("store")
    inspect.add_argument("--dag", action="store_true",
                         help="render the block DAG as ASCII")
    inspect.set_defaults(func=_cmd_inspect)

    verify = command(
        "verify", help="fully validate every block in a store"
    )
    verify.add_argument("store")
    verify.set_defaults(func=_cmd_verify)

    export = command(
        "export", help="print CRDT values from a store as JSON"
    )
    export.add_argument("store")
    export.add_argument("--crdt", help="export a single CRDT by name")
    export.set_defaults(func=_cmd_export)

    simulate = command("simulate", help="run a gossip fleet")
    simulate.add_argument("--scenario", choices=["default", "city"],
                          default="default",
                          help="'city' runs the 10k-node heterogeneous-"
                               "radio mobile scenario (see docs/scale.md)")
    simulate.add_argument("--nodes", type=int, default=None,
                          help="fleet size (default 8; city: 10000)")
    simulate.add_argument("--duration", type=int, default=None,
                          help="simulated ms (default 30000; city: one "
                               "day)")
    simulate.add_argument("--append-interval", type=int, default=4_000)
    simulate.add_argument("--partition-until", type=int, default=0,
                          help="2-way partition until this time (ms)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--session-model", metavar="MODEL",
                          default=None, dest="session_model",
                          help="run sessions atomically at the contact "
                               "instant, or message-by-message over the "
                               "event loop (interruptible); defaults to "
                               "atomic, or message when --faults is given")
    simulate.add_argument("--faults", metavar="PATH", default=None,
                          help="inject faults from a FaultPlan JSON file "
                               "(implies --session-model message)")
    simulate.add_argument("--contact-epoch", type=int, default=None,
                          dest="contact_epoch", metavar="MS",
                          help="batch gossip ticks into epochs of MS "
                               "(default: off; city: 30000)")
    simulate.add_argument("--quiescence", type=int, default=None,
                          metavar="MS",
                          help="post-workload drain time (default: half "
                               "the duration; city: two gossip periods)")
    _add_run_arguments(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    analyze = command(
        "analyze", help="summarize a JSONL trace from simulate --trace"
    )
    analyze.add_argument("trace")
    analyze.add_argument("--json", action="store_true",
                         help="emit the analysis as JSON")
    analyze.set_defaults(func=_cmd_analyze)

    trace_merge = command(
        "trace-merge",
        help="merge per-node live traces into one causal timeline",
    )
    trace_merge.add_argument("traces", nargs="+", metavar="TRACE",
                             help="per-node JSONL trace files")
    trace_merge.add_argument("--out", metavar="PATH", default=None,
                             help="write the merged timeline (JSONL)")
    trace_merge.add_argument("--json", action="store_true",
                             help="emit the merge summary as JSON")
    trace_merge.set_defaults(func=_cmd_trace_merge)

    top = command(
        "top", help="poll /status across a cluster's ops endpoints"
    )
    top.add_argument("target", nargs="+", metavar="HOST:PORT",
                     help="ops endpoints to poll")
    top.add_argument("--watch", type=float, default=0.0, metavar="SECONDS",
                     help="refresh every SECONDS (default: one shot)")
    top.add_argument("--timeout", type=float, default=2.0,
                     help="per-request timeout in seconds")
    top.set_defaults(func=_cmd_top)

    serve = command("serve", help="run a live node over TCP until interrupted")
    _add_node_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    gateway = command(
        "gateway", help="serve, plus the HTTP/WebSocket client plane "
                        "in front of the replica",
    )
    _add_node_arguments(gateway)
    gateway.add_argument("--chain", action="append", default=[],
                         metavar="STORE:KEYPATH",
                         help="host an extra tenant chain (repeatable); "
                              "served under /v1/c/<prefix>/…")
    gateway.add_argument("--http-host", dest="http_host",
                         default="127.0.0.1")
    gateway.add_argument("--http-port", dest="http_port", type=int,
                         default=0,
                         help="client-plane port (0 picks a free one)")
    gateway.add_argument("--admission-rate", dest="admission_rate",
                         type=float, default=50.0, metavar="TOKENS_PER_S",
                         help="per-client token refill rate (default 50/s)")
    gateway.add_argument("--admission-burst", dest="admission_burst",
                         type=float, default=100.0,
                         help="per-client bucket size (default 100)")
    gateway.add_argument("--max-clients", dest="max_clients", type=int,
                         default=100_000,
                         help="resident admission buckets (LRU beyond)")
    gateway.add_argument("--max-batch", dest="max_batch", type=int,
                         default=128,
                         help="transactions per witness block (default 128)")
    gateway.add_argument("--batch-delay-ms", dest="batch_delay_ms",
                         type=float, default=25.0,
                         help="average spacing of partial-batch cuts "
                              "under sustained load (a one-second burst "
                              "goes first), and the most a transaction "
                              "waits for one: under that rate every "
                              "transaction is cut at once (default 25)")
    gateway.add_argument("--max-queue", dest="max_queue", type=int,
                         default=1024,
                         help="pending-transaction bound per chain; "
                              "beyond it the oldest is shed with a 429")
    gateway.set_defaults(func=_cmd_gateway)

    loadgen = command(
        "loadgen", help="open-loop Poisson load against a gateway"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True,
                         help="gateway client-plane port")
    loadgen.add_argument("--rate", type=float, default=100.0,
                         help="offered arrivals per second (default 100)")
    loadgen.add_argument("--duration", type=float, default=10.0,
                         help="run length in seconds (default 10)")
    loadgen.add_argument("--clients", type=int, default=1_000_000,
                         help="distinct simulated client ids "
                              "(default 1e6)")
    loadgen.add_argument("--connections", type=int, default=16,
                         help="keep-alive connection pool size")
    loadgen.add_argument("--crdt", default="ledger",
                         help="target CRDT name (default 'ledger')")
    loadgen.add_argument("--op", default="append",
                         help="operation to submit (default 'append')")
    loadgen.add_argument("--chain", default=None, metavar="PREFIX",
                         help="tenant chain prefix (default chain if "
                              "omitted)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="arrival-schedule RNG seed")
    loadgen.set_defaults(func=_cmd_loadgen)

    demo = command("demo", help="run the quickstart scenario")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    # A flag no command takes is refused on the one failure path too,
    # not with argparse's multi-line usage dump.
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:
            raise CliError(f"unrecognized arguments: {' '.join(unknown)}")
        return args.func(args)
    except BackendUnavailable as exc:
        message = f"crypto backend unavailable: {exc}"
    except CliError as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
