"""CLI tests (driving main() in-process)."""

import types

import pytest

from repro.cli import main


def one_line_error(capsys, argv, *needles):
    """The CLI's one failure path: exit 1, nothing but one ``error: …``
    line on stderr (so no traceback), naming each of *needles*."""
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.endswith("\n") and err.count("\n") == 1
    for needle in needles:
        assert needle in err


@pytest.fixture
def self_stopping(monkeypatch):
    """Every ``LiveNode`` the CLI builds asks itself to stop 0.1 s after
    it started: an in-loop timer in the role of the SIGINT handler."""
    import asyncio

    import repro.live

    class SelfStopping(repro.live.LiveNode):
        async def start(self):
            await super().start()
            asyncio.get_running_loop().call_later(0.1, self.request_stop)

    monkeypatch.setattr(repro.live, "LiveNode", SelfStopping)


@pytest.fixture
def chain(tmp_path, capsys):
    """Paths, as strings: a key file, an initialised store, a fault
    plan no loader accepts, and one where nothing is."""
    key, store = str(tmp_path / "owner.key"), str(tmp_path / "chain.vgv")
    main(["keygen", key])
    main(["init", store, "--owner-key", key])
    bad_plan = tmp_path / "plan.json"
    bad_plan.write_text('{"chaos_level": 11}')
    return types.SimpleNamespace(
        key=key, store=store, bad_plan=str(bad_plan),
        missing=str(tmp_path / "missing"),
    )


class TestKeygen:
    def test_writes_seed_and_prints_id(self, tmp_path, capsys):
        path = tmp_path / "owner.key"
        assert main(["keygen", str(path)]) == 0
        assert len(path.read_bytes()) == 32
        out = capsys.readouterr().out
        assert "user id:" in out

    def test_refuses_overwrite(self, tmp_path):
        path = tmp_path / "owner.key"
        main(["keygen", str(path)])
        original = path.read_bytes()
        assert main(["keygen", str(path)]) == 1
        assert path.read_bytes() == original

    def test_force_overwrites(self, tmp_path):
        path = tmp_path / "owner.key"
        main(["keygen", str(path)])
        original = path.read_bytes()
        assert main(["keygen", str(path), "--force"]) == 0
        assert path.read_bytes() != original


class TestInitAndInspect:
    def test_init_then_inspect(self, tmp_path, capsys):
        key = tmp_path / "owner.key"
        store = tmp_path / "chain.vgv"
        main(["keygen", str(key)])
        assert main(["init", str(store), "--owner-key", str(key),
                     "--name", "cli-test"]) == 0
        capsys.readouterr()
        assert main(["inspect", str(store)]) == 0
        out = capsys.readouterr().out
        assert "blocks:    1" in out
        assert "role=owner" in out
        assert "cli-test" in out

    def test_inspect_empty_store_fails(self, tmp_path, capsys):
        from repro.storage import BlockStore

        store = tmp_path / "empty.vgv"
        BlockStore(store)
        assert main(["inspect", str(store)]) == 1

    @pytest.mark.parametrize("command", ["inspect", "export", "serve"])
    def test_an_unreadable_store_is_one_error_line(self, tmp_path, capsys,
                                                   command):
        """A store that is not one, and one whose checksummed record is
        no block (a keyed block map, as an older encoding wrote), are
        each refused on the one failure path."""
        import hashlib

        from repro import wire
        from repro.storage.blockstore import MAGIC

        key = str(tmp_path / "k.key")
        main(["keygen", key])
        payload = wire.encode({"header": {}, "signature": b"",
                               "transactions": []})
        keyed = tmp_path / "keyed.vgv"
        keyed.write_bytes(
            MAGIC + len(payload).to_bytes(4, "big")
            + hashlib.sha256(payload).digest() + payload
        )
        junk = tmp_path / "junk.vgv"
        junk.write_bytes(b"not a store")
        for store in (keyed, junk):
            argv = [command, str(store)]
            if command == "serve":
                argv += ["--key", key, "--port", "0"]
            one_line_error(capsys, argv, "cannot read store")

    def test_init_leaves_an_existing_chain_untouched(self, tmp_path,
                                                     deployment, capsys):
        from repro.storage import save_node

        node = deployment.node(0)
        for _ in range(5):
            node.append_transactions([])
        store = tmp_path / "chain.vgv"
        save_node(node, store)
        before = store.read_bytes()
        key = tmp_path / "owner.key"
        main(["keygen", str(key)])
        one_line_error(
            capsys, ["init", str(store), "--owner-key", str(key)],
            "refusing to overwrite",
        )
        assert store.read_bytes() == before

    def test_bad_key_file_exits(self, tmp_path, capsys):
        key = tmp_path / "short.key"
        key.write_bytes(b"too short")
        store = tmp_path / "chain.vgv"
        one_line_error(
            capsys, ["init", str(store), "--owner-key", str(key)],
            "32-byte seed",
        )
        assert not store.exists()


class TestSimulateAndDemo:
    def test_simulate_converges(self, capsys):
        assert main(["simulate", "--nodes", "4",
                     "--duration", "10000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "True" in [
            line.split()[-1] for line in out.splitlines()
            if line.startswith("converged:")
        ]
        assert "energy:" in out

    def test_simulate_with_partition(self, capsys):
        code = main(["simulate", "--nodes", "4", "--duration", "12000",
                     "--partition-until", "6000", "--seed", "4"])
        assert code == 0

    def test_simulate_with_faults(self, tmp_path, capsys):
        from repro.faults.plan import FaultPlan, LinkFaults

        plan_path = FaultPlan(
            seed=3,
            default_link=LinkFaults(drop=0.2, corrupt=0.1),
            cease_ms=10_000,
        ).save(tmp_path / "plan.json")
        code = main(["simulate", "--nodes", "4", "--duration", "10000",
                     "--seed", "3", "--faults", str(plan_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults:" in out

    def test_simulate_faults_reject_atomic_model(self, tmp_path, capsys):
        from repro.faults.plan import FaultPlan

        plan_path = FaultPlan(seed=0).save(tmp_path / "plan.json")
        code = main(["simulate", "--session-model", "atomic",
                     "--faults", str(plan_path)])
        assert code == 1
        assert "message" in capsys.readouterr().err

    def test_simulate_faults_bad_plan_file(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text('{"chaos_level": 11}')
        assert main(["simulate", "--faults", str(bad)]) == 1
        assert "fault plan" in capsys.readouterr().err

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out
        assert "hello from alice" in out

    def test_simulate_with_sketch_protocol(self, capsys):
        """One protocol ships; the study ones run from benchmarks/."""
        one_line_error(
            capsys, ["simulate", "--nodes", "4", "--duration", "10000",
                     "--seed", "3", "--protocol", "sketch"],
            "error: unrecognized arguments: --protocol sketch",
        )

    def test_simulate_unknown_protocol_one_line_error(self, capsys):
        one_line_error(
            capsys, ["simulate", "--protocol", "gossipx"],
            "error: unrecognized arguments: --protocol gossipx",
        )

    def test_simulate_unknown_session_model_one_line_error(self, capsys):
        one_line_error(
            capsys, ["simulate", "--session-model", "quantum"],
            "error: unknown session model 'quantum'", "atomic", "message",
        )

    def test_simulate_city_rejects_protocol_override(self, capsys):
        one_line_error(
            capsys, ["simulate", "--scenario", "city", "--protocol", "sketch"],
            "unrecognized arguments: --protocol sketch",
        )


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"vegvisir {__version__}"

    def test_version_matches_package_metadata(self):
        from repro import __version__

        # pyproject.toml is the single source of truth for the version.
        import pathlib
        import re

        pyproject = pathlib.Path(__file__).resolve().parents[1] / (
            "pyproject.toml"
        )
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.M
        )
        assert match is not None
        assert __version__ == match.group(1)


# One abbreviated flag per command: each prefixes exactly one real
# flag, so an abbreviating parser would take it for that flag.
ABBREVIATED = {
    "keygen": (["keygen", "k", "--forc"], ["--forc"]),
    "init": (["init", "c.vgv", "--owner-key", "k", "--nam", "x"], ["--nam", "x"]),
    "inspect": (["inspect", "c.vgv", "--da"], ["--da"]),
    "verify": (["verify", "c.vgv", "--hel"], ["--hel"]),
    "export": (["export", "c.vgv", "--crd", "x"], ["--crd", "x"]),
    "simulate": (["simulate", "--node", "2", "--dur", "200"],
                 ["--node", "2", "--dur", "200"]),
    "analyze": (["analyze", "t.jsonl", "--js"], ["--js"]),
    "trace-merge": (["trace-merge", "t.jsonl", "--ou", "m.jsonl"],
                    ["--ou", "m.jsonl"]),
    "top": (["top", "127.0.0.1:1", "--wat", "1"], ["--wat", "1"]),
    "serve": (["serve", "c.vgv", "--key", "k", "--inter", "1"], ["--inter", "1"]),
    "gateway": (["gateway", "c.vgv", "--key", "k", "--http-p", "0"],
                ["--http-p", "0"]),
    "loadgen": (["loadgen", "--port", "1", "--rat", "5"], ["--rat", "5"]),
    "demo": (["demo", "--hel"], ["--hel"]),
}


def test_abbreviation_table_covers_every_command():
    import argparse

    from repro.cli import build_parser

    (commands,) = (action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert sorted(commands.choices) == sorted(ABBREVIATED)


@pytest.mark.parametrize("command", ABBREVIATED)
def test_abbreviated_flag_is_unrecognized(command):
    """`simulate --node 2` is not `--nodes 2`: a prefix of a real flag
    is an unrecognized argument, which `main` turns into its one error
    line."""
    from repro.cli import build_parser

    argv, refused = ABBREVIATED[command]
    _, unknown = build_parser().parse_known_args(argv)
    assert unknown == refused


def test_faults_main_refuses_abbreviated_flags():
    from repro.faults.__main__ import build_parser

    _, unknown = build_parser().parse_known_args(["--seeds", "0", "--node", "3"])
    assert unknown == ["--node", "3"]


class TestServe:
    def _keyfile(self, tmp_path, seed=b"\x07" * 32):
        key = tmp_path / "node.key"
        key.write_bytes(seed)
        return key

    def test_serve_missing_store_fails(self, tmp_path, capsys):
        key = self._keyfile(tmp_path)
        code = main(["serve", str(tmp_path / "nope.blocks"),
                     "--key", str(key)])
        assert code == 1
        assert "no such store" in capsys.readouterr().err

    def test_serve_unknown_protocol_one_line_error(self, tmp_path, capsys):
        key = self._keyfile(tmp_path)
        one_line_error(
            capsys,
            ["serve", str(tmp_path / "whatever.blocks"),
             "--key", str(key), "--protocol", "osmosis"],
            "error: unrecognized arguments: --protocol osmosis",
        )

    def test_every_command_names_the_same_protocols(self, tmp_path, capsys):
        """``serve``, ``simulate`` and ``python -m repro.faults`` run the
        one shipped protocol and refuse ``--protocol`` alike."""
        from repro.faults.__main__ import main as faults_main

        key = self._keyfile(tmp_path)
        commands = [
            (main, ["simulate"]),
            (main, ["serve", str(tmp_path / "x.blocks"), "--key", str(key)]),
            (faults_main, ["--seeds", "1"]),
        ]
        for entry_point, argv in commands:
            assert entry_point(argv + ["--protocol", "frontier"]) == 1
            err = capsys.readouterr().err
            assert err == (
                "error: unrecognized arguments: --protocol frontier\n"
            )

    def test_serve_rejects_malformed_peer(self, tmp_path, capsys):
        key = self._keyfile(tmp_path)
        main(["keygen", str(tmp_path / "owner.key")])
        store = tmp_path / "chain.vgv"
        main(["init", str(store), "--owner-key",
              str(tmp_path / "owner.key")])
        capsys.readouterr()
        code = main(["serve", str(store), "--key", str(key),
                     "--peer", "not-an-address"])
        assert code == 1
        assert "host:port" in capsys.readouterr().err

    def test_serve_runs_and_stops_on_request(self, tmp_path, capsys,
                                             self_stopping):
        """Boot a real serve command; an in-loop timer plays the role of
        the SIGINT handler and requests the stop."""
        key = tmp_path / "owner.key"
        main(["keygen", str(key)])
        store = tmp_path / "chain.vgv"
        main(["init", str(store), "--owner-key", str(key)])
        capsys.readouterr()

        code = main(["serve", str(store), "--key", str(key),
                     "--metrics", "--name", "cli-node"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving chain" in out
        assert "stopped with 1 blocks" in out
        assert "live_" in out  # the metric dump made it out

    def test_serve_bound_port_prints_one_line_error(self, tmp_path,
                                                    capsys):
        import socket

        key = tmp_path / "owner.key"
        main(["keygen", str(key)])
        store = tmp_path / "chain.vgv"
        main(["init", str(store), "--owner-key", str(key)])
        capsys.readouterr()

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            one_line_error(
                capsys,
                ["serve", str(store), "--key", str(key),
                 "--port", str(port)],
                f"127.0.0.1:{port}",
            )
        finally:
            blocker.close()

    def test_serve_discover_needs_no_static_peers(self, tmp_path,
                                                  capsys, self_stopping):
        import os

        key = tmp_path / "owner.key"
        main(["keygen", str(key)])
        store = tmp_path / "chain.vgv"
        main(["init", str(store), "--owner-key", str(key)])
        capsys.readouterr()

        group = f"239.86.200.{1 + os.getpid() % 200}"
        port = str(29_000 + os.getpid() % 10_000)
        code = main(["serve", str(store), "--key", str(key),
                     "--discover", "--beacon-interval", "0.2",
                     "--discovery-group", group,
                     "--discovery-port", port])
        assert code == 0
        out = capsys.readouterr().out
        assert f"discovering on {group}:{port}, 0 seed peer(s)" in out


class TestVerifyAndExport:
    @staticmethod
    def _make_store(tmp_path, deployment):
        from repro.storage import save_node

        node = deployment.node(0)
        node.create_crdt("log", "append_log", "str", {"append": "*"})
        node.append_transactions([node.crdt_op("log", "append", "entry")])
        path = tmp_path / "chain.vgv"
        save_node(node, path)
        return path

    def test_verify_ok(self, tmp_path, deployment, capsys):
        path = self._make_store(tmp_path, deployment)
        assert main(["verify", str(path)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_verify_rejects_tampered_store(self, tmp_path, deployment,
                                           capsys):
        from repro.chain.block import Block
        from repro.crypto.keys import KeyPair
        from repro.storage import BlockStore

        path = self._make_store(tmp_path, deployment)
        stranger = KeyPair.deterministic(8888)
        forged = Block.create(
            stranger, [deployment.genesis.hash], deployment.clock() + 1
        )
        BlockStore(path).append(forged)
        assert main(["verify", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_export_all(self, tmp_path, deployment, capsys):
        import json

        path = self._make_store(tmp_path, deployment)
        assert main(["export", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["log"] == ["entry"]
        assert payload["__chain_name__"] == "test-chain"

    def test_export_single_crdt(self, tmp_path, deployment, capsys):
        import json

        path = self._make_store(tmp_path, deployment)
        assert main(["export", str(path), "--crdt", "log"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"log": ["entry"]}

    def test_export_unknown_crdt(self, tmp_path, deployment, capsys):
        path = self._make_store(tmp_path, deployment)
        assert main(["export", str(path), "--crdt", "ghost"]) == 1

    def test_inspect_with_dag(self, tmp_path, deployment, capsys):
        path = self._make_store(tmp_path, deployment)
        assert main(["inspect", str(path), "--dag"]) == 0
        out = capsys.readouterr().out
        assert "genesis" in out
        assert "frontier width" in out


class TestServeOps:
    def test_serve_with_ops_profile_and_trace(self, tmp_path, capsys,
                                              self_stopping):
        import json
        import pstats

        key = tmp_path / "owner.key"
        main(["keygen", str(key)])
        store = tmp_path / "chain.vgv"
        main(["init", str(store), "--owner-key", str(key)])
        capsys.readouterr()

        trace = tmp_path / "live.jsonl"
        dump = tmp_path / "serve.prof"
        code = main(["serve", str(store), "--key", str(key),
                     "--name", "ops-node", "--ops-port", "0",
                     "--profile-dump", str(dump),
                     "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ops endpoint on http://127.0.0.1:" in out
        assert f"cProfile stats written to {dump}" in out
        assert pstats.Stats(str(dump)).total_calls > 0
        # The live trace is wall-clock stamped and carries the node id
        # (what trace-merge keys on).
        events = [
            json.loads(line)
            for line in trace.read_text().splitlines() if line
        ]
        started = next(
            e for e in events if e["type"] == "node.started"
        )
        assert started["node"] == "ops-node"
        assert started["id"]
        assert started["t"] > 1_000_000_000_000  # wall-clock ms, not seq

    def test_serve_ops_port_conflict_one_line_error(self, tmp_path,
                                                    capsys):
        import socket

        key = tmp_path / "owner.key"
        main(["keygen", str(key)])
        store = tmp_path / "chain.vgv"
        main(["init", str(store), "--owner-key", str(key)])
        capsys.readouterr()

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            one_line_error(
                capsys,
                ["serve", str(store), "--key", str(key),
                 "--ops-port", str(port)],
                f"cannot listen on 127.0.0.1:{port}",
            )
        finally:
            blocker.close()


class TestTraceMerge:
    def _write_traces(self, tmp_path):
        import json

        block = "ab" * 32
        a = [
            {"t": 0, "type": "node.started", "node": "a", "id": "aa" * 32},
            {"t": 100, "type": "peer.connected", "peer": "b",
             "direction": "outbound", "node": "a"},
            {"t": 150, "type": "block.created", "node": "a",
             "block": block},
            {"t": 200, "type": "session.completed", "node": "a",
             "peer": "b", "protocol": "frontier", "seq": 0, "rounds": 1,
             "bytes_i2r": 1, "bytes_r2i": 1, "blocks_pulled": 0,
             "blocks_pushed": 1, "converged": True},
        ]
        b = [
            {"t": 5_000, "type": "node.started", "node": "b",
             "id": "bb" * 32},
            {"t": 5_100, "type": "peer.connected", "peer": "a",
             "direction": "inbound", "node": "b"},
            {"t": 5_205, "type": "block.persisted", "node": "b",
             "block": block, "origin": "push:a"},
        ]
        paths = []
        for name, events in (("a", a), ("b", b)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text(
                "".join(json.dumps(e) + "\n" for e in events)
            )
            paths.append(path)
        return paths

    def test_merge_renders_summary_and_writes_timeline(self, tmp_path,
                                                       capsys):
        import json

        path_a, path_b = self._write_traces(tmp_path)
        out = tmp_path / "merged.jsonl"
        code = main(["trace-merge", str(path_a), str(path_b),
                     "--out", str(out)])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "merged:           7 events from 2 node(s): a, b" in rendered
        assert "clock offset:     b: +5000 ms" in rendered
        merged = [
            json.loads(line)
            for line in out.read_text().splitlines() if line
        ]
        types = [(e["type"], e["src"]) for e in merged]
        assert types.index(("session.completed", "a")) < types.index(
            ("block.persisted", "b")
        )

    def test_merge_json_output(self, tmp_path, capsys):
        import json

        path_a, path_b = self._write_traces(tmp_path)
        code = main(["trace-merge", str(path_a), str(path_b), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["nodes"] == ["a", "b"]
        assert summary["offsets_ms"] == {"a": 0, "b": 5000}

    def test_merge_missing_file_fails(self, tmp_path, capsys):
        code = main(["trace-merge", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "no such trace file" in capsys.readouterr().err

    def test_merge_duplicate_names_fails(self, tmp_path, capsys):
        path_a, _ = self._write_traces(tmp_path)
        code = main(["trace-merge", str(path_a), str(path_a)])
        assert code == 1
        assert "cannot merge" in capsys.readouterr().err


class TestTop:
    def _ops_server(self, status):
        """A live OpsServer on a daemon thread; returns (port, stopper)."""
        import asyncio
        import threading

        from repro.obs.live import OpsServer

        started = threading.Event()
        holder = {}

        def run():
            async def serve():
                server = OpsServer(status=status)
                await server.start()
                holder["port"] = server.port
                holder["stop"] = asyncio.Event()
                started.set()
                await holder["stop"].wait()
                await server.stop()

            loop = asyncio.new_event_loop()
            holder["loop"] = loop
            loop.run_until_complete(serve())
            loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(5.0)

        def stopper():
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(5.0)

        return holder["port"], stopper

    def test_top_renders_cluster_rows(self, capsys):
        status = {
            "name": "n0", "blocks": 7,
            "frontier_digest": "ab" * 32,
            "peers": {"connected": ["n1", "n2"], "dynamic": []},
            "sessions": {"completed": 12, "interrupted": 1},
        }
        port, stop = self._ops_server(lambda: status)
        try:
            code = main(["top", f"127.0.0.1:{port}"])
        finally:
            stop()
        assert code == 0
        out = capsys.readouterr().out
        assert "NODE" in out and "FRONTIER" in out
        assert "n0" in out
        assert "    12" in out

    def test_top_reports_unreachable_target(self, capsys):
        import socket

        # A port that is certainly closed: bind-then-close.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(["top", f"127.0.0.1:{port}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "!!" in out


RETIRED_PROTOCOL = "unrecognized arguments: --protocol"

# Every way the CLI refuses its input: argv (built from the `chain`
# fixture) and what the one error line must name.
ERROR_ROWS = {
    "keygen over a key": (
        lambda c: ["keygen", c.key], "refusing to overwrite"),
    "init, missing key": (
        lambda c: ["init", c.missing + ".vgv", "--owner-key", c.missing],
        "cannot read key file"),
    "init over a store": (
        lambda c: ["init", c.store, "--owner-key", c.key],
        "refusing to overwrite"),
    "inspect, missing store": (
        lambda c: ["inspect", c.missing], "no such store"),
    "verify, missing store": (
        lambda c: ["verify", c.missing], "no such store"),
    "export, missing store": (
        lambda c: ["export", c.missing], "no such store"),
    "export, unknown crdt": (
        lambda c: ["export", c.store, "--crdt", "ghost"], "no CRDT named"),
    "simulate, bad fault plan": (
        lambda c: ["simulate", "--faults", c.bad_plan],
        "cannot load fault plan"),
    "simulate, missing fault plan": (
        lambda c: ["simulate", "--faults", c.missing],
        "cannot load fault plan"),
    "simulate, --contact-epoch 0": (
        lambda c: ["simulate", "--contact-epoch", "0"], "must be positive"),
    "simulate, city with a protocol": (
        lambda c: ["simulate", "--scenario", "city", "--protocol", "bloom"],
        RETIRED_PROTOCOL),
    "simulate, unavailable backend": (
        lambda c: ["simulate", "--nodes", "2", "--duration", "100",
                   "--crypto-backend", "cryptography"],
        "crypto backend unavailable"),
    "analyze, missing trace": (
        lambda c: ["analyze", c.missing], "no such trace file"),
    "trace-merge, missing trace": (
        lambda c: ["trace-merge", c.missing], "no such trace file"),
    "serve, missing key": (
        lambda c: ["serve", c.store, "--key", c.missing],
        "cannot read key file"),
    "serve, missing store": (
        lambda c: ["serve", c.missing, "--key", c.key], "no such store"),
    "serve, bad --peer": (
        lambda c: ["serve", c.store, "--key", c.key, "--peer", "nowhere"],
        "host:port"),
    "serve, unavailable backend": (
        lambda c: ["serve", c.store, "--key", c.key,
                   "--crypto-backend", "cryptography"],
        "crypto backend unavailable"),
    "gateway, missing key": (
        lambda c: ["gateway", c.store, "--key", c.missing],
        "cannot read key file"),
    "gateway, missing store": (
        lambda c: ["gateway", c.missing, "--key", c.key], "no such store"),
    "gateway, bad --peer": (
        lambda c: ["gateway", c.store, "--key", c.key, "--peer", "nowhere"],
        "host:port"),
    # One protocol ships, so no command takes `--protocol`: any name,
    # a retired or a study one, is an unrecognized argument.
    "gateway, unknown protocol": (
        lambda c: ["gateway", c.store, "--key", c.key,
                   "--protocol", "osmosis"], RETIRED_PROTOCOL),
    "simulate, retired delta protocol": (
        lambda c: ["simulate", "--protocol", "delta"], RETIRED_PROTOCOL),
    "serve, retired delta protocol": (
        lambda c: ["serve", c.store, "--key", c.key, "--protocol", "delta"],
        RETIRED_PROTOCOL),
    "gateway, retired delta protocol": (
        lambda c: ["gateway", c.store, "--key", c.key,
                   "--protocol", "delta"], RETIRED_PROTOCOL),
    # `--profile-dump` is the one profiler; exact flags only, so the
    # retired `--profile` is not taken for it.
    "serve, retired --profile": (
        lambda c: ["serve", c.store, "--key", c.key, "--profile"],
        "unrecognized arguments: --profile"),
    "gateway, retired --profile": (
        lambda c: ["gateway", c.store, "--key", c.key, "--profile"],
        "unrecognized arguments: --profile"),
    "gateway, bad --chain": (
        lambda c: ["gateway", c.store, "--key", c.key, "--chain", "nocolon"],
        "expected STORE:KEYPATH"),
    "gateway, missing tenant store": (
        lambda c: ["gateway", c.store, "--key", c.key,
                   "--chain", f"{c.missing}:{c.key}"], "no such store"),
}


@pytest.mark.parametrize("flag", ["--port", "--http-port", "--ops-port"])
def test_gateway_occupied_port_is_one_error_line(flag, chain, capsys):
    """Each of a gateway's three listeners (gossip, client plane, ops)
    refuses a taken port the same way: one ``ListenError`` line."""
    import socket

    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        one_line_error(
            capsys,
            ["gateway", chain.store, "--key", chain.key, flag, str(port)],
            f"error: cannot listen on 127.0.0.1:{port}: ",
        )
    finally:
        blocker.close()


@pytest.mark.parametrize("row", ERROR_ROWS)
def test_error_table(row, chain, capsys, monkeypatch, tmp_path):
    import os

    from repro.crypto import backend

    def unavailable():
        raise backend.BackendUnavailable("not installed here")

    monkeypatch.setitem(backend._BACKENDS, "cryptography", unavailable)
    argv, needle = ERROR_ROWS[row]
    before = os.listdir(tmp_path)
    one_line_error(capsys, argv(chain), needle)
    # A refused command leaves nothing behind: a mistyped store path
    # must not become an empty store.
    assert sorted(os.listdir(tmp_path)) == sorted(before)


class TestGateway:
    """`gateway` is `serve` plus a client plane; `loadgen` drives it."""

    @staticmethod
    def _free_port():
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_gateway_runs_and_stops_on_request(self, chain, capsys,
                                               self_stopping):
        code = main(["gateway", chain.store, "--key", chain.key,
                     "--name", "edge", "--ops-port", "0", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        # The gossip listener is announced like `serve` announces it.
        assert "serving chain" in out and "0 static peer(s)" in out
        assert "gateway on http://127.0.0.1:" in out
        assert "ops endpoint on http://127.0.0.1:" in out
        assert "stopped with 1 blocks" in out
        assert "stopped after 0 requests (0 admitted, 0 refused)" in out
        assert "live_" in out  # the metric dump made it out

    def test_loadgen_against_a_cli_gateway(self, chain, capsys,
                                           monkeypatch):
        """`gateway` on a background thread (where it cannot install
        signal handlers), `loadgen` against it from this one."""
        import asyncio
        import json
        import socket
        import threading
        import time

        import repro.live
        from repro.live import LiveNode

        started = threading.Event()
        running = {}

        class Announced(LiveNode):
            async def start(self):
                await super().start()
                running["node"] = self
                running["loop"] = asyncio.get_running_loop()
                started.set()

        monkeypatch.setattr(repro.live, "LiveNode", Announced)
        port = self._free_port()
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(main([
                "gateway", chain.store, "--key", chain.key,
                "--http-port", str(port), "--batch-delay-ms", "5",
            ])),
            daemon=True,
        )
        thread.start()
        try:
            assert started.wait(10.0)
            # The client plane binds right after the replica; a bare
            # connection is not a request, so the count below is exact.
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    socket.create_connection(("127.0.0.1", port), 1).close()
                    break
                except OSError:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            capsys.readouterr()
            code = main(["loadgen", "--port", str(port), "--rate", "40",
                         "--duration", "0.5", "--connections", "2",
                         "--clients", "10"])
            report = json.loads(capsys.readouterr().out)
        finally:
            running["loop"].call_soon_threadsafe(
                running["node"].request_stop
            )
            thread.join(10.0)
        assert not thread.is_alive()
        assert code == 0 and codes == [0]
        assert report["errors"] == 0
        assert report["accepted"] == report["offered"] > 0
        out = capsys.readouterr().out
        assert f"stopped after {report['offered']} requests" in out

    def test_gateway_peer_reaches_a_serve_replica(self, chain, tmp_path):
        """Two CLI processes: a transaction posted to a `gateway --peer`
        shows up on the `serve` replica it was told to gossip with."""
        import json
        import os
        import pathlib
        import shutil
        import subprocess
        import sys
        import time
        import urllib.request

        import repro

        def fetch(url, data=None):
            with urllib.request.urlopen(url, data=data, timeout=2) as reply:
                return json.loads(reply.read())

        def poll(what, probe, timeout_s=30.0):
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                try:
                    if probe():
                        return
                except OSError:
                    pass
                time.sleep(0.1)
            raise AssertionError(f"timed out waiting for {what}")

        replica_store = str(tmp_path / "replica.vgv")
        shutil.copy(chain.store, replica_store)
        gossip, replica_ops, http, gateway_ops = (
            self._free_port() for _ in range(4)
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(repro.__file__).parents[1])]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        ))

        def spawn(*argv):
            return subprocess.Popen(
                [sys.executable, "-m", "repro", *argv, "--key", chain.key,
                 "--interval", "0.1"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )

        processes = [
            spawn("serve", replica_store, "--port", str(gossip),
                  "--ops-port", str(replica_ops)),
            spawn("gateway", chain.store, "--peer", f"127.0.0.1:{gossip}",
                  "--http-port", str(http), "--ops-port", str(gateway_ops),
                  "--batch-delay-ms", "5"),
        ]
        try:
            poll("the gateway", lambda: fetch(
                f"http://127.0.0.1:{gateway_ops}/status"
            )["peers"]["connected"])
            verdict = fetch(
                f"http://127.0.0.1:{http}/v1/tx",
                json.dumps({
                    "crdt": "__crdts__", "op": "create",
                    "args": ["ledger", "append_log", {
                        "element": "str", "permissions": {"append": "*"},
                    }],
                }).encode(),
            )
            assert verdict["applied"] is True
            poll("the block on the replica", lambda: fetch(
                f"http://127.0.0.1:{replica_ops}/status"
            )["blocks"] == 2)
        finally:
            for process in processes:
                process.terminate()
            outputs = [
                process.communicate(timeout=20) for process in processes
            ]
        assert [process.returncode for process in processes] == [0, 0]
        assert "stopped with 2 blocks" in outputs[0][0]
        assert "stopped after 1 requests (1 admitted, 0 refused)" in (
            outputs[1][0]
        )
