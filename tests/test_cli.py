"""CLI tests (driving main() in-process)."""

import pytest

from repro.cli import main


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

    def test_bad_key_file_exits(self, tmp_path):
        key = tmp_path / "short.key"
        key.write_bytes(b"too short")
        store = tmp_path / "chain.vgv"
        with pytest.raises(SystemExit):
            main(["init", str(store), "--owner-key", str(key)])


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
        assert main(["simulate", "--nodes", "4", "--duration", "10000",
                     "--seed", "3", "--protocol", "sketch"]) == 0

    def test_simulate_with_delta_protocol(self, capsys):
        assert main(["simulate", "--nodes", "4", "--duration", "10000",
                     "--seed", "3", "--protocol", "delta"]) == 0

    def test_simulate_unknown_protocol_one_line_error(self, capsys):
        assert main(["simulate", "--protocol", "gossipx"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown protocol 'gossipx'")
        assert "sketch" in err and "delta" in err and "frontier" in err
        assert len(err.strip().splitlines()) == 1

    def test_simulate_unknown_session_model_one_line_error(self, capsys):
        assert main(["simulate", "--session-model", "quantum"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown session model 'quantum'")
        assert "atomic" in err and "message" in err
        assert len(err.strip().splitlines()) == 1

    def test_simulate_city_rejects_protocol_override(self, capsys):
        assert main(["simulate", "--scenario", "city",
                     "--protocol", "sketch"]) == 1
        assert "city" in capsys.readouterr().err


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
        code = main(["serve", str(tmp_path / "whatever.blocks"),
                     "--key", str(key), "--protocol", "osmosis"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown protocol 'osmosis'")
        assert "sketch" in err and "delta" in err
        assert len(err.strip().splitlines()) == 1

    def test_every_command_names_the_same_protocols(self, tmp_path, capsys):
        """``serve``, ``simulate`` and ``python -m repro.faults`` validate
        ``--protocol`` against the one registry."""
        import re

        from repro.faults.__main__ import main as faults_main
        from repro.reconcile import PROTOCOLS_BY_NAME

        key = self._keyfile(tmp_path)
        commands = [
            (main, ["simulate"]),
            (main, ["serve", str(tmp_path / "x.blocks"), "--key", str(key)]),
            (faults_main, ["--seeds", "1"]),
        ]
        listed = []
        for entry_point, argv in commands:
            assert entry_point(argv + ["--protocol", "osmosis"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: unknown protocol 'osmosis'")
            assert len(err.strip().splitlines()) == 1
            listed.append(re.search(r"\[.*\]", err).group(0))
        assert listed == [str(sorted(PROTOCOLS_BY_NAME))] * 3

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
                                             monkeypatch):
        """Boot a real serve command; an in-loop timer plays the role of
        the SIGINT handler and requests the stop."""
        import asyncio

        import repro.live
        from repro.live import LiveNode

        key = tmp_path / "owner.key"
        main(["keygen", str(key)])
        store = tmp_path / "chain.vgv"
        main(["init", str(store), "--owner-key", str(key)])
        capsys.readouterr()

        class SelfStopping(LiveNode):
            async def start(self):
                await super().start()
                asyncio.get_running_loop().call_later(
                    0.1, self.request_stop
                )

        monkeypatch.setattr(repro.live, "LiveNode", SelfStopping)
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
            code = main(["serve", str(store), "--key", str(key),
                         "--port", str(port)])
        finally:
            blocker.close()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"127.0.0.1:{port}" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_serve_discover_needs_no_static_peers(self, tmp_path,
                                                  capsys, monkeypatch):
        import asyncio
        import os

        import repro.live
        from repro.live import LiveNode

        key = tmp_path / "owner.key"
        main(["keygen", str(key)])
        store = tmp_path / "chain.vgv"
        main(["init", str(store), "--owner-key", str(key)])
        capsys.readouterr()

        class SelfStopping(LiveNode):
            async def start(self):
                await super().start()
                asyncio.get_running_loop().call_later(
                    0.1, self.request_stop
                )

        monkeypatch.setattr(repro.live, "LiveNode", SelfStopping)
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
                                              monkeypatch):
        import asyncio
        import json

        import repro.live
        from repro.live import LiveNode

        key = tmp_path / "owner.key"
        main(["keygen", str(key)])
        store = tmp_path / "chain.vgv"
        main(["init", str(store), "--owner-key", str(key)])
        capsys.readouterr()

        class SelfStopping(LiveNode):
            async def start(self):
                await super().start()
                asyncio.get_running_loop().call_later(
                    0.1, self.request_stop
                )

        monkeypatch.setattr(repro.live, "LiveNode", SelfStopping)
        trace = tmp_path / "live.jsonl"
        dump = tmp_path / "serve.prof"
        code = main(["serve", str(store), "--key", str(key),
                     "--name", "ops-node", "--ops-port", "0",
                     "--profile", "--profile-dump", str(dump),
                     "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ops endpoint on http://127.0.0.1:" in out
        assert "profile:" in out
        assert dump.exists()
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
            code = main(["serve", str(store), "--key", str(key),
                         "--ops-port", str(port)])
        finally:
            blocker.close()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "ops endpoint" in err
        assert err.count("\n") == 1


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
