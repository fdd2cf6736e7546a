"""End-to-end gateway tests: real sockets, real replicas, real blocks."""

import asyncio
import json
import time

from repro import wire
from repro.chain.block import MAX_ARG_DEPTH, Transaction
from repro.gateway import GatewayClient, GatewayNode
from repro.gateway import websocket as ws
from repro.live.node import LiveNode

WS_KEY = "dGhlIHNhbXBsZSBub25jZQ=="


def make_gateway(deployment, tmp_path, **kwargs):
    """A GatewayNode over one fresh owner-keyed replica."""
    live = LiveNode(
        deployment.owner, tmp_path / "chain0.blocks",
        genesis=deployment.genesis, name="chain0",
        runtime=deployment.runtime, fsync=False,
    )
    kwargs.setdefault("max_delay_s", 0.01)
    return GatewayNode([live], **kwargs)


def create_ledger(gateway):
    """Create an append-log CRDT on the default chain, out of band."""
    live = gateway.default_host.live
    live.node.create_crdt("ledger", "append_log", "str", {"append": "*"})
    live._persist_blocks()


async def ws_subscribe(port, path="/v1/subscribe"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        (
            f"GET {path} HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\n"
            f"Connection: Upgrade\r\nSec-WebSocket-Key: {WS_KEY}\r\n\r\n"
        ).encode()
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    return reader, writer, head


async def ws_next_json(reader, parser):
    while True:
        data = await asyncio.wait_for(reader.read(4096), timeout=5.0)
        assert data, "gateway closed the feed unexpectedly"
        for opcode, payload in parser.feed(data):
            if opcode == ws.OP_TEXT:
                return json.loads(payload)


class TestSubmitPath:
    def test_submit_batches_into_one_block(self, deployment, tmp_path):
        async def scenario():
            gateway = make_gateway(
                deployment, tmp_path, max_batch=8, max_delay_s=0.5
            )
            await gateway.start()
            create_ledger(gateway)
            # One keep-alive connection per in-flight request (the
            # client does not pipeline).
            clients = [
                GatewayClient("127.0.0.1", gateway.http_port)
                for _ in range(5)
            ]
            try:
                # A gateway with a token cuts a lone submit at once.  At
                # 0.5 s the cut rate holds two: the two openers empty
                # it, and the wait for the next token gathers the five.
                openers = [
                    await clients[0].request(
                        "POST", "/v1/tx",
                        body={"crdt": "ledger", "op": "append",
                              "args": [f"opener{i}"]},
                    )
                    for i in range(2)
                ]
                results = await asyncio.gather(*[
                    client.request(
                        "POST", "/v1/tx",
                        body={"crdt": "ledger", "op": "append",
                              "args": [f"e{i}"]},
                        headers={"X-Client-Id": f"c{i}"},
                    )
                    for i, client in enumerate(clients)
                ])
                state = await clients[0].request(
                    "GET", "/v1/state/ledger"
                )
            finally:
                for client in clients:
                    await client.close()
                await gateway.stop()
            return openers, results, state

        openers, results, (st, _, state) = asyncio.run(scenario())
        assert all(status == 200 and body["batch_size"] == 1
                   for status, _, body in openers)
        assert all(status == 200 for status, _, _ in results)
        bodies = [body for _, _, body in results]
        assert all(body["applied"] for body in bodies)
        # Five submits coalesced into a single witness block.
        assert len({body["block"] for body in bodies}) == 1
        assert bodies[0]["batch_size"] == 5
        assert st == 200
        assert sorted(state["value"]) == (
            [f"e{i}" for i in range(5)] + ["opener0", "opener1"]
        )

    def test_lone_post_is_answered_at_once(self, deployment, tmp_path):
        # max_delay_s bounds the wait; it is not a wait: the cut rate
        # holds a token (never less than one), so nothing holds it.
        async def scenario():
            gateway = make_gateway(deployment, tmp_path, max_delay_s=5.0)
            await gateway.start()
            create_ledger(gateway)
            client = GatewayClient("127.0.0.1", gateway.http_port)
            try:
                began = time.monotonic()
                status, _, body = await asyncio.wait_for(
                    client.request(
                        "POST", "/v1/tx",
                        body={"crdt": "ledger", "op": "append",
                              "args": ["lonely"]},
                    ),
                    timeout=4.0,
                )
                elapsed = time.monotonic() - began
            finally:
                await client.close()
                await gateway.stop()
            return status, body, elapsed

        status, body, elapsed = asyncio.run(scenario())
        assert status == 200 and body["applied"]
        assert body["batch_size"] == 1
        assert elapsed < 1.0 and body["latency_ms"] < 1000.0

    def test_rejected_transaction_reports_reason(self, deployment,
                                                 tmp_path):
        async def scenario():
            gateway = make_gateway(deployment, tmp_path)
            await gateway.start()
            create_ledger(gateway)
            client = GatewayClient("127.0.0.1", gateway.http_port)
            try:
                status, _, body = await client.request(
                    "POST", "/v1/tx",
                    body={"crdt": "ledger", "op": "append", "args": [42]},
                )
            finally:
                await client.close()
                await gateway.stop()
            return status, body

        status, body = asyncio.run(scenario())
        # The block was created (200) but the CSM rejected the tx.
        assert status == 200
        assert body["applied"] is False
        assert body["reason"]

    def test_malformed_submissions_get_400(self, deployment, tmp_path):
        async def scenario():
            gateway = make_gateway(deployment, tmp_path)
            await gateway.start()
            client = GatewayClient("127.0.0.1", gateway.http_port)
            try:
                cases = [
                    await client.request("POST", "/v1/tx", body=None),
                    await client.request("POST", "/v1/tx", body={"op": 1}),
                    await client.request(
                        "POST", "/v1/tx",
                        body={"crdt": "a", "op": "b", "args": "nope"},
                    ),
                ]
            finally:
                await client.close()
                await gateway.stop()
            return cases

        for status, _, body in asyncio.run(scenario()):
            assert status == 400
            assert "error" in body

    def test_unencodable_args_fail_only_their_client(self, deployment,
                                                     tmp_path):
        """A float in ``args`` is valid JSON but not wire-encodable: it
        gets a 400 at admission, and the three good transactions that
        would have shared its block are applied."""
        async def scenario():
            gateway = make_gateway(
                deployment, tmp_path, max_batch=8, max_delay_s=0.5
            )
            await gateway.start()
            create_ledger(gateway)
            clients = [
                GatewayClient("127.0.0.1", gateway.http_port)
                for _ in range(4)
            ]
            bodies = [
                {"crdt": "ledger", "op": "append", "args": ["g0"]},
                {"crdt": "ledger", "op": "append", "args": [1.5]},
                {"crdt": "ledger", "op": "append", "args": ["g1"]},
                {"crdt": "ledger", "op": "append", "args": ["g2"]},
            ]
            try:
                # Empty the cut rate's two tokens, so that the wait for
                # the next one gathers the four into one batch.
                for i in range(2):
                    await clients[0].request(
                        "POST", "/v1/tx",
                        body={"crdt": "ledger", "op": "append",
                              "args": [f"opener{i}"]},
                    )
                results = await asyncio.gather(*[
                    client.request("POST", "/v1/tx", body=body,
                                   headers={"X-Client-Id": f"c{i}"})
                    for i, (client, body) in enumerate(zip(clients, bodies))
                ])
                _, _, state = await clients[0].request(
                    "GET", "/v1/state/ledger"
                )
            finally:
                for client in clients:
                    await client.close()
                await gateway.stop()
            return results, state

        results, state = asyncio.run(scenario())
        bad_status, _, bad_body = results.pop(1)
        assert bad_status == 400 and "wire-encodable" in bad_body["error"]
        assert [status for status, _, _ in results] == [200, 200, 200]
        good = [body for _, _, body in results]
        assert all(body["applied"] for body in good)
        assert len({body["block"] for body in good}) == 1
        assert good[0]["batch_size"] == 3
        assert sorted(state["value"]) == [
            "g0", "g1", "g2", "opener0", "opener1"
        ]

    def test_an_oversize_batch_is_split_and_fails_no_client(
            self, deployment, tmp_path):
        """With the batch budget at two and a half transactions, three
        that wait for the same token become two blocks, each applied;
        a transaction over the whole budget is a 413 for its client
        alone."""
        def body(tag):
            return {"crdt": "ledger", "op": "append", "args": [tag * 1000]}

        async def scenario():
            gateway = make_gateway(
                deployment, tmp_path, max_batch=8, max_delay_s=0.5
            )
            await gateway.start()
            create_ledger(gateway)
            host = gateway.default_host
            size = wire.encoded_size(
                Transaction("ledger", "append", ["a" * 1000]).to_wire()
            )
            host.batcher.max_batch_bytes = 2 * size + size // 2
            clients = [
                GatewayClient("127.0.0.1", gateway.http_port)
                for _ in range(4)
            ]
            bodies = [body("a"), {**body("b"), "args": ["b" * 3000]},
                      body("c"), body("d")]
            try:
                # Empty the cut rate's two tokens, so that the wait for
                # the next one gathers the others.
                for i in range(2):
                    await clients[0].request(
                        "POST", "/v1/tx",
                        body={"crdt": "ledger", "op": "append",
                              "args": [f"opener{i}"]},
                    )
                results = await asyncio.gather(*[
                    client.request("POST", "/v1/tx", body=body,
                                   headers={"X-Client-Id": f"c{i}"})
                    for i, (client, body) in enumerate(zip(clients, bodies))
                ])
                _, _, state = await clients[0].request(
                    "GET", "/v1/state/ledger"
                )
            finally:
                for client in clients:
                    await client.close()
                await gateway.stop()
            return results, state, host.batcher.cuts

        results, state, cuts = asyncio.run(scenario())
        big_status, _, big_body = results.pop(1)
        assert big_status == 413 and "batch budget" in big_body["error"]
        assert [status for status, _, _ in results] == [200, 200, 200]
        good = [body for _, _, body in results]
        assert all(body["applied"] for body in good)
        assert len({body["block"] for body in good}) == 2
        assert sorted(body["batch_size"] for body in good) == [1, 2, 2]
        assert cuts["full"] == 1
        assert sorted(state["value"]) == [
            "a" * 1000, "c" * 1000, "d" * 1000, "opener0", "opener1"
        ]

    def test_a_submit_past_its_deadline_gets_503(self, deployment, tmp_path):
        """The second transaction waits 5 s for the cut rate's next
        token, past its 50 ms deadline: 503, and the gateway serves the
        next one."""
        async def scenario():
            gateway = make_gateway(
                deployment, tmp_path, max_delay_s=5.0, submit_timeout_s=0.05
            )
            await gateway.start()
            create_ledger(gateway)
            client = GatewayClient("127.0.0.1", gateway.http_port)
            body = {"crdt": "ledger", "op": "append", "args": ["x"]}
            try:
                first = await client.request("POST", "/v1/tx", body=body)
                late = await client.request("POST", "/v1/tx", body=body)
                health = await client.request("GET", "/healthz")
            finally:
                await client.close()
                await gateway.stop()
            return first, late, health

        (first, _, _), (late, _, late_body), (health, _, _) = (
            asyncio.run(scenario())
        )
        assert first == 200
        assert late == 503 and late_body["error"] == "submit timed out"
        assert health == 200

    def test_args_past_the_nesting_bound_get_400(self, deployment, tmp_path):
        """Args one level deeper than a block may carry and still travel
        are refused at admission; the deepest legal args are a block."""
        def nested(levels):
            args = "x"
            for _ in range(levels - 1):
                args = [args]
            return args

        async def scenario():
            gateway = make_gateway(deployment, tmp_path)
            await gateway.start()
            create_ledger(gateway)
            client = GatewayClient("127.0.0.1", gateway.http_port)
            try:
                return [
                    await client.request(
                        "POST", "/v1/tx",
                        body={"crdt": "ledger", "op": "append",
                              "args": nested(levels)},
                    )
                    for levels in (MAX_ARG_DEPTH + 1, MAX_ARG_DEPTH)
                ]
            finally:
                await client.close()
                await gateway.stop()

        (deep_status, _, deep_body), (legal_status, _, legal_body) = (
            asyncio.run(scenario())
        )
        assert deep_status == 400 and "nest deeper" in deep_body["error"]
        assert legal_status == 200 and legal_body["block"]

    def test_deeply_nested_body_gets_400(self, deployment, tmp_path):
        """JSON nested past the decoder's stack is a malformed body
        (400), not a handler failure (500)."""
        async def scenario():
            gateway = make_gateway(deployment, tmp_path)
            await gateway.start()
            body = b"[" * 100_000 + b"]" * 100_000
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.http_port
                )
                writer.write(
                    b"POST /v1/tx HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body
                )
                await writer.drain()
                status_line = await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
            finally:
                await gateway.stop()
            return status_line

        assert asyncio.run(scenario()).split()[1] == b"400"

    def test_get_block_and_404s(self, deployment, tmp_path):
        async def scenario():
            gateway = make_gateway(deployment, tmp_path)
            await gateway.start()
            create_ledger(gateway)
            client = GatewayClient("127.0.0.1", gateway.http_port)
            try:
                _, _, submitted = await client.request(
                    "POST", "/v1/tx",
                    body={"crdt": "ledger", "op": "append", "args": ["x"]},
                )
                found = await client.request(
                    "GET", f"/v1/block/{submitted['block']}"
                )
                missing = await client.request(
                    "GET", "/v1/block/" + "0" * 64
                )
                bad = await client.request("GET", "/v1/block/zz")
                no_state = await client.request("GET", "/v1/state/ghost")
                no_route = await client.request("GET", "/nope")
            finally:
                await client.close()
                await gateway.stop()
            return submitted, found, missing, bad, no_state, no_route

        submitted, found, missing, bad, no_state, no_route = asyncio.run(
            scenario()
        )
        assert found[0] == 200
        assert found[2]["hash"] == submitted["block"]
        assert found[2]["block"]["transactions"]
        assert missing[0] == 404
        assert bad[0] == 400
        assert no_state[0] == 404
        assert no_route[0] == 404


class TestBackpressure:
    def test_admission_429_carries_retry_after(self, deployment, tmp_path):
        async def scenario():
            gateway = make_gateway(
                deployment, tmp_path,
                admission_rate=1.0, admission_burst=2.0,
            )
            await gateway.start()
            create_ledger(gateway)
            client = GatewayClient("127.0.0.1", gateway.http_port)
            try:
                responses = []
                for _ in range(4):
                    responses.append(await client.request(
                        "POST", "/v1/tx",
                        body={"crdt": "ledger", "op": "append",
                              "args": ["x"]},
                        headers={"X-Client-Id": "greedy"},
                    ))
                status = gateway.status()
            finally:
                await client.close()
                await gateway.stop()
            return responses, status

        responses, status = asyncio.run(scenario())
        codes = [code for code, _, _ in responses]
        assert codes[:2] == [200, 200]
        assert codes[2] == 429 and codes[3] == 429
        refused = responses[2]
        assert refused[1]["retry-after"]
        assert int(refused[1]["retry-after"]) >= 1
        assert refused[2]["error"] == "rate_limited"
        assert status["gateway"]["admission"]["refused"] >= 2

    def test_queue_overflow_sheds_with_429(self, deployment, tmp_path):
        async def scenario():
            gateway = make_gateway(
                deployment, tmp_path,
                admission_rate=100_000.0, admission_burst=100_000.0,
                max_batch=4, max_queue=4, max_delay_s=30.0,
            )
            await gateway.start()
            create_ledger(gateway)
            host = gateway.default_host
            # Drive the batcher directly past its queue bound — five
            # synchronous submits with a 30 s deadline and batch size 4:
            # the fifth submission must shed the first.
            futures = [
                host.batcher.submit(
                    Transaction("ledger", "append", [f"t{i}"])
                )
                for i in range(5)
            ]
            from repro.gateway.batching import ShedError

            shed = None
            try:
                await asyncio.wait_for(futures[0], timeout=5.0)
            except ShedError as exc:
                shed = exc
            await asyncio.gather(*futures[1:])
            summary = host.batcher.summary()
            await gateway.stop()
            return shed, summary

        shed, summary = asyncio.run(scenario())
        assert shed is not None and shed.retry_after_s > 0
        assert summary["txs_shed"] == 1

    def test_no_task_leaks_after_stop(self, deployment, tmp_path):
        async def scenario():
            baseline = len(asyncio.all_tasks())
            gateway = make_gateway(deployment, tmp_path, ops_port=0)
            await gateway.start()
            create_ledger(gateway)
            client = GatewayClient("127.0.0.1", gateway.http_port)
            await client.request(
                "POST", "/v1/tx",
                body={"crdt": "ledger", "op": "append", "args": ["x"]},
            )
            reader, writer, head = await ws_subscribe(gateway.http_port)
            assert b"101" in head.split(b"\r\n")[0]
            await client.close()
            writer.close()
            await gateway.stop()
            # Give cancelled connection tasks one tick to unwind.
            await asyncio.sleep(0.05)
            return baseline, len(asyncio.all_tasks())

        baseline, after = asyncio.run(scenario())
        assert after == baseline


class TestSubscribe:
    def test_push_feed_sees_local_blocks(self, deployment, tmp_path):
        async def scenario():
            gateway = make_gateway(deployment, tmp_path)
            await gateway.start()
            create_ledger(gateway)
            reader, writer, head = await ws_subscribe(gateway.http_port)
            parser = ws.FrameParser(require_mask=False)
            hello = await ws_next_json(reader, parser)
            client = GatewayClient("127.0.0.1", gateway.http_port)
            try:
                _, _, submitted = await client.request(
                    "POST", "/v1/tx",
                    body={"crdt": "ledger", "op": "append",
                          "args": ["seen"]},
                )
                event = await ws_next_json(reader, parser)
            finally:
                await client.close()
                writer.close()
                await gateway.stop()
            return hello, submitted, event

        hello, submitted, event = asyncio.run(scenario())
        assert hello["type"] == "hello"
        assert event["type"] == "block"
        assert event["hash"] == submitted["block"]
        assert event["origin"] == "local"
        assert event["transactions"] == 1
        assert submitted["block"] in "".join(event["frontier"]) or (
            event["frontier"]
        )

    def test_ping_gets_pong_and_close_closes(self, deployment, tmp_path):
        async def scenario():
            gateway = make_gateway(deployment, tmp_path)
            await gateway.start()
            reader, writer, _ = await ws_subscribe(gateway.http_port)
            parser = ws.FrameParser(require_mask=False)
            await ws_next_json(reader, parser)  # hello
            writer.write(ws.mask_frame(ws.OP_PING, b"hb", b"abcd"))
            await writer.drain()
            pong = None
            while pong is None:
                for opcode, payload in parser.feed(
                    await asyncio.wait_for(reader.read(4096), timeout=5.0)
                ):
                    if opcode == ws.OP_PONG:
                        pong = payload
            writer.write(ws.mask_frame(ws.OP_CLOSE, b"", b"abcd"))
            await writer.drain()
            tail = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            subscriber_count = len(gateway.default_host.subscribers)
            await gateway.stop()
            return pong, tail, subscriber_count

        pong, tail, subscriber_count = asyncio.run(scenario())
        assert pong == b"hb"
        assert tail  # close frame echoed before the gateway hangs up
        assert subscriber_count == 0

    def test_websocket_on_other_route_refused(self, deployment, tmp_path):
        async def scenario():
            gateway = make_gateway(deployment, tmp_path)
            await gateway.start()
            reader, writer, head = await ws_subscribe(
                gateway.http_port, path="/v1/state/ledger"
            )
            writer.close()
            await gateway.stop()
            return head

        head = asyncio.run(scenario())
        assert b"404" in head.split(b"\r\n")[0]


class TestMultiTenant:
    def test_chain_prefix_routes_to_the_right_chain(self, deployment,
                                                    tmp_path):
        async def scenario():
            from repro.core.genesis import create_genesis
            from repro.crypto.keys import KeyPair

            other_owner = KeyPair.deterministic(99)
            other_genesis = create_genesis(
                other_owner, chain_name="tenant-b", timestamp=0
            )
            live_a = LiveNode(
                deployment.owner, tmp_path / "a.blocks",
                genesis=deployment.genesis, runtime=deployment.runtime,
                fsync=False,
            )
            live_b = LiveNode(
                other_owner, tmp_path / "b.blocks",
                genesis=other_genesis, runtime=deployment.runtime,
                fsync=False,
            )
            gateway = GatewayNode([live_a, live_b], max_delay_s=0.01)
            await gateway.start()
            for live in (live_a, live_b):
                live.node.create_crdt(
                    "ledger", "append_log", "str", {"append": "*"}
                )
                live._persist_blocks()
            prefixes = sorted(gateway.hosts)
            client = GatewayClient("127.0.0.1", gateway.http_port)
            try:
                _, _, chains = await client.request("GET", "/v1/chains")
                for prefix, tag in zip(prefixes, ("alpha", "beta")):
                    status, _, body = await client.request(
                        "POST", f"/v1/c/{prefix}/tx",
                        body={"crdt": "ledger", "op": "append",
                              "args": [tag]},
                    )
                    assert status == 200 and body["chain"] == prefix
                states = {
                    prefix: (await client.request(
                        "GET", f"/v1/c/{prefix}/state/ledger"
                    ))[2]["value"]
                    for prefix in prefixes
                }
                unknown = await client.request(
                    "GET", "/v1/c/ffffffffffff/state/ledger"
                )
            finally:
                await client.close()
                await gateway.stop()
            return chains, prefixes, states, unknown

        chains, prefixes, states, unknown = asyncio.run(scenario())
        assert sorted(chains["chains"]) == prefixes
        assert chains["default"] == prefixes[0] or chains["default"] in (
            chains["chains"]
        )
        tags = {tuple(states[prefix]) for prefix in prefixes}
        assert tags == {("alpha",), ("beta",)}  # no cross-tenant bleed
        assert unknown[0] == 404

    def test_duplicate_chains_refused(self, deployment, tmp_path):
        live_a = LiveNode(
            deployment.owner, tmp_path / "a.blocks",
            genesis=deployment.genesis, fsync=False,
        )
        live_b = LiveNode(
            deployment.keys[0], tmp_path / "b.blocks",
            genesis=deployment.genesis, fsync=False,
        )
        try:
            GatewayNode([live_a, live_b])
        except ValueError as exc:
            assert "duplicate" in str(exc)
        else:
            raise AssertionError("duplicate chain ids must be refused")
        finally:
            live_a.store.close()
            live_b.store.close()


class TestOpsIntegration:
    def test_status_reports_gateway_summary(self, deployment, tmp_path):
        async def scenario():
            gateway = make_gateway(deployment, tmp_path)
            await gateway.start()
            create_ledger(gateway)
            client = GatewayClient("127.0.0.1", gateway.http_port)
            try:
                await client.request(
                    "POST", "/v1/tx",
                    body={"crdt": "ledger", "op": "append", "args": ["s"]},
                )
            finally:
                await client.close()
            status = gateway.status()
            await gateway.stop()
            return status

        status = asyncio.run(scenario())
        summary = status["gateway"]
        assert summary["http_port"]
        assert summary["admission"]["admitted"] >= 1
        assert summary["requests_served"] >= 1
        (chain_summary,) = summary["chains"].values()
        assert chain_summary["txs_batched"] >= 1
        assert chain_summary["cuts"] == {
            "idle": 1, "hold_off": 0, "full": 0, "stop": 0,
        }
        assert chain_summary["blocks"] >= 2
