"""OpsServer with an embedded gateway: /status summary, /metrics grammar."""

import asyncio
import json
import time

from repro.gateway import GatewayClient, GatewayNode
from repro.live.node import LiveNode
from repro.obs import Observability, RingBufferSink

from tests.conftest import Deployment
from tests.obs.test_metrics import assert_valid_exposition


def _wall_ms() -> int:
    return int(time.time() * 1000)


async def _http_get(port, path) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw


def _body(raw: bytes) -> bytes:
    return raw.split(b"\r\n\r\n", 1)[1]


def _gateway(deployment, tmp_path, obs):
    live = LiveNode(
        deployment.owner, tmp_path / "chain.blocks",
        genesis=deployment.genesis, runtime=deployment.runtime,
        fsync=False, obs=obs, name="gw0",
    )
    return GatewayNode([live], max_delay_s=0.01, ops_port=0, obs=obs)


async def _drive_traffic(gateway):
    live = gateway.default_host.live
    live.node.create_crdt("ledger", "append_log", "str", {"append": "*"})
    live._persist_blocks()
    client = GatewayClient("127.0.0.1", gateway.http_port)
    try:
        await client.request(
            "POST", "/v1/tx",
            body={"crdt": "ledger", "op": "append", "args": ["obs"]},
            headers={"X-Client-Id": "ops-test"},
        )
        await client.request("GET", "/v1/state/ledger")
        await client.request("GET", "/healthz")
    finally:
        await client.close()


class TestOpsWithGateway:
    def test_status_carries_gateway_summary(self, tmp_path):
        deployment = Deployment()
        obs = Observability(clock=_wall_ms, sinks=[RingBufferSink()])

        async def scenario():
            gateway = _gateway(deployment, tmp_path, obs)
            await gateway.start()
            try:
                await _drive_traffic(gateway)
                assert gateway.ops is not None and gateway.ops.port
                health = await _http_get(gateway.ops.port, "/healthz")
                status = json.loads(
                    _body(await _http_get(gateway.ops.port, "/status"))
                )
            finally:
                await gateway.stop()
            return health, status

        health, status = asyncio.run(scenario())
        assert health.endswith(b"ok\n")
        # The replica's own status fields survive alongside the summary.
        assert status["name"] == "gw0"
        assert status["blocks"] >= 3
        summary = status["gateway"]
        assert summary["http_port"] == status["gateway"]["http_port"]
        assert summary["admission"]["admitted"] >= 1
        assert summary["requests_served"] >= 3
        (chain,) = summary["chains"].values()
        assert chain["txs_batched"] >= 1
        assert chain["cuts"]["idle"] == chain["batches"] == 1
        assert chain["queue_depth"] == 0
        assert chain["subscribers"] == 0
        # Why the block was cut is a field of the trace, too.
        (batch,) = [e for e in obs.events() if e.type == "gateway.batch"]
        assert batch.fields["trigger"] == "idle"
        assert batch.fields["size"] == 1

    def test_metrics_exposition_includes_gateway_families(self, tmp_path):
        deployment = Deployment()
        obs = Observability(clock=_wall_ms)

        async def scenario():
            gateway = _gateway(deployment, tmp_path, obs)
            await gateway.start()
            try:
                await _drive_traffic(gateway)
                metrics = _body(
                    await _http_get(gateway.ops.port, "/metrics")
                ).decode("utf-8")
            finally:
                await gateway.stop()
            return metrics

        metrics = asyncio.run(scenario())
        assert_valid_exposition(metrics)
        assert 'gateway_requests_total{route="tx",status="200"}' in metrics
        assert 'gateway_requests_total{route="state",status="200"}' in (
            metrics
        )
        assert "gateway_submit_latency_ms_bucket" in metrics
        assert "gateway_batch_size_count" in metrics
        # The replica's own families still render in the same registry.
        assert "live_blocks_persisted_total" in metrics

    def test_ops_port_conflict_rolls_back_gateway_start(self, tmp_path):
        from repro.runtime import ListenError

        deployment = Deployment()
        obs = Observability(clock=_wall_ms)

        async def scenario():
            blocker = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = blocker.sockets[0].getsockname()[1]
            gateway = _gateway(deployment, tmp_path, obs)
            gateway._ops_port = port
            baseline = len(asyncio.all_tasks())
            try:
                await gateway.start()
            except ListenError:
                failed = True
            else:
                failed = False
                await gateway.stop()
            blocker.close()
            await blocker.wait_closed()
            await asyncio.sleep(0.05)
            return failed, baseline, len(asyncio.all_tasks())

        failed, baseline, after = asyncio.run(scenario())
        assert failed
        assert after == baseline  # rollback left nothing running
