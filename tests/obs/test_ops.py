"""The HTTP ops endpoint: routing, content types, malformed input."""

import asyncio
import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.live import OpsServer
from repro.runtime import ListenError


async def _http_get(port, request: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


def _serve(coro):
    return asyncio.run(coro)


class TestOpsServer:
    def _scenario(self, check, *, registry=None, status=None):
        async def run():
            server = OpsServer(registry=registry, status=status)
            await server.start()
            try:
                return await check(server)
            finally:
                await server.stop()

        return _serve(run())

    def test_healthz(self):
        async def check(server):
            response = await _http_get(
                server.port, b"GET /healthz HTTP/1.0\r\n\r\n"
            )
            assert response.startswith(b"HTTP/1.1 200")
            assert response.endswith(b"ok\n")

        self._scenario(check)

    def test_metrics_served_with_exposition_content_type(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "a demo counter").inc(3)

        async def check(server):
            response = await _http_get(
                server.port, b"GET /metrics HTTP/1.0\r\n\r\n"
            )
            assert b"200" in response.split(b"\r\n", 1)[0]
            assert b"text/plain; version=0.0.4" in response
            assert b"demo_total 3" in response

        self._scenario(check, registry=registry)

    def test_metrics_404_without_registry(self):
        async def check(server):
            response = await _http_get(
                server.port, b"GET /metrics HTTP/1.0\r\n\r\n"
            )
            assert response.startswith(b"HTTP/1.1 404")

        self._scenario(check)

    def test_status_returns_json(self):
        async def check(server):
            response = await _http_get(
                server.port, b"GET /status HTTP/1.0\r\n\r\n"
            )
            assert b"application/json" in response
            body = response.split(b"\r\n\r\n", 1)[1]
            assert json.loads(body) == {"name": "n0", "blocks": 4}

        self._scenario(check, status=lambda: {"name": "n0", "blocks": 4})

    def test_profile_route(self):
        # There is no /profile: `serve --profile-dump` is the profiler.
        async def check(server):
            response = await _http_get(
                server.port, b"GET /profile HTTP/1.0\r\n\r\n"
            )
            assert response.startswith(b"HTTP/1.1 404")

        self._scenario(
            check, registry=MetricsRegistry(), status=lambda: {}
        )

    def test_unknown_path_404(self):
        async def check(server):
            response = await _http_get(
                server.port, b"GET /nope HTTP/1.0\r\n\r\n"
            )
            assert response.startswith(b"HTTP/1.1 404")

        self._scenario(check)

    def test_post_is_405(self):
        async def check(server):
            response = await _http_get(
                server.port, b"POST /healthz HTTP/1.0\r\n\r\n"
            )
            assert response.startswith(b"HTTP/1.1 405")

        self._scenario(check)

    def test_malformed_request_400(self):
        async def check(server):
            response = await _http_get(server.port, b"garbage\r\n\r\n")
            assert response.startswith(b"HTTP/1.1 400")

        self._scenario(check)

    def test_oversize_request_refused(self):
        async def check(server):
            response = await _http_get(
                server.port,
                b"GET /" + b"x" * 17000 + b" HTTP/1.0\r\n\r\n",
            )
            assert response.startswith(b"HTTP/1.1 431")

        self._scenario(check)

    def test_requests_counted(self):
        async def check(server):
            await _http_get(server.port, b"GET /healthz HTTP/1.0\r\n\r\n")
            await _http_get(server.port, b"GET /healthz HTTP/1.0\r\n\r\n")
            return server.requests_served

        assert self._scenario(check) == 2

    def test_bind_conflict_raises_ops_error(self):
        async def run():
            first = OpsServer()
            await first.start()
            try:
                second = OpsServer(port=first.port)
                with pytest.raises(ListenError):
                    await second.start()
            finally:
                await first.stop()

        _serve(run())

    def test_port_none_before_start(self):
        assert OpsServer().port is None
