"""The one server loop, held to one table of requests on both planes.

Every row is sent to a bare :class:`OpsServer` and to the
:class:`GatewayServer` of a running gateway: the two must give the same
answers, leave the connection in the stated state, and leave no task
behind after ``stop()``.
"""

import asyncio
import contextlib

import pytest

from repro import httpd
from repro.gateway import GatewayNode
from repro.live.node import LiveNode
from repro.obs.live import OpsServer

OK = (200, b"ok\n")
HEAD_OK = (200, b"")  # headers with the would-be length, then nothing
ERR = None            # a JSON error body, whatever it says

GET_1_1 = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"

# name: (chunks sent, half-close after them?, expected (status, body)
#        replies in order, connection still open afterwards?)
ROWS = {
    "oversized head": (
        [b"GET /" + b"x" * 17_000 + b" HTTP/1.1\r\n\r\n"], False,
        [(431, ERR)], False),
    "truncated head": ([b"GET /healthz HT"], True, [(400, ERR)], False),
    "non-ASCII request line": (
        [b"GET /h\xc3\xa9 HTTP/1.1\r\n\r\n"], False, [(400, ERR)], False),
    "request line of two tokens": (
        [b"GET /healthz\r\n\r\n"], False, [(400, ERR)], False),
    "header without colon": (
        [b"GET /healthz HTTP/1.1\r\nbogus header\r\n\r\n"], False,
        [(400, ERR)], False),
    "negative Content-Length": (
        [b"POST /v1/tx HTTP/1.1\r\nContent-Length: -5\r\n\r\n"], False,
        [(400, ERR)], False),
    "non-numeric Content-Length": (
        [b"POST /v1/tx HTTP/1.1\r\nContent-Length: nan\r\n\r\n"], False,
        [(400, ERR)], False),
    "oversized Content-Length": (
        [b"POST /v1/tx HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n"], False,
        [(413, ERR)], False),
    "truncated body": (
        [b"POST /v1/tx HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"], True,
        [(400, ERR)], False),
    "chunked body": (
        [b"POST /v1/tx HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"],
        False, [(400, ERR)], False),
    "bad version": (
        [b"GET /healthz BANANA\r\n\r\n"], False, [(400, ERR)], False),
    "half a head, then silence": (
        [b"GET /healthz HTTP/1.1\r\nHos"], False, [(408, ERR)], False),
    "a head, then silence where its body should be": (
        [b"POST /v1/tx HTTP/1.1\r\nContent-Length: 10\r\n\r\n"], False,
        [(408, ERR)], False),
    "nothing, then silence": ([], False, [], False),
    "unknown path": (
        [b"GET /nope HTTP/1.1\r\n\r\n"], False, [(404, ERR)], True),
    "wrong method": (
        [b"POST /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n"], False,
        [(405, ERR)], True),
    "upgrade where no feed is": (
        [b"GET /healthz HTTP/1.1\r\nConnection: Upgrade\r\n"
         b"Upgrade: websocket\r\nSec-WebSocket-Key: k\r\n\r\n"], False,
        [(404, ERR)], True),
    "HTTP/1.0 is closed after one response": (
        [b"GET /healthz HTTP/1.0\r\n\r\n"], False, [OK], False),
    "HTTP/1.1 Connection: close": (
        [b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"], False,
        [OK], False),
    "two keep-alive requests on one socket": (
        [GET_1_1, GET_1_1], False, [OK, OK], True),
    "HEAD sends no body": (
        [b"HEAD /healthz HTTP/1.1\r\n\r\n", GET_1_1], False,
        [HEAD_OK, OK], True),
}


@contextlib.asynccontextmanager
async def serving(plane, deployment, tmp_path):
    """``(server, port)`` of a started ops endpoint or gateway."""
    if plane == "ops":
        server = OpsServer(status=dict)
        await server.start()
        try:
            yield server, server.port
        finally:
            await server.stop()
    else:
        live = LiveNode(
            deployment.owner, tmp_path / "chain.blocks",
            genesis=deployment.genesis, runtime=deployment.runtime, fsync=False,
        )
        gateway = GatewayNode([live])
        await gateway.start()
        try:
            yield gateway.server, gateway.http_port
        finally:
            await gateway.stop()


async def read_reply(reader, body):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head[:-4].decode("ascii").split("\r\n")
    assert lines[0].startswith("HTTP/1.1 ")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    length = int(headers["Content-Length"])
    if body == b"":
        assert length > 0
        length = 0
    return int(lines[0].split()[1]), headers, await reader.readexactly(length)


@pytest.mark.parametrize("plane", ["ops", "gateway"])
@pytest.mark.parametrize("row", ROWS)
def test_request_table(row, plane, deployment, tmp_path, monkeypatch):
    chunks, half_close, replies, stays_open = ROWS[row]
    monkeypatch.setattr(httpd, "REQUEST_TIMEOUT_S", 0.3)

    async def scenario():
        baseline = len(asyncio.all_tasks())
        async with serving(plane, deployment, tmp_path) as (server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for chunk in chunks:
                writer.write(chunk)
            await writer.drain()
            if half_close:
                writer.write_eof()
            for index, (status, body) in enumerate(replies):
                got, headers, payload = await asyncio.wait_for(
                    read_reply(reader, body), 5.0
                )
                assert got == status
                if body is ERR:
                    assert payload.startswith(b'{"error": ')
                else:
                    assert payload == body
                last = index == len(replies) - 1
                assert headers["Connection"] == (
                    "close" if last and not stays_open else "keep-alive"
                )
            if stays_open:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.read(1), 0.1)
            else:
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
            # An unparseable request is refused before it counts.
            assert server.requests_served == sum(
                status not in (400, 408, 413, 431) for status, _ in replies
            )
            writer.close()
        await asyncio.sleep(0.05)
        assert len(asyncio.all_tasks()) == baseline

    asyncio.run(scenario())


@pytest.mark.parametrize("plane", ["ops", "gateway"])
def test_stop_ends_open_connections(plane, deployment, tmp_path):
    """``stop()`` does not wait for a keep-alive client to go away."""
    async def scenario():
        baseline = len(asyncio.all_tasks())
        async with serving(plane, deployment, tmp_path) as (_, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(GET_1_1)
            assert (await read_reply(reader, OK[1]))[0] == 200
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        writer.close()
        assert len(asyncio.all_tasks()) == baseline

    asyncio.run(scenario())
