"""The frame transport, over the memory pipe and over real TCP streams."""

import asyncio
import contextlib
import functools

import pytest

from repro.live.transport import (
    StreamTransport,
    TransportClosed,
    TransportError,
)
from repro.wire.framing import LENGTH_BYTES, frame_header

from tests.live.memory_runtime import stream_pair


def run(coro):
    return asyncio.run(coro)


async def _tcp_pair():
    """A connected (client, server) StreamTransport pair on localhost."""
    accepted = asyncio.get_running_loop().create_future()

    async def on_connect(reader, writer):
        accepted.set_result(StreamTransport(reader, writer, label="server"))

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    client = StreamTransport(reader, writer, label="client")
    return client, await accepted, server


@contextlib.asynccontextmanager
async def _connected(kind):
    """Two connected ends: a :func:`stream_pair` (``memory``) or a
    localhost socket (``tcp``); both closed on the way out."""
    if kind == "memory":
        (a, b), server = stream_pair(), None
    else:
        a, b, server = await _tcp_pair()
    try:
        yield a, b
    finally:
        await a.close()
        await b.close()
        if server is not None:
            server.close()
            await server.wait_closed()


@pytest.fixture(params=["memory", "tcp"])
def connected(request):
    return functools.partial(_connected, request.param)


class TestMemoryAndTcp:
    def test_round_trip(self, connected):
        async def scenario():
            async with connected() as (a, b):
                await a.send(b"hello")
                assert await b.recv() == b"hello"
                await b.send(b"world")
                assert await a.recv() == b"world"

        run(scenario())

    def test_counters_count_framed_bytes(self, connected):
        async def scenario():
            async with connected() as (a, b):
                await a.send(b"x" * 10)
                await b.recv()
                assert a.frames_sent == 1
                assert a.bytes_sent == 10 + LENGTH_BYTES
                assert b.frames_received == 1
                assert b.bytes_received == 10 + LENGTH_BYTES

        run(scenario())

    def test_ordering_preserved(self, connected):
        async def scenario():
            async with connected() as (a, b):
                for i in range(20):
                    await a.send(f"msg-{i}".encode())
                got = [await b.recv() for _ in range(20)]
                assert got == [f"msg-{i}".encode() for i in range(20)]

        run(scenario())

    def test_recv_blocks_until_send(self, connected):
        async def scenario():
            async with connected() as (a, b):
                async def late_send():
                    await asyncio.sleep(0.01)
                    await a.send(b"late")

                sender = asyncio.ensure_future(late_send())
                assert await b.recv() == b"late"
                await sender

        run(scenario())

    def test_close_wakes_pending_recv(self, connected):
        async def scenario():
            async with connected() as (a, b):
                recv = asyncio.ensure_future(b.recv())
                await asyncio.sleep(0)
                await a.close()
                with pytest.raises(TransportClosed):
                    await recv
                assert a.closed and b.closed

        run(scenario())

    def test_close_drains_delivered_frames_first(self, connected):
        async def scenario():
            async with connected() as (a, b):
                await a.send(b"one")
                await a.send(b"two")
                await a.close()
                # Frames already delivered must still be readable.
                assert await b.recv() == b"one"
                assert await b.recv() == b"two"
                with pytest.raises(TransportClosed):
                    await b.recv()

        run(scenario())

    def test_send_after_close_raises(self, connected):
        async def scenario():
            async with connected() as (a, b):
                await a.close()
                with pytest.raises(TransportClosed):
                    await a.send(b"nope")
                # A stream learns of its peer's close by reading the
                # end of it; from then on it refuses to send too.
                with pytest.raises(TransportClosed):
                    await b.recv()
                with pytest.raises(TransportClosed):
                    await b.send(b"nope")

        run(scenario())

    def test_tap_sees_payloads(self, connected):
        async def scenario():
            async with connected() as (a, b):
                seen = []
                a.tap = lambda direction, payload: seen.append(
                    (direction, payload)
                )
                await a.send(b"ping")
                b_payload = await b.recv()
                await b.send(b_payload + b"!")
                await a.recv()
                assert seen == [("send", b"ping"), ("recv", b"ping!")]

        run(scenario())

    def test_wait_closed(self, connected):
        async def scenario():
            async with connected() as (a, b):
                recv = asyncio.ensure_future(b.recv())
                waiter = asyncio.ensure_future(b.wait_closed())
                await asyncio.sleep(0)
                assert not waiter.done()
                await a.close()
                await waiter
                with pytest.raises(TransportClosed):
                    await recv

        run(scenario())


def test_memory_and_tcp_pairs_carry_the_same_frames():
    """The memory pipe is a stand-in for a socket only if the transport
    above it sees the same thing: the same payloads, frames and bytes."""
    async def exchange(kind):
        async with _connected(kind) as (a, b):
            seen = []
            for label, end in (("a", a), ("b", b)):
                end.tap = lambda direction, payload, label=label: (
                    seen.append((label, direction, payload))
                )
            for size in (0, 1, 100, 70_000):
                await a.send(b"q" * size)
                await b.send(await b.recv() + b"!")
                await a.recv()
            counters = [
                (end.frames_sent, end.frames_received,
                 end.bytes_sent, end.bytes_received)
                for end in (a, b)
            ]
            return seen, counters

    memory, tcp = run(exchange("memory")), run(exchange("tcp"))
    assert memory == tcp
    assert memory[1][0] == (4, 4, 70_101 + 4 * LENGTH_BYTES,
                            70_105 + 4 * LENGTH_BYTES)


class _RecordingTransport(asyncio.WriteTransport):
    """Stands where the socket transport does and keeps every write()
    (the base class's writelines() is one write() of the join)."""

    def __init__(self):
        super().__init__()
        self.writes = []
        self.closing = False

    def write(self, data):
        self.writes.append(bytes(data))

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


class TestStreamTransport:
    def test_a_frame_is_one_transport_write(self):
        """Each write() on an idle socket transport is a send() and,
        with TCP_NODELAY, a segment: a frame must be one of them."""
        async def scenario():
            reader = asyncio.StreamReader()
            protocol = asyncio.StreamReaderProtocol(reader)
            recorder = _RecordingTransport()
            writer = asyncio.StreamWriter(
                recorder, protocol, reader, asyncio.get_running_loop()
            )
            stream = StreamTransport(reader, writer)
            try:
                await stream.send(b"one frame")
                await stream.send(b"")
            finally:
                writer.close()
            assert recorder.writes == [
                frame_header(len(b"one frame")) + b"one frame",
                frame_header(0),
            ]
            assert stream.frames_sent == 2

        run(scenario())

    def test_round_trip_over_tcp(self):
        async def scenario():
            client, peer, server = await _tcp_pair()
            try:
                await client.send(b"over the wire")
                assert await peer.recv() == b"over the wire"
                await peer.send(b"and back")
                assert await client.recv() == b"and back"
            finally:
                await client.close()
                await peer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_frame_split_across_writes_reassembles(self):
        async def scenario():
            client, peer, server = await _tcp_pair()
            try:
                frame = frame_header(1000) + b"A" * 1000
                # Dribble the frame a few bytes at a time, straight
                # through the writer under the transport.
                for i in range(0, len(frame), 7):
                    client._writer.write(frame[i:i + 7])
                    await client._writer.drain()
                assert await peer.recv() == b"A" * 1000
            finally:
                await client.close()
                await peer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_pipelined_frames_in_one_write(self):
        async def scenario():
            client, peer, server = await _tcp_pair()
            try:
                blob = (frame_header(len(b"first")) + b"first"
                        + frame_header(len(b"second")) + b"second")
                client._writer.write(blob)
                await client._writer.drain()
                assert await peer.recv() == b"first"
                assert await peer.recv() == b"second"
            finally:
                await client.close()
                await peer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_peer_disconnect_raises_transport_closed(self):
        async def scenario():
            client, peer, server = await _tcp_pair()
            try:
                await client.close()
                with pytest.raises(TransportClosed):
                    await peer.recv()
                assert peer.closed
            finally:
                await peer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_oversize_frame_poisons_connection(self):
        async def scenario():
            client, peer, server = await _tcp_pair()
            try:
                small_peer = StreamTransport(
                    peer._reader, peer._writer,
                    max_frame_bytes=64, label="tiny",
                )
                await client.send(b"B" * 1000)
                with pytest.raises(TransportError, match="poisoned"):
                    await small_peer.recv()
                assert small_peer.closed
            finally:
                await client.close()
                await peer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_peername_reports_address(self):
        async def scenario():
            client, peer, server = await _tcp_pair()
            try:
                assert client.peername is not None
                host, port = client.peername
                assert host == "127.0.0.1"
                assert port > 0
            finally:
                await client.close()
                await peer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_close_is_idempotent(self):
        async def scenario():
            client, peer, server = await _tcp_pair()
            await client.close()
            await client.close()
            await peer.close()
            server.close()
            await server.wait_closed()
            with pytest.raises(TransportClosed):
                await client.send(b"late")

        run(scenario())
