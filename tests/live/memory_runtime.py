"""A runtime whose streams never leave the process.

:class:`MemoryRuntime` keeps :mod:`repro.runtime`'s clocks and replaces
its sockets: ``listen`` registers a handler under a port number,
``dial`` joins two asyncio ``StreamReader``/``StreamWriter`` pairs back
to back through :class:`_Pipe`, a minimal in-memory transport, and
there is no multicast.  Every byte a node writes is fed, in order, to
the other end's ``StreamReaderProtocol`` — the same protocol object
asyncio's own servers and ``open_connection`` use — so the live stack
above the runtime cannot tell the difference.  It is the starting
point for running the live stack on a virtual clock or over a shaped
link.

:func:`stream_pair` is the same joint without a listener: two
:class:`~repro.live.transport.StreamTransport` ends, for tests and
benchmarks that drive one connection by hand.  :func:`open_pair` is
that pair as an ``async with``: both ends are closed on the way out,
so a test that ends mid-conversation leaves no stream open.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from typing import Callable, Optional

from repro.live.transport import StreamTransport
from repro.runtime import ListenError, Runtime
from repro.wire.framing import MAX_FRAME_BYTES


class _Pipe(asyncio.Transport):
    """One end of an in-memory stream: a write here is data received at
    the other end; closing here is EOF there."""

    def __init__(self, protocol: asyncio.StreamReaderProtocol,
                 peername: tuple):
        super().__init__({"peername": peername})
        self._protocol = protocol
        self._loop = asyncio.get_running_loop()
        self.peer: Optional["_Pipe"] = None
        self._closing = False

    def write(self, data) -> None:
        if self._closing or self.peer is None or self.peer._closing:
            return  # a stream that is gone swallows what is sent to it
        self.peer._protocol.data_received(bytes(data))

    def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        if self.peer is not None and not self.peer._closing:
            self.peer._protocol.eof_received()
        self._loop.call_soon(self._protocol.connection_lost, None)

    abort = close

    def is_closing(self) -> bool:
        return self._closing

    def can_write_eof(self) -> bool:
        return False

    def get_write_buffer_size(self) -> int:
        return 0

    def pause_reading(self) -> None:
        pass  # the reader buffers; nothing here is flow-controlled

    def resume_reading(self) -> None:
        pass


class _MemoryListener:
    def __init__(self, listeners: dict, port: int):
        self._listeners = listeners
        self.port = port

    def close(self) -> None:
        self._listeners.pop(self.port, None)

    async def wait_closed(self) -> None:
        pass


def _join(handler: Callable, near_address: tuple, far_address: tuple):
    """Two stream ends back to back; returns the near end's ``(reader,
    writer)`` and hands the far end's to *handler*, as an accepting
    server does.  Each end's ``peername`` is the other's address."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    near = asyncio.StreamReaderProtocol(reader)
    far = asyncio.StreamReaderProtocol(asyncio.StreamReader(), handler)
    near_end, far_end = _Pipe(near, far_address), _Pipe(far, near_address)
    near_end.peer, far_end.peer = far_end, near_end
    far.connection_made(far_end)  # calls the handler
    near.connection_made(near_end)
    return reader, asyncio.StreamWriter(near_end, near, reader, loop)


def stream_pair(
    max_frame_bytes: int = MAX_FRAME_BYTES,
    labels: tuple = ("memory-a", "memory-b"),
) -> tuple:
    """Two :class:`StreamTransport` ends of one in-memory connection:
    what one sends the other receives, and closing one is end of stream
    at the other."""
    accepted = []
    near = _join(lambda *far: accepted.append(far),
                 ("memory", 1), ("memory", 2))
    return (StreamTransport(*near, max_frame_bytes, labels[0]),
            StreamTransport(*accepted[0], max_frame_bytes, labels[1]))


@contextlib.asynccontextmanager
async def open_pair(
    max_frame_bytes: int = MAX_FRAME_BYTES,
    labels: tuple = ("memory-a", "memory-b"),
):
    """A :func:`stream_pair` whose two ends are closed on the way out,
    whichever of them the test closed itself."""
    near, far = stream_pair(max_frame_bytes, labels)
    try:
        yield near, far
    finally:
        await near.close()
        await far.close()


class MemoryRuntime(Runtime):
    """Listeners and dials within one process; no socket, no multicast."""

    def __init__(self):
        self._listeners: dict[int, Callable] = {}
        self._ports = itertools.count(40_000)
        self.dials = 0

    async def listen(self, handler, host: str, port: int) -> _MemoryListener:
        if port == 0:
            port = next(p for p in self._ports if p not in self._listeners)
        if port in self._listeners:
            raise ListenError(f"cannot listen on {host}:{port}: in use")
        self._listeners[port] = handler
        return _MemoryListener(self._listeners, port)

    async def dial(self, host: str, port: int):
        handler = self._listeners.get(port)
        if handler is None:
            raise ConnectionRefusedError(f"nothing listens on {host}:{port}")
        self.dials += 1
        return _join(handler, ("memory", self.dials), (host, port))

    async def multicast(self, protocol_factory, group: str, port: int,
                        interface: str = "127.0.0.1"):
        raise ListenError("the memory runtime has no multicast")
