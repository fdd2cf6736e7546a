"""What a live replica asks of its host: two clocks and three sockets.

The live stack reads the time and opens sockets only through a
:class:`Runtime`: ``wall_ms()`` (block timestamps, beacon epochs, trace
stamps), ``monotonic()`` (seconds for the cut rate and admission
buckets), ``listen(handler, host, port)`` (a :class:`Listener` calling
``handler(reader, writer)`` per connection), ``dial(host, port)``
(``(reader, writer)``) and ``multicast(...)`` (a joined UDP endpoint).
:data:`SYSTEM` binds them to :mod:`time`, asyncio and the OS;
``LiveNode`` and ``GatewayNode`` take a ``runtime=`` and hand it down,
so a test can run them on an in-memory link or a virtual clock.  A hot
path binds ``runtime.monotonic`` once, when it is built.  Timers run on
the event loop's own clock, which a runtime changes by running its own
loop.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time
from typing import Callable


class ListenError(RuntimeError):
    """A listener or the multicast endpoint could not be bound (port in
    use, bad address): one line for the CLI to print, not a traceback."""


class Listener:
    """A bound stream listener: its port, ``close()``, ``wait_closed()``."""

    def __init__(self, server: asyncio.base_events.Server):
        self.port: int = server.sockets[0].getsockname()[1]
        self.close = server.close
        self.wait_closed = server.wait_closed


class Runtime:
    """The default binding: :mod:`time`, asyncio and the OS."""

    @staticmethod
    def wall_ms() -> int:
        return int(time.time() * 1000)

    monotonic = staticmethod(time.monotonic)

    async def listen(self, handler: Callable, host: str,
                     port: int) -> Listener:
        try:
            server = await asyncio.start_server(handler, host, port)
        except OSError as exc:
            raise ListenError(
                f"cannot listen on {host}:{port}: {exc.strerror or exc}"
            ) from exc
        return Listener(server)

    async def dial(self, host: str, port: int):
        """``(reader, writer)``; :class:`OSError` when unreachable."""
        return await asyncio.open_connection(host, port)

    async def multicast(self, protocol_factory: Callable, group: str,
                        port: int, interface: str = "127.0.0.1"
                        ) -> asyncio.DatagramTransport:
        """A UDP endpoint on *port* joined to *group* on *interface*,
        shared by every node of the host (``SO_REUSEADDR``/``PORT``) and
        looping multicast back, so localhost clusters work."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if hasattr(socket, "SO_REUSEPORT"):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind(("0.0.0.0", port))
            membership = struct.pack(
                "4s4s", socket.inet_aton(group), socket.inet_aton(interface)
            )
            sock.setsockopt(
                socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, membership
            )
            sock.setsockopt(
                socket.IPPROTO_IP, socket.IP_MULTICAST_IF,
                socket.inet_aton(interface),
            )
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, 1)
            sock.setblocking(False)
        except OSError as exc:
            sock.close()
            raise ListenError(
                f"cannot join discovery group {group}:{port}: "
                f"{exc.strerror or exc}"
            ) from exc
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            protocol_factory, sock=sock)
        return transport


#: The runtime every live component uses unless given another.
SYSTEM = Runtime()
