"""The frame transport: length-prefixed messages over a byte stream.

:class:`StreamTransport` wraps an asyncio ``StreamReader`` /
``StreamWriter`` pair — a real TCP connection in ``serve`` and
``gateway``, or anything else that speaks the stream protocol (a Unix
socket, or the in-memory pipe the tests join two ends with).

Payloads are opaque here; one level up they are canonical
:mod:`repro.wire` encodings of reconciliation messages.  The transport
counts frames and bytes in both directions and accepts an optional
``tap`` callable ``(direction, payload)`` with direction ``"send"`` or
``"recv"`` — the hook the byte-parity tests use to record exactly what
crossed the wire.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Optional, Tuple

from repro.wire.framing import (
    FrameDecoder,
    FrameError,
    LENGTH_BYTES,
    MAX_FRAME_BYTES,
    frame_header,
)


class TransportError(Exception):
    """The connection failed mid-operation."""


class TransportClosed(TransportError):
    """The peer closed the connection (or we did)."""


class StreamTransport:
    """Frames over an asyncio stream (TCP in production)."""

    #: Read granularity; one frame may span many reads and vice versa.
    READ_CHUNK = 64 * 1024

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 label: str = "?"):
        self._max_frame_bytes = max_frame_bytes
        self.label = label
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Optional observer of every payload: ``tap(direction, payload)``
        #: with direction ``"send"`` or ``"recv"``.
        self.tap: Optional[Callable[[str, bytes], None]] = None
        self._closed = False
        self._closed_event = asyncio.Event()
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder(max_frame_bytes)
        self._ready: deque[bytes] = deque()

    @property
    def closed(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        """Block until the transport is closed (either side)."""
        await self._closed_event.wait()

    def _mark_closed(self) -> None:
        self._closed = True
        self._closed_event.set()

    def _account_send(self, payload: bytes, frame_len: int) -> None:
        self.frames_sent += 1
        self.bytes_sent += frame_len
        if self.tap is not None:
            self.tap("send", payload)

    def _account_recv(self, payload: bytes, frame_len: int) -> None:
        self.frames_received += 1
        self.bytes_received += frame_len
        if self.tap is not None:
            self.tap("recv", payload)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"{type(self).__name__}({self.label}, {state})"

    @property
    def peername(self) -> Optional[Tuple[str, int]]:
        try:
            info = self._writer.get_extra_info("peername")
        except Exception:  # pragma: no cover - defensive
            return None
        if isinstance(info, tuple) and len(info) >= 2:
            return (info[0], info[1])
        return None

    async def send(self, payload: bytes) -> None:
        if self._closed:
            raise TransportClosed(f"{self.label}: send on closed transport")
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        header = frame_header(len(payload), self._max_frame_bytes)
        frame_len = LENGTH_BYTES + len(payload)
        try:
            # One write per frame.  A selector transport with an empty
            # buffer sends each write() at once, with TCP_NODELAY set:
            # header and payload written apart are two syscalls and two
            # segments.  writelines() is one sendmsg() of both pieces
            # from Python 3.12, and one send() of their join before it.
            self._writer.writelines((header, payload))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._mark_closed()
            raise TransportClosed(f"{self.label}: peer gone: {exc}") from exc
        self._account_send(payload, frame_len)

    async def recv(self) -> bytes:
        while not self._ready:
            if self._closed:
                raise TransportClosed(
                    f"{self.label}: recv on closed transport"
                )
            try:
                data = await self._reader.read(self.READ_CHUNK)
            except (ConnectionError, OSError) as exc:
                self._mark_closed()
                raise TransportClosed(
                    f"{self.label}: peer gone: {exc}"
                ) from exc
            if not data:
                self._mark_closed()
                raise TransportClosed(f"{self.label}: stream ended")
            try:
                self._ready.extend(self._decoder.feed(data))
            except FrameError as exc:
                # An oversize or garbled frame poisons the stream: there
                # is no way to resynchronise, so the connection dies.
                self._mark_closed()
                raise TransportError(
                    f"{self.label}: poisoned stream: {exc}"
                ) from exc
        payload = self._ready.popleft()
        self._account_recv(payload, len(payload) + 4)
        return payload

    async def close(self) -> None:
        """Close the underlying stream (idempotent)."""
        if not self._closed:
            self._mark_closed()
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # The stream's close waiter is one shared future; cancelling
            # a task parked on it (shutdown kills serving tasks mid-
            # close) cancels the future itself, and every later awaiter
            # would trip over it.  The transport tears down regardless,
            # so there is nothing left to wait for.
            pass
