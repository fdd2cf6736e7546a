"""RFC 6455 WebSocket support for the gateway's ``/v1/subscribe``.

Server-side only, and only the subset a push feed needs: the upgrade
handshake, unmasked server→client text/ping/pong/close frames, and a
streaming parser for (masked) client→server frames with fragmentation
reassembly and hard size bounds.  Extensions and subprotocols are not
negotiated; binary frames are accepted and handed up like text.

Kept dependency-free on purpose — ``hashlib``/``base64`` cover the
handshake, and the frame format is ~40 lines each way.
"""

from __future__ import annotations

import base64
import hashlib
import struct
from typing import Optional

_GUID = b"258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

MAX_MESSAGE_BYTES = 1024 * 1024
MAX_CONTROL_BYTES = 125


class WebSocketError(Exception):
    """A protocol violation; the connection must be closed."""


def accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's key."""
    digest = hashlib.sha1(client_key.encode("ascii") + _GUID).digest()
    return base64.b64encode(digest).decode("ascii")


def handshake_response(client_key: str) -> bytes:
    """The 101 Switching Protocols response completing the upgrade."""
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {accept_key(client_key)}\r\n"
        "\r\n"
    ).encode("ascii")


def encode_frame(opcode: int, payload: bytes = b"", fin: bool = True) -> bytes:
    """One unmasked (server→client) frame."""
    head = bytes([(0x80 if fin else 0) | opcode])
    length = len(payload)
    if length < 126:
        head += bytes([length])
    elif length < 1 << 16:
        head += b"\x7e" + struct.pack(">H", length)
    else:
        head += b"\x7f" + struct.pack(">Q", length)
    return head + payload


def text_frame(text: str) -> bytes:
    return encode_frame(OP_TEXT, text.encode("utf-8"))


def close_frame(code: int = 1000) -> bytes:
    return encode_frame(OP_CLOSE, struct.pack(">H", code))


class FrameParser:
    """Incremental client→server frame parser.

    ``feed(data)`` returns complete messages as ``(opcode, payload)``
    pairs; fragmented data frames are reassembled into one message
    carrying the initial fragment's opcode.  Control frames
    (ping/pong/close) are yielded immediately and may interleave with
    fragments, per the RFC.
    """

    def __init__(self, max_message: int = MAX_MESSAGE_BYTES, *,
                 require_mask: bool = True):
        self._buffer = bytearray()
        self._max_message = max_message
        self._require_mask = require_mask
        self._message = bytearray()
        self._fragment_opcode: Optional[int] = None

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        self._buffer.extend(data)
        messages: list[tuple[int, bytes]] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return messages
            fin, opcode, payload = frame
            if opcode in (OP_CLOSE, OP_PING, OP_PONG):
                if not fin or len(payload) > MAX_CONTROL_BYTES:
                    raise WebSocketError("malformed control frame")
                messages.append((opcode, payload))
                continue
            if opcode == OP_CONT:
                if self._fragment_opcode is None:
                    raise WebSocketError("continuation without a start")
            else:
                if self._fragment_opcode is not None:
                    raise WebSocketError("interleaved data fragments")
                self._fragment_opcode = opcode
            if len(self._message) + len(payload) > self._max_message:
                raise WebSocketError("message too large")
            self._message += payload
            if fin:
                messages.append((self._fragment_opcode, bytes(self._message)))
                self._message.clear()
                self._fragment_opcode = None

    def _next_frame(self) -> Optional[tuple[bool, int, bytes]]:
        buffer = self._buffer
        if len(buffer) < 2:
            return None
        first, second = buffer[0], buffer[1]
        if first & 0x70:
            raise WebSocketError("reserved bits set (no extensions)")
        fin = bool(first & 0x80)
        opcode = first & 0x0F
        masked = bool(second & 0x80)
        length = second & 0x7F
        offset = 2
        if length == 126:
            if len(buffer) < offset + 2:
                return None
            (length,) = struct.unpack_from(">H", buffer, offset)
            offset += 2
        elif length == 127:
            if len(buffer) < offset + 8:
                return None
            (length,) = struct.unpack_from(">Q", buffer, offset)
            offset += 8
        if length > self._max_message:
            raise WebSocketError("frame too large")
        if not masked:
            if self._require_mask:
                # Clients MUST mask (RFC 6455 §5.1); refusing unmasked
                # input keeps intermediary cache-poisoning tricks out.
                raise WebSocketError("client frames must be masked")
            if len(buffer) < offset + length:
                return None
            payload = bytes(buffer[offset:offset + length])
            del buffer[:offset + length]
            return fin, opcode, payload
        if len(buffer) < offset + 4 + length:
            return None
        mask = bytes(buffer[offset:offset + 4])
        offset += 4
        payload = _apply_mask(buffer[offset:offset + length], mask)
        del buffer[:offset + length]
        return fin, opcode, payload


def _apply_mask(data, mask: bytes) -> bytes:
    """*data* XORed with the 4-byte *mask* repeated (RFC 6455 §5.3), as
    one integer XOR: C speed, where a loop per byte costs 0.1 s per MB."""
    length = len(data)
    key = (mask * (length // 4 + 1))[:length]
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(key, "big")
    ).to_bytes(length, "big")


def mask_frame(opcode: int, payload: bytes, mask: bytes, *,
               fin: bool = True) -> bytes:
    """A masked (client→server) frame — used by tests and the loadgen."""
    if len(mask) != 4:
        raise WebSocketError("mask must be 4 bytes")
    head = bytes([(0x80 if fin else 0) | opcode])
    length = len(payload)
    if length < 126:
        head += bytes([0x80 | length])
    elif length < 1 << 16:
        head += b"\xfe" + struct.pack(">H", length)
    else:
        head += b"\xff" + struct.pack(">Q", length)
    return head + mask + _apply_mask(payload, mask)
