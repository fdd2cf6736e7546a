"""Length-prefixed framing for byte-stream transports.

A stream (TCP socket, Bluetooth RFCOMM channel, pipe) delivers bytes
without message boundaries; this module restores them.  Every frame is::

    length   4 bytes, big-endian    length of the payload
    payload  <length> bytes         opaque (usually a wire-codec value)

The format is deliberately the simplest thing that works — the payloads
themselves are canonical :mod:`repro.wire` encodings, so no checksum or
type tag is needed at this layer (the codec rejects corruption, and the
block store adds its own SHA-256 per record for at-rest integrity).

Both directions guard against resource exhaustion: :func:`frame_header`
refuses to announce a frame larger than *max_frame_bytes*, and
:class:`FrameDecoder` raises :class:`FrameError` as soon as a length
prefix announces an oversized frame — before buffering a single payload
byte, so a malicious peer cannot make a node allocate unbounded memory.

:class:`FrameDecoder` is incremental: :meth:`~FrameDecoder.feed` accepts
arbitrary chunks (a frame may arrive split across many reads, or many
frames may arrive in one read) and returns the frames completed by that
chunk.  A truncated trailing frame simply stays buffered until more
bytes arrive; :attr:`~FrameDecoder.buffered` exposes how many.

The hot path is allocation-lean: the length prefix is packed and
unpacked by a precompiled :class:`struct.Struct`, each completed payload
is extracted through a single ``memoryview`` copy, and the receive
buffer is compacted once per :meth:`~FrameDecoder.feed` call rather than
once per frame (a burst of *k* frames in one read costs one compaction,
not *k* quadratic ones).  :func:`frame_header` lets a transport write
the prefix and an already-encoded payload as two pieces of one vectored
write instead of concatenating them into a throwaway buffer.
"""

from __future__ import annotations

import struct
from typing import List

from repro.wire.errors import FrameError

LENGTH_BYTES = 4

_LENGTH = struct.Struct(">I")

#: Default ceiling on one frame's payload.  Generous for block batches
#: (a full push of thousands of blocks), far below anything that could
#: exhaust an IoT-class device's memory.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def frame_header(payload_length: int,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """The 4-byte prefix for a payload of *payload_length* bytes.

    Lets a transport hand ``header`` and ``payload`` to one vectored
    write without first copying the payload into a frame buffer.
    """
    if payload_length > max_frame_bytes:
        raise FrameError(
            f"frame payload of {payload_length} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    return _LENGTH.pack(payload_length)


class FrameDecoder:
    """Incremental frame reassembly over an unbounded byte stream.

    Feed chunks as they arrive; each :meth:`feed` returns the payloads
    of every frame the chunk completed (possibly none, possibly many).
    The decoder never loses bytes across calls and never buffers more
    than one frame's worth of payload plus one partial length prefix.
    """

    __slots__ = ("_buffer", "_max_frame_bytes")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        if max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be positive")
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes

    @property
    def max_frame_bytes(self) -> int:
        return self._max_frame_bytes

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        """Absorb a chunk; return the payloads it completed, in order.

        Raises :class:`FrameError` the moment a length prefix announces
        a payload over :attr:`max_frame_bytes`; the decoder is then
        poisoned (the stream has lost sync) and the connection should be
        dropped.
        """
        buffer = self._buffer
        buffer += data
        frames: List[bytes] = []
        pos = 0
        available = len(buffer)
        unpack_length = _LENGTH.unpack_from
        try:
            view = memoryview(buffer)
            try:
                while available - pos >= LENGTH_BYTES:
                    (length,) = unpack_length(buffer, pos)
                    if length > self._max_frame_bytes:
                        raise FrameError(
                            f"incoming frame announces {length} bytes, "
                            f"over the {self._max_frame_bytes}-byte limit"
                        )
                    end = pos + LENGTH_BYTES + length
                    if available < end:
                        break
                    frames.append(bytes(view[pos + LENGTH_BYTES:end]))
                    pos = end
            finally:
                # Must release before the compaction below: a bytearray
                # cannot resize while a view of it is exported.
                view.release()
        finally:
            if pos:
                del buffer[:pos]
        return frames
