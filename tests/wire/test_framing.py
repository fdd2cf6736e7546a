"""Length-prefixed framing: split, coalesced, truncated, oversized."""

import asyncio

import pytest

from repro import wire
from repro.live.transport import TransportClosed
from repro.wire.framing import FrameDecoder, LENGTH_BYTES, frame_header

from tests.live.memory_runtime import stream_pair


def framed(payload: bytes) -> bytes:
    return frame_header(len(payload)) + payload


class TestEncodeFrame:
    """A frame is its header and then its payload."""

    def test_round_trip(self):
        frame = framed(b"hello")
        assert frame == len(b"hello").to_bytes(LENGTH_BYTES, "big") + b"hello"
        assert FrameDecoder().feed(frame) == [b"hello"]

    def test_empty_payload_is_legal(self):
        assert FrameDecoder().feed(framed(b"")) == [b""]

    def test_oversize_payload_refused(self):
        with pytest.raises(wire.FrameError):
            frame_header(11, max_frame_bytes=10)

    def test_at_limit_allowed(self):
        frame = frame_header(10, max_frame_bytes=10) + b"x" * 10
        decoder = FrameDecoder(max_frame_bytes=10)
        assert decoder.feed(frame) == [b"x" * 10]


class TestFrameDecoder:
    def test_many_frames_in_one_chunk(self):
        data = b"".join(framed(p) for p in (b"a", b"bb", b"ccc"))
        decoder = FrameDecoder()
        assert decoder.feed(data) == [b"a", b"bb", b"ccc"]
        assert decoder.buffered == 0

    def test_frame_split_byte_by_byte(self):
        frame = framed(b"payload")
        decoder = FrameDecoder()
        seen = []
        for i in range(len(frame)):
            seen.extend(decoder.feed(frame[i:i + 1]))
        assert seen == [b"payload"]
        assert decoder.buffered == 0

    def test_split_inside_length_prefix(self):
        frame = framed(b"xy")
        decoder = FrameDecoder()
        assert decoder.feed(frame[:2]) == []
        assert decoder.buffered == 2
        assert decoder.feed(frame[2:]) == [b"xy"]

    def test_truncated_frame_stays_buffered(self):
        frame = framed(b"incomplete")
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-3]) == []
        assert decoder.buffered == len(frame) - 3
        # The remainder completes it, plus a follow-up frame piggybacks.
        assert decoder.feed(frame[-3:] + framed(b"next")) == [
            b"incomplete", b"next",
        ]

    def test_oversize_announcement_raises_before_buffering(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        huge_prefix = (1_000_000).to_bytes(LENGTH_BYTES, "big")
        with pytest.raises(wire.FrameError):
            decoder.feed(huge_prefix)

    def test_bad_max_rejected(self):
        with pytest.raises(ValueError):
            FrameDecoder(max_frame_bytes=0)


class TestIncrementalFuzz:
    PAYLOADS = [
        b"", b"x", b"yz", b"\x00" * 5, bytes(range(256)),
        wire.encode({"type": "get_frontier", "have": [b"\x07" * 32]}),
        b"tail",
    ]

    def test_byte_at_a_time_across_frame_boundaries(self):
        # The regression this pins: a decoder fed single bytes must
        # emit each frame exactly when its final byte arrives — never
        # early, never merged with the next frame — including
        # zero-length payloads whose frames are all prefix.
        stream = b"".join(framed(p) for p in self.PAYLOADS)
        boundaries = set()
        offset = 0
        for payload in self.PAYLOADS:
            offset += LENGTH_BYTES + len(payload)
            boundaries.add(offset)
        decoder = FrameDecoder()
        seen = []
        for position in range(len(stream)):
            out = decoder.feed(stream[position:position + 1])
            if position + 1 in boundaries:
                assert len(out) == 1, f"no frame at boundary {position + 1}"
            else:
                assert out == []
            seen.extend(out)
        assert seen == self.PAYLOADS
        assert decoder.buffered == 0

    def test_random_chunking_reassembles_identically(self):
        import random

        stream = b"".join(framed(p) for p in self.PAYLOADS)
        for seed in range(20):
            rng = random.Random(seed)
            decoder = FrameDecoder()
            seen = []
            position = 0
            while position < len(stream):
                step = rng.randint(1, 7)
                seen.extend(decoder.feed(stream[position:position + step]))
                position += step
            assert seen == self.PAYLOADS, f"seed {seed}"
            assert decoder.buffered == 0


class TestDecodeFrames:
    def test_trailing_partial_frame_raises(self):
        """A stream that ends mid-frame yields its whole frames, then
        fails rather than hand over a short payload."""
        async def scenario():
            near, far = stream_pair()
            near._writer.write(framed(b"whole") + b"\x00\x00")
            await near.close()
            assert await far.recv() == b"whole"
            with pytest.raises(TransportClosed):
                await far.recv()
            await far.close()

        asyncio.run(scenario())

    def test_empty_input_is_no_frames(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"") == []
        assert decoder.buffered == 0
