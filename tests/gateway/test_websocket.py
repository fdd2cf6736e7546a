"""RFC 6455 codec: handshake vector, frames, fragmentation, bounds."""

import struct
import time
import tracemalloc

import pytest

from repro.gateway import websocket as ws


class TestHandshake:
    def test_rfc6455_sample_accept_key(self):
        # The worked example from RFC 6455 §1.3.
        assert (
            ws.accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    def test_handshake_response_shape(self):
        response = ws.handshake_response("dGhlIHNhbXBsZSBub25jZQ==")
        assert response.startswith(b"HTTP/1.1 101 Switching Protocols\r\n")
        assert b"Sec-WebSocket-Accept: s3pPLMBiTxaQ9kYGzzhZRbK+xOo=\r\n" in response
        assert response.endswith(b"\r\n\r\n")


class TestFrames:
    def test_masked_round_trip(self):
        parser = ws.FrameParser()
        frame = ws.mask_frame(ws.OP_TEXT, b"hello", b"\x01\x02\x03\x04")
        assert parser.feed(frame) == [(ws.OP_TEXT, b"hello")]

    def test_extended_16bit_length(self):
        payload = b"x" * 500
        parser = ws.FrameParser()
        frame = ws.mask_frame(ws.OP_BINARY, payload, b"abcd")
        assert parser.feed(frame) == [(ws.OP_BINARY, payload)]

    def test_byte_at_a_time_reassembly(self):
        parser = ws.FrameParser()
        frame = ws.mask_frame(ws.OP_TEXT, b"drip", b"abcd")
        messages = []
        for index in range(len(frame)):
            messages += parser.feed(frame[index:index + 1])
        assert messages == [(ws.OP_TEXT, b"drip")]

    def test_fragmented_message_reassembles(self):
        parser = ws.FrameParser()
        first = ws.mask_frame(ws.OP_TEXT, b"spl", b"abcd", fin=False)
        middle = ws.mask_frame(ws.OP_CONT, b"it-", b"abcd", fin=False)
        last = ws.mask_frame(ws.OP_CONT, b"up", b"abcd")
        messages = parser.feed(first) + parser.feed(middle)
        assert messages == []
        assert parser.feed(last) == [(ws.OP_TEXT, b"split-up")]

    def test_control_frame_interleaves_with_fragments(self):
        parser = ws.FrameParser()
        first = ws.mask_frame(ws.OP_TEXT, b"ha", b"abcd", fin=False)
        ping = ws.mask_frame(ws.OP_PING, b"hb", b"abcd")
        last = ws.mask_frame(ws.OP_CONT, b"lf", b"abcd")
        messages = parser.feed(first + ping + last)
        assert messages == [(ws.OP_PING, b"hb"), (ws.OP_TEXT, b"half")]

    def test_server_frames_parse_with_require_mask_off(self):
        parser = ws.FrameParser(require_mask=False)
        assert parser.feed(ws.text_frame("push")) == [
            (ws.OP_TEXT, b"push")
        ]
        close = parser.feed(ws.close_frame(1013))
        assert close == [(ws.OP_CLOSE, struct.pack(">H", 1013))]


class TestProtocolViolations:
    def test_unmasked_client_frame_rejected(self):
        parser = ws.FrameParser()
        with pytest.raises(ws.WebSocketError, match="masked"):
            parser.feed(ws.text_frame("cheeky"))

    def test_reserved_bits_rejected(self):
        frame = bytearray(ws.mask_frame(ws.OP_TEXT, b"x", b"abcd"))
        frame[0] |= 0x40  # RSV1 without a negotiated extension
        with pytest.raises(ws.WebSocketError, match="reserved"):
            ws.FrameParser().feed(bytes(frame))

    def test_oversize_control_frame_rejected(self):
        payload = b"p" * 126
        head = bytes([0x80 | ws.OP_PING, 0x80 | 126]) + struct.pack(
            ">H", len(payload)
        )
        masked = bytes(b ^ b"abcd"[i & 3] for i, b in enumerate(payload))
        with pytest.raises(ws.WebSocketError, match="control"):
            ws.FrameParser().feed(head + b"abcd" + masked)

    def test_fragmented_control_frame_rejected(self):
        frame = ws.mask_frame(ws.OP_PING, b"x", b"abcd", fin=False)
        with pytest.raises(ws.WebSocketError, match="control"):
            ws.FrameParser().feed(frame)

    def test_continuation_without_start_rejected(self):
        frame = ws.mask_frame(ws.OP_CONT, b"orphan", b"abcd")
        with pytest.raises(ws.WebSocketError, match="continuation"):
            ws.FrameParser().feed(frame)

    def test_interleaved_data_fragments_rejected(self):
        first = ws.mask_frame(ws.OP_TEXT, b"one", b"abcd", fin=False)
        second = ws.mask_frame(ws.OP_TEXT, b"two", b"abcd", fin=False)
        parser = ws.FrameParser()
        parser.feed(first)
        with pytest.raises(ws.WebSocketError, match="interleaved"):
            parser.feed(second)

    def test_message_size_bound_enforced(self):
        parser = ws.FrameParser(max_message=16)
        frame = ws.mask_frame(ws.OP_TEXT, b"y" * 17, b"abcd")
        with pytest.raises(ws.WebSocketError, match="large"):
            parser.feed(frame)

    def test_fragment_total_counts_against_bound(self):
        parser = ws.FrameParser(max_message=16)
        first = ws.mask_frame(ws.OP_TEXT, b"a" * 10, b"abcd", fin=False)
        parser.feed(first)
        second = ws.mask_frame(ws.OP_CONT, b"b" * 10, b"abcd")
        with pytest.raises(ws.WebSocketError, match="large"):
            parser.feed(second)

    def test_empty_continuations_parse_in_linear_time(self):
        """Each empty continuation frame costs the same however many
        came before it: 60 006 bytes take well under 0.2 s of CPU and
        1 MB of memory, not the seconds a per-frame re-count took."""
        stream = ws.mask_frame(ws.OP_TEXT, b"", b"abcd", fin=False)
        stream += ws.mask_frame(ws.OP_CONT, b"", b"abcd", fin=False) * 9_999
        stream += ws.mask_frame(ws.OP_CONT, b"", b"abcd")
        assert len(stream) == 60_006

        def feed_all():
            parser, messages = ws.FrameParser(), []
            for offset in range(0, len(stream), 4096):
                messages += parser.feed(stream[offset:offset + 4096])
            return messages

        # CPU untraced (tracemalloc alone costs more than the parse),
        # then the memory peak on a second parse.
        started = time.process_time()
        assert feed_all() == [(ws.OP_TEXT, b"")]
        assert time.process_time() - started < 0.2
        tracemalloc.start()
        try:
            feed_all()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_a_large_frame_unmasks_at_c_speed(self):
        """One masked frame of the largest message a client may send
        unmasks in well under 0.02 s of CPU, not the 0.12 s of a loop
        per byte."""
        payload = bytes(range(256)) * (ws.MAX_MESSAGE_BYTES // 256)
        mask = b"\x00\xa5\x5a\xff"
        frame = ws.mask_frame(ws.OP_BINARY, payload, mask)
        # RFC 6455 §5.3 byte by byte, the reference.
        assert frame[-len(payload):] == bytes(
            byte ^ mask[index & 3] for index, byte in enumerate(payload)
        )
        parser = ws.FrameParser()
        started = time.process_time()
        messages = parser.feed(frame)
        assert time.process_time() - started < 0.02
        assert messages == [(ws.OP_BINARY, payload)]

    def test_bad_mask_length_rejected(self):
        with pytest.raises(ws.WebSocketError, match="mask"):
            ws.mask_frame(ws.OP_TEXT, b"x", b"abc")
