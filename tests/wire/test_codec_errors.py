"""Wire codec error paths under frame damage (ISSUE 3 satellite).

Chaos corruption relies on these raising cleanly: a damaged frame must
surface as :class:`DecodeError` (or, if it still decodes, as a value
validation rejects) — never as a crash or an accepted block.
"""

import pytest

from repro import wire
from repro.chain.block import Block
from repro.chain.errors import ChainError
from repro.chain.validation import BlockValidator
from repro.wire import DecodeError
from repro.wire.codec import TAG_BYTES, TAG_LIST, TAG_STR


class TestTruncatedFrames:
    def test_empty_frame(self):
        with pytest.raises(DecodeError):
            wire.decode(b"")

    @pytest.mark.parametrize(
        "value",
        [b"payload", "text", [1, 2, 3], {"k": b"v"}, 2**40, None],
    )
    def test_every_prefix_of_a_valid_frame_is_rejected(self, value):
        frame = wire.encode(value)
        for cut in range(len(frame)):
            with pytest.raises(DecodeError):
                wire.decode(frame[:cut])

    def test_truncated_inside_varint(self):
        frame = wire.encode(b"x" * 200)  # 200 needs a 2-byte varint
        # Cut in the middle of the length prefix itself.
        with pytest.raises(DecodeError):
            wire.decode(frame[:2])


class TestBadLengthPrefix:
    def test_length_claims_more_bytes_than_present(self):
        with pytest.raises(DecodeError):
            wire.decode(bytes([TAG_BYTES, 5]) + b"abc")

    def test_string_length_overruns_frame(self):
        with pytest.raises(DecodeError):
            wire.decode(bytes([TAG_STR, 10]) + b"hi")

    def test_list_count_exceeds_items(self):
        with pytest.raises(DecodeError):
            wire.decode(bytes([TAG_LIST, 3]) + wire.encode(1))

    def test_length_shorter_than_payload_leaves_trailing_garbage(self):
        with pytest.raises(DecodeError):
            wire.decode(bytes([TAG_BYTES, 2]) + b"abcd")

    def test_unterminated_varint_length(self):
        # Every byte has the continuation bit set: the length never ends.
        with pytest.raises(DecodeError):
            wire.decode(bytes([TAG_BYTES, 0x80, 0x80, 0x80]))


class TestFlippedSignatureByte(object):
    @pytest.fixture
    def signed_block(self, deployment):
        node = deployment.node(0)
        return node.append_transactions([])

    def test_block_decodes_but_signature_verification_fails(
        self, deployment, signed_block
    ):
        wire_form = signed_block.to_wire()  # [header, signature, txs]
        signature = bytearray(wire_form[1])
        signature[7] ^= 0x01
        wire_form[1] = bytes(signature)
        # The frame is still canonical TLV: it decodes into a Block...
        reparsed = Block.from_bytes(wire.encode(wire_form))
        # ...whose hash differs (the hash covers the signature)...
        assert reparsed.hash != signed_block.hash
        # ...and whose signature no longer verifies against the header.
        receiver = deployment.node(1)
        validator = BlockValidator(receiver.dag, receiver.csm.resolve_member)
        with pytest.raises(ChainError):
            validator.validate(reparsed, now_ms=receiver.now_ms() + 10**9)

    def test_any_single_byte_flip_is_never_accepted(
        self, deployment, signed_block
    ):
        """Sampled single-byte flips across the whole frame: each one
        either breaks decoding or fails validation — never slips in."""
        frame = signed_block.to_bytes()
        receiver = deployment.node(1)
        validator = BlockValidator(receiver.dag, receiver.csm.resolve_member)
        for index in range(0, len(frame), 13):
            damaged = bytearray(frame)
            damaged[index] ^= 0xA5
            try:
                block = Block.from_bytes(bytes(damaged))
            except (DecodeError, ChainError):
                continue
            with pytest.raises(ChainError):
                validator.validate(block, now_ms=receiver.now_ms() + 10**9)
