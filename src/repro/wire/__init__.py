"""Canonical binary wire format (S1).

Every object that is hashed or signed in Vegvisir — blocks, transactions,
certificates, reconciliation messages — must serialize to exactly one byte
string, or signatures and block hashes would be ambiguous.  This package
provides a small, self-contained, deterministic tag-length-value codec with
strict canonicity checking on decode.
"""

from repro.wire.codec import (
    MAX_DEPTH, Encoded, decode, encode, encoded_size,
)
from repro.wire.errors import DecodeError, EncodeError, FrameError, WireError
from repro.wire.framing import (
    FrameDecoder,
    MAX_FRAME_BYTES,
    frame_header,
)

__all__ = [
    "DecodeError",
    "EncodeError",
    "Encoded",
    "FrameDecoder",
    "FrameError",
    "MAX_DEPTH",
    "MAX_FRAME_BYTES",
    "WireError",
    "decode",
    "encode",
    "encoded_size",
    "frame_header",
]
