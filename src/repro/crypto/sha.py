"""SHA-256 hashing helpers.

Block and certificate identities are SHA-256 digests of canonical wire
encodings.  :class:`Hash` is a thin value type around the 32-byte digest
that provides hex rendering and a short display form for logs.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro import wire

DIGEST_SIZE = 32


class Hash:
    """An immutable 32-byte SHA-256 digest usable as a dict key."""

    __slots__ = ("_digest",)

    def __init__(self, digest: bytes):
        # bytes(n) of an int n allocates n zero bytes: refuse anything
        # that is not already a byte string before converting.
        if not isinstance(digest, (bytes, bytearray, memoryview)):
            raise TypeError(
                f"digest must be bytes, got {type(digest).__name__}"
            )
        digest = bytes(digest)
        if len(digest) != DIGEST_SIZE:
            raise ValueError(
                f"digest must be {DIGEST_SIZE} bytes, got {len(digest)}"
            )
        self._digest = digest

    @classmethod
    def of_bytes(cls, data: bytes) -> "Hash":
        """Hash a raw byte string."""
        return cls(hashlib.sha256(data).digest())

    @classmethod
    def of_value(cls, value: Any) -> "Hash":
        """Hash the canonical wire encoding of any encodable value."""
        return cls.of_bytes(wire.encode(value))

    @classmethod
    def from_hex(cls, text: str) -> "Hash":
        """Parse a 64-character hex digest."""
        return cls(bytes.fromhex(text))

    @property
    def digest(self) -> bytes:
        return self._digest

    def hex(self) -> str:
        return self._digest.hex()

    def short(self) -> str:
        """First 8 hex characters, for human-readable output."""
        return self._digest[:4].hex()

    def __bytes__(self) -> bytes:
        return self._digest

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hash) and self._digest == other._digest

    def __lt__(self, other: "Hash") -> bool:
        if not isinstance(other, Hash):
            return NotImplemented
        return self._digest < other._digest

    def __hash__(self) -> int:
        return hash(self._digest)

    def __repr__(self) -> str:
        return f"Hash({self.short()})"


def sha256(data: bytes) -> bytes:
    """Raw SHA-256 digest of a byte string."""
    return hashlib.sha256(data).digest()


def hash_value(value: Any) -> Hash:
    """Convenience alias for :meth:`Hash.of_value`."""
    return Hash.of_value(value)
