"""SHA-256 hashing helpers.

Block and certificate identities are SHA-256 digests of canonical wire
encodings.  :class:`Hash` is the 32-byte digest itself, as a ``bytes``
subclass: hashing it, and therefore every dict and set lookup keyed by
it, runs in C (CPython caches a ``bytes`` object's hash in the object).

Its equality contract is narrower than ``bytes``'s: a ``Hash`` equals
only another ``Hash`` with the same digest, never the raw digest, and
ordering a ``Hash`` against anything else raises ``TypeError`` — so a
raw digest that strays into a table of block identities can neither
match one nor sort among them.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro import wire

DIGEST_SIZE = 32


def _unordered(other: object) -> TypeError:
    return TypeError(
        f"cannot order Hash against {type(other).__name__}"
    )


class Hash(bytes):
    """An immutable 32-byte SHA-256 digest usable as a dict key."""

    __slots__ = ()

    def __new__(cls, digest: bytes) -> "Hash":
        # bytes(n) of an int n allocates n zero bytes: refuse anything
        # that is not already a byte string before converting.
        if not isinstance(digest, (bytes, bytearray, memoryview)):
            raise TypeError(
                f"digest must be bytes, got {type(digest).__name__}"
            )
        self = bytes.__new__(cls, digest)
        if len(self) != DIGEST_SIZE:
            raise ValueError(
                f"digest must be {DIGEST_SIZE} bytes, got {len(self)}"
            )
        return self

    @classmethod
    def of_bytes(cls, data: bytes) -> "Hash":
        """Hash a raw byte string."""
        # A SHA-256 digest is always DIGEST_SIZE bytes: no check needed.
        return bytes.__new__(cls, hashlib.sha256(data).digest())

    @classmethod
    def of_value(cls, value: Any) -> "Hash":
        """Hash the canonical wire encoding of any encodable value."""
        return cls.of_bytes(wire.encode(value))

    @classmethod
    def from_hex(cls, text: str) -> "Hash":
        """Parse a 64-character hex digest."""
        return cls(bytes.fromhex(text))

    #: The digest as a plain ``bytes`` object (a copy).
    digest = property(bytes)

    def short(self) -> str:
        """First 8 hex characters, for human-readable output."""
        return self[:4].hex()

    # ``bytes`` would answer all of these against any byte string, in
    # either operand order (it takes the subclass's reflected method
    # first), so each one is spelled out.
    __hash__ = bytes.__hash__

    def __eq__(self, other: object) -> bool:
        return type(other) is Hash and bytes.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not Hash or bytes.__ne__(self, other)

    def __lt__(self, other: "Hash") -> bool:
        if type(other) is not Hash:
            raise _unordered(other)
        return bytes.__lt__(self, other)

    def __le__(self, other: "Hash") -> bool:
        if type(other) is not Hash:
            raise _unordered(other)
        return bytes.__le__(self, other)

    def __gt__(self, other: "Hash") -> bool:
        if type(other) is not Hash:
            raise _unordered(other)
        return bytes.__gt__(self, other)

    def __ge__(self, other: "Hash") -> bool:
        if type(other) is not Hash:
            raise _unordered(other)
        return bytes.__ge__(self, other)

    def __reduce__(self):
        return (Hash, (bytes(self),))

    def __repr__(self) -> str:
        return f"Hash({self.short()})"

    __str__ = __repr__


def sha256(data: bytes) -> bytes:
    """Raw SHA-256 digest of a byte string."""
    return hashlib.sha256(data).digest()


def hash_value(value: Any) -> Hash:
    """Convenience alias for :meth:`Hash.of_value`."""
    return Hash.of_value(value)
