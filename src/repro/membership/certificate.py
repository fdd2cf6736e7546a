"""Public key certificates (§IV-F).

A certificate binds ``(user_id, public_key, role)`` and carries a digital
signature from the blockchain owner (the CA).  The owner's own certificate
is self-signed and embedded in the genesis block.  Certificates are plain
values: they serialize to canonical wire maps, hash to stable identities,
and are stored as elements of the membership 2P-set ``U``.
"""

from __future__ import annotations

from typing import Any

from repro import wire
from repro.crypto.ed25519 import PublicKey, SignatureError
from repro.crypto.sha import Hash
from repro.membership.roles import validate_role


class CertificateError(Exception):
    """A certificate failed to parse or verify."""


class Certificate:
    """An immutable role certificate.

    Attributes:
        user_id: SHA-256 of the member's public key.
        public_key: the member's Ed25519 public key.
        role: the member's role (drives CRDT access control).
        issued_at: issuance timestamp, integer milliseconds.
        signature: CA signature over the certificate payload.
    """

    __slots__ = ("user_id", "public_key", "role", "issued_at", "signature",
                 "_fingerprint")

    def __init__(
        self,
        public_key: PublicKey,
        role: str,
        issued_at: int,
        signature: bytes,
    ):
        self.public_key = public_key
        self.role = validate_role(role)
        self.issued_at = int(issued_at)
        self.signature = bytes(signature)
        self.user_id = Hash.of_bytes(public_key.data)
        self._fingerprint: Hash | None = None

    def signing_payload(self) -> bytes:
        """Canonical bytes the CA signs (everything except the signature)."""
        return wire.encode(
            {
                "issued_at": self.issued_at,
                "public_key": self.public_key.data,
                "role": self.role,
            }
        )

    def verify(self, ca_key: PublicKey) -> bool:
        """Check the CA signature."""
        return ca_key.verify(self.signing_payload(), self.signature)

    def fingerprint(self) -> Hash:
        """Content hash identifying this exact certificate.

        Computed once: certificates are immutable, and the CS-machine
        consults fingerprints on every member resolution.
        """
        if self._fingerprint is None:
            self._fingerprint = Hash.of_value(self.to_wire())
        return self._fingerprint

    def to_wire(self) -> dict:
        """Wire-encodable map representation."""
        return {
            "issued_at": self.issued_at,
            "public_key": self.public_key.data,
            "role": self.role,
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, value: Any) -> "Certificate":
        """Parse a wire map; raises :class:`CertificateError` on bad shape.

        Key and signature are taken only as ``bytes``: coercing a wire
        integer would allocate that many bytes before any check.
        """
        if not isinstance(value, dict):
            raise CertificateError("certificate must be a map")
        try:
            key, signature = value["public_key"], value["signature"]
            if not isinstance(key, bytes) or not isinstance(signature, bytes):
                raise CertificateError("key and signature must be bytes")
            return cls(
                public_key=PublicKey(key),
                role=value["role"],
                issued_at=value["issued_at"],
                signature=signature,
            )
        except (KeyError, TypeError, ValueError, SignatureError) as exc:
            raise CertificateError(f"malformed certificate: {exc}") from exc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Certificate)
            and self.public_key == other.public_key
            and self.role == other.role
            and self.issued_at == other.issued_at
            and self.signature == other.signature
        )

    def __hash__(self) -> int:
        return hash((self.public_key, self.role, self.issued_at, self.signature))

    def __repr__(self) -> str:
        return (
            f"Certificate(user={self.user_id.short()}, role={self.role!r})"
        )
