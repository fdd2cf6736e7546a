"""Certificate and CA tests."""

import tracemalloc

import pytest

from repro.crypto.keys import KeyPair
from repro.membership.authority import CertificateAuthority
from repro.membership.certificate import Certificate, CertificateError
from repro.membership.roles import (
    ROLE_OWNER,
    validate_role,
)


@pytest.fixture
def authority():
    return CertificateAuthority(KeyPair.deterministic(100))


@pytest.fixture
def member_key():
    return KeyPair.deterministic(101)


class TestIssuance:
    def test_issued_certificate_verifies(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "medic", issued_at=5)
        assert cert.verify(authority.public_key)

    def test_user_id_is_key_hash(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "medic")
        assert cert.user_id == member_key.user_id

    def test_role_and_timestamp_preserved(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "sensor", issued_at=42)
        assert cert.role == "sensor"
        assert cert.issued_at == 42

    def test_self_certificate_is_owner_role(self, authority):
        cert = authority.self_certificate()
        assert cert.role == ROLE_OWNER
        assert cert.public_key == authority.public_key
        assert cert.verify(authority.public_key)

    def test_invalid_role_rejected(self, authority, member_key):
        with pytest.raises(ValueError):
            authority.issue(member_key.public_key, "Not A Role!")


class TestVerification:
    def test_wrong_ca_rejected(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "medic")
        impostor = CertificateAuthority(KeyPair.deterministic(999))
        assert not cert.verify(impostor.public_key)

    def test_tampered_role_rejected(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "medic")
        forged = Certificate(
            public_key=cert.public_key,
            role="owner",  # privilege escalation attempt
            issued_at=cert.issued_at,
            signature=cert.signature,
        )
        assert not forged.verify(authority.public_key)

    def test_tampered_timestamp_rejected(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "medic", issued_at=1)
        forged = Certificate(
            public_key=cert.public_key,
            role=cert.role,
            issued_at=2,
            signature=cert.signature,
        )
        assert not forged.verify(authority.public_key)

    def test_swapped_key_rejected(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "medic")
        other = KeyPair.deterministic(777)
        forged = Certificate(
            public_key=other.public_key,
            role=cert.role,
            issued_at=cert.issued_at,
            signature=cert.signature,
        )
        assert not forged.verify(authority.public_key)


class TestWireFormat:
    def test_roundtrip(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "medic", issued_at=7)
        restored = Certificate.from_wire(cert.to_wire())
        assert restored == cert
        assert restored.verify(authority.public_key)

    def test_fingerprint_is_stable(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "medic")
        restored = Certificate.from_wire(cert.to_wire())
        assert restored.fingerprint() == cert.fingerprint()

    def test_different_roles_different_fingerprints(
        self, authority, member_key
    ):
        a = authority.issue(member_key.public_key, "medic")
        b = authority.issue(member_key.public_key, "sensor")
        assert a.fingerprint() != b.fingerprint()

    def test_non_map_rejected(self):
        with pytest.raises(CertificateError):
            Certificate.from_wire("not a map")

    def test_missing_field_rejected(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "medic")
        wire_form = cert.to_wire()
        del wire_form["role"]
        with pytest.raises(CertificateError):
            Certificate.from_wire(wire_form)

    def test_bad_key_bytes_rejected(self, authority, member_key):
        cert = authority.issue(member_key.public_key, "medic")
        wire_form = cert.to_wire()
        wire_form["public_key"] = b"short"
        with pytest.raises(CertificateError):
            Certificate.from_wire(wire_form)

    @pytest.mark.parametrize("field,value", [
        ("public_key", 50_000_000),
        ("signature", 50_000_000),
        ("public_key", list(range(32))),
        ("signature", list(range(64))),
    ])
    def test_byte_field_that_is_not_bytes_rejected(
            self, authority, member_key, field, value):
        """``bytes(50_000_000)`` is 50 MB of zeros, and a list of ints
        is a second wire form of the same certificate: key and
        signature are refused unless they are ``bytes`` as decoded."""
        wire_form = authority.issue(member_key.public_key, "medic").to_wire()
        wire_form[field] = value
        tracemalloc.start()
        try:
            with pytest.raises(CertificateError):
                Certificate.from_wire(wire_form)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestRoles:
    @pytest.mark.parametrize(
        "role", ["medic", "a", "role-with-dash", "role_2", "x" * 64]
    )
    def test_valid_roles(self, role):
        assert validate_role(role) == role

    @pytest.mark.parametrize(
        "role", ["", "Upper", "1starts-with-digit", "has space",
                 "x" * 65, None, 42]
    )
    def test_invalid_roles(self, role):
        with pytest.raises(ValueError):
            validate_role(role)
