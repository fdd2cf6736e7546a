"""Beacon encode/decode: round trips, forgery, and garbage."""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import wire
from repro.crypto.keys import KeyPair
from repro.crypto.sha import Hash
from repro.discovery.beacon import (
    Beacon,
    BeaconDecodeError,
    BeaconError,
    BeaconSignatureError,
    MAX_BEACON_BYTES,
    decode_beacon,
    encode_beacon,
    frontier_digest,
)

from tests.conftest import Deployment


def _beacon_bytes(deployment, index=0, port=7400, epoch=3, seq=7):
    node = deployment.node(index)
    key = deployment.keys[index]
    return encode_beacon(
        key, node.chain_id, port, f"n{index}",
        frontier_digest(node), epoch, seq,
    )


class TestRoundTrip:
    def test_all_fields_survive(self):
        deployment = Deployment()
        node = deployment.node(0)
        datagram = _beacon_bytes(deployment, port=7412, epoch=9, seq=42)
        beacon = decode_beacon(datagram)
        assert beacon.chain == node.chain_id
        assert beacon.node_id == deployment.keys[0].user_id
        assert beacon.port == 7412
        assert beacon.name == "n0"
        assert beacon.frontier == frontier_digest(node)
        assert beacon.stamp == (9, 42)

    def test_beacons_are_small(self):
        deployment = Deployment()
        assert len(_beacon_bytes(deployment)) <= MAX_BEACON_BYTES

    def test_frontier_digest_tracks_the_dag(self):
        deployment = Deployment()
        node = deployment.node(0)
        before = frontier_digest(node)
        node.append_transactions([])
        assert frontier_digest(node) != before

    def test_encoding_is_deterministic(self):
        deployment = Deployment()
        assert _beacon_bytes(deployment) == _beacon_bytes(deployment)


class TestRejection:
    def test_oversize_datagram_refused_unparsed(self):
        with pytest.raises(BeaconDecodeError, match="exceeds"):
            decode_beacon(b"\x00" * (MAX_BEACON_BYTES + 1))

    def test_garbage_bytes_refused(self):
        with pytest.raises(BeaconDecodeError):
            decode_beacon(b"not a beacon at all")

    def test_wrong_map_type_refused(self):
        payload = wire.encode({"type": "live_hello", "v": 1})
        with pytest.raises(BeaconDecodeError, match="not a vgv_beacon"):
            decode_beacon(payload)

    def test_unknown_version_refused(self):
        deployment = Deployment()
        decoded = wire.decode(_beacon_bytes(deployment))
        decoded["v"] = 99
        with pytest.raises(BeaconDecodeError, match="version"):
            decode_beacon(wire.encode(decoded))

    @pytest.mark.parametrize("field,value", [
        ("v", True), ("epoch", True), ("seq", True), ("port", True),
    ])
    def test_boolean_is_not_an_integer(self, field, value):
        """``True == 1``: a boolean where an integer is signed would be
        a second wire form of the same beacon."""
        deployment = Deployment()
        decoded = wire.decode(
            _beacon_bytes(deployment, port=1, epoch=1, seq=1)
        )
        decoded[field] = value
        with pytest.raises(BeaconDecodeError):
            decode_beacon(wire.encode(decoded))

    def test_missing_field_refused(self):
        deployment = Deployment()
        decoded = wire.decode(_beacon_bytes(deployment))
        del decoded["port"]
        with pytest.raises(BeaconDecodeError):
            decode_beacon(wire.encode(decoded))

    @pytest.mark.parametrize("port", [0, -1, 65536, "7400"])
    def test_bad_port_refused(self, port):
        deployment = Deployment()
        decoded = wire.decode(_beacon_bytes(deployment))
        decoded["port"] = port
        with pytest.raises(BeaconDecodeError):
            decode_beacon(wire.encode(decoded))


class TestForgery:
    def test_flipped_signature_refused(self):
        deployment = Deployment()
        datagram = bytearray(_beacon_bytes(deployment))
        datagram[-1] ^= 0x01
        with pytest.raises(BeaconSignatureError):
            decode_beacon(bytes(datagram))

    def test_tampered_port_refused(self):
        deployment = Deployment()
        decoded = wire.decode(_beacon_bytes(deployment, port=7400))
        decoded["port"] = 7401  # redirect dials without re-signing
        with pytest.raises(BeaconSignatureError, match="signature"):
            decode_beacon(wire.encode(decoded))

    def test_tampered_epoch_refused(self):
        deployment = Deployment()
        decoded = wire.decode(_beacon_bytes(deployment, epoch=3))
        decoded["epoch"] = 4  # fake a rejoin
        with pytest.raises(BeaconSignatureError):
            decode_beacon(wire.encode(decoded))

    def test_node_id_must_hash_the_public_key(self):
        deployment = Deployment()
        decoded = wire.decode(_beacon_bytes(deployment))
        decoded["node"] = Hash.of_bytes(b"somebody else").digest
        with pytest.raises(BeaconSignatureError, match="hash"):
            decode_beacon(wire.encode(decoded))

    def test_wrong_key_cannot_sign_for_another_id(self):
        # Mallory re-signs Alice's body with her own key but keeps
        # Alice's node id: the identity binding catches it.
        deployment = Deployment()
        node = deployment.node(0)
        mallory = KeyPair.deterministic(555)
        from repro.discovery.beacon import _body

        body = _body(
            node.chain_id, deployment.keys[0].user_id,
            deployment.keys[0].public_key, 7400, "n0",
            frontier_digest(node), 3, 7,
        )
        forged = wire.encode({**body, "sig": mallory.sign(wire.encode(body))})
        with pytest.raises(BeaconSignatureError):
            decode_beacon(forged)


def _decode_within(datagram, bound=1_000_000):
    """``decode_beacon(datagram)`` (the Beacon or the BeaconError it
    raised), asserting its tracemalloc peak stays under *bound* bytes."""
    tracemalloc.start()
    try:
        try:
            result = decode_beacon(datagram)
        except BeaconError as exc:
            result = exc
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"{peak} bytes to decode {len(datagram)}"
    return result


class TestByteFields:
    @pytest.mark.parametrize("field", ["chain", "node", "pub", "frontier",
                                       "sig"])
    def test_integer_is_refused_without_allocating_it(self, field):
        """``bytes(50_000_000)`` is 50 MB: one small unsigned datagram
        must not make a listener allocate what it names."""
        decoded = wire.decode(_beacon_bytes(Deployment()))
        decoded[field] = 50_000_000
        datagram = wire.encode(decoded)
        assert len(datagram) <= MAX_BEACON_BYTES
        assert isinstance(_decode_within(datagram), BeaconDecodeError)

    @pytest.mark.parametrize("field", ["chain", "node", "pub", "frontier",
                                       "sig"])
    def test_list_of_ints_is_not_a_byte_string(self, field):
        """A list of byte values was taken as the bytes it spells: a
        second wire form of a signed beacon."""
        decoded = wire.decode(_beacon_bytes(Deployment()))
        decoded[field] = list(decoded[field])
        datagram = wire.encode(decoded)
        assert len(datagram) <= MAX_BEACON_BYTES
        assert isinstance(_decode_within(datagram), BeaconDecodeError)


_FIELDS = ("type", "v", "chain", "node", "pub", "port", "name", "frontier",
           "epoch", "seq", "sig")

_wire_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-2 ** 1000, max_value=2 ** 1000)
    | st.binary(max_size=80) | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

_HONEST = wire.decode(_beacon_bytes(Deployment()))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    replaced=st.dictionaries(st.sampled_from(_FIELDS), _wire_values,
                             max_size=4),
    dropped=st.sets(st.sampled_from(_FIELDS), max_size=2),
)
def test_any_beacon_map_decodes_in_bounded_memory(replaced, dropped):
    """Any map a datagram can carry, built from an honest beacon by
    replacing and dropping fields: the decoder returns a beacon or a
    BeaconError, never anything else, within 1 MB."""
    decoded = {**_HONEST, **replaced}
    for field in dropped:
        decoded.pop(field, None)
    datagram = wire.encode(decoded)
    if len(datagram) > MAX_BEACON_BYTES:
        return
    result = _decode_within(datagram)
    if isinstance(result, Beacon):
        # Only the signed body itself gets through.
        assert wire.encode(decoded) == wire.encode(_HONEST)
