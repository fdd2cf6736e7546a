"""Signed beacon datagrams — the Google Nearby substitute.

Vegvisir's deployment model assumes devices find each other through
whatever rendezvous the radio offers (Bluetooth, Google Nearby, §V).
On an IP network the closest analogue is a periodic UDP multicast
*beacon*: a tiny signed advertisement carrying everything a stranger
needs to decide whether to dial us —

* the **chain id** (genesis hash): nodes on a different blockchain are
  not peers, §IV-G;
* the **node id** (SHA-256 of the Ed25519 public key) and the public
  key itself, so the signature is verifiable without any prior state;
* the **TCP listen port** reconciliation sessions should dial;
* a **frontier digest**, a cheap hint of whether the sender holds
  anything we lack;
* a monotonic **(epoch, seq)** pair — epoch bumps on restart, seq on
  every beacon — so receivers can order advertisements and tell a
  rejoin from a replayed datagram.

The payload is the canonical :mod:`repro.wire` encoding of the body
map with an Ed25519 signature over that same encoding appended
(canonical encoding is what makes sign-over-encoding sound: there is
exactly one byte string for a given body).  Anyone can *read* a
beacon; nobody can *forge* one for a node id they do not own, because
the node id is bound to the embedded public key by hashing.
"""

from __future__ import annotations

from repro import wire
from repro.crypto.ed25519 import PUBLIC_KEY_SIZE, SIGNATURE_SIZE, PublicKey
from repro.crypto.keys import KeyPair
from repro.crypto.sha import DIGEST_SIZE, Hash

BEACON_TYPE = "vgv_beacon"
BEACON_VERSION = 1

#: Hard size guard: a beacon is a fixed-shape map of small fields, so
#: anything larger is garbage (or hostile) and is dropped unparsed.
MAX_BEACON_BYTES = 512


class BeaconError(Exception):
    """Base class for beacon parsing/verification failures."""


class BeaconDecodeError(BeaconError):
    """The datagram is not a structurally valid beacon."""


class BeaconSignatureError(BeaconError):
    """The beacon's signature or identity binding does not verify."""


class Beacon:
    """One decoded (and, via :func:`decode_beacon`, verified) beacon."""

    __slots__ = (
        "chain", "node_id", "public_key", "port", "name",
        "frontier", "epoch", "seq",
    )

    def __init__(self, chain: Hash, node_id: Hash, public_key: PublicKey,
                 port: int, name: str, frontier: Hash,
                 epoch: int, seq: int):
        self.chain = chain
        self.node_id = node_id
        self.public_key = public_key
        self.port = int(port)
        self.name = name
        self.frontier = frontier
        self.epoch = int(epoch)
        self.seq = int(seq)

    @property
    def stamp(self) -> tuple:
        """The (epoch, seq) ordering key of this advertisement."""
        return (self.epoch, self.seq)

    def __repr__(self) -> str:
        return (
            f"Beacon({self.name!r}, node={self.node_id.short()}, "
            f"port={self.port}, epoch={self.epoch}, seq={self.seq})"
        )


def _body(chain: Hash, node_id: Hash, public_key: PublicKey, port: int,
          name: str, frontier: Hash, epoch: int, seq: int) -> dict:
    return {
        "type": BEACON_TYPE,
        "v": BEACON_VERSION,
        "chain": chain.digest,
        "node": node_id.digest,
        "pub": public_key.data,
        "port": int(port),
        "name": name,
        "frontier": frontier.digest,
        "epoch": int(epoch),
        "seq": int(seq),
    }


def encode_beacon(key_pair: KeyPair, chain: Hash, port: int, name: str,
                  frontier: Hash, epoch: int, seq: int) -> bytes:
    """Encode and sign one beacon datagram for *key_pair*."""
    body = _body(chain, key_pair.user_id, key_pair.public_key,
                 port, name, frontier, epoch, seq)
    signature = key_pair.sign(wire.encode(body))
    return wire.encode({**body, "sig": signature})


def _field(decoded: dict, key: str, size: int) -> bytes:
    """A byte field exactly as decoded, nothing coerced: ``bytes(n)`` of
    a wire integer would allocate *n* bytes before any check."""
    value = decoded[key]
    if not isinstance(value, bytes) or len(value) != size:
        raise BeaconDecodeError(f"beacon {key!r} must be {size} bytes")
    return value


def decode_beacon(datagram: bytes) -> Beacon:
    """Decode and fully verify one datagram into a :class:`Beacon`.

    Raises :class:`BeaconDecodeError` for structural garbage and
    :class:`BeaconSignatureError` when the signature, or the binding
    ``node == SHA-256(pub)``, fails — the two are distinguished so the
    directory can account corruption separately from forgery.
    """
    if len(datagram) > MAX_BEACON_BYTES:
        raise BeaconDecodeError(
            f"beacon exceeds {MAX_BEACON_BYTES} bytes ({len(datagram)})"
        )
    try:
        decoded = wire.decode(datagram)
    except wire.DecodeError as exc:
        raise BeaconDecodeError(f"undecodable beacon: {exc}") from exc
    if not isinstance(decoded, dict) or decoded.get("type") != BEACON_TYPE:
        raise BeaconDecodeError("datagram is not a vgv_beacon map")
    version = decoded.get("v")
    if type(version) is not int or version != BEACON_VERSION:
        raise BeaconDecodeError(
            f"unsupported beacon version {version!r}"
        )
    try:
        chain = _field(decoded, "chain", DIGEST_SIZE)
        node = _field(decoded, "node", DIGEST_SIZE)
        pub = _field(decoded, "pub", PUBLIC_KEY_SIZE)
        port = decoded["port"]
        name = decoded["name"]
        frontier = _field(decoded, "frontier", DIGEST_SIZE)
        epoch = decoded["epoch"]
        seq = decoded["seq"]
        signature = _field(decoded, "sig", SIGNATURE_SIZE)
    except KeyError as exc:
        raise BeaconDecodeError(f"beacon missing field: {exc}") from exc
    if type(port) is not int or not 0 < port < 65536:
        raise BeaconDecodeError(f"beacon port out of range: {port!r}")
    if not isinstance(name, str):
        raise BeaconDecodeError("beacon name must be a string")
    if type(epoch) is not int or type(seq) is not int:
        raise BeaconDecodeError("beacon epoch/seq must be integers")
    try:
        public_key = PublicKey(pub)
    except Exception as exc:
        raise BeaconDecodeError(f"bad public key: {exc}") from exc
    if Hash.of_bytes(pub).digest != node:
        raise BeaconSignatureError(
            "beacon node id is not the hash of its public key"
        )
    body = _body(Hash(chain), Hash(node), public_key, port, name,
                 Hash(frontier), epoch, seq)
    if not public_key.verify(wire.encode(body), signature):
        raise BeaconSignatureError("beacon signature does not verify")
    return Beacon(Hash(chain), Hash(node), public_key, port, name,
                  Hash(frontier), epoch, seq)


def frontier_digest(node) -> Hash:
    """A 32-byte digest of a replica's current frontier.

    Equal digests ⇒ equal frontiers; beacons carry this so receivers
    can see at a glance whether a neighbor has anything new.
    """
    return Hash.of_value(sorted(h.digest for h in node.dag.frontier()))
