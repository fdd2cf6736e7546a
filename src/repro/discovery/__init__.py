"""repro.discovery — dynamic peer discovery and liveness membership.

Vegvisir's deployment model is *opportunistic*: devices reconcile with
whoever the radio puts in range (Bluetooth/Google Nearby in the paper,
§V), not with a configured peer list.  This package closes that gap
for both runtimes from one shared core:

* :mod:`repro.discovery.beacon` — signed UDP beacon advertisements
  (node id, chain id, TCP port, frontier digest, monotonic epoch/seq),
  the Google Nearby substitute;
* :mod:`repro.discovery.directory` — :class:`DiscoveryDirectory`, a
  SWIM-style membership state machine: TTL liveness, suspicion,
  expiry, and rejoin handling, fully deterministic and clock-free;
* :mod:`repro.discovery.service` — the live side: UDP multicast
  announce/receive wired into ``LiveNode`` (``vegvisir serve
  --discover``), discovered peers become dynamic dial targets under a
  lowest-id-dials tie-break;
* :mod:`repro.discovery.simdriver` — the sim side: the *same*
  directory driven by ``repro.net`` radio-range contact events, so
  sim and live converge on identical peer sets under identical
  contact schedules (parity-tested);
* :mod:`repro.discovery.faults` — beacon-level fault injection
  (drop/duplicate/corrupt/reorder) on an independent RNG stream.
"""

from repro.discovery.beacon import (
    MAX_BEACON_BYTES,
    Beacon,
    BeaconDecodeError,
    BeaconError,
    BeaconSignatureError,
    decode_beacon,
    encode_beacon,
    frontier_digest,
)
from repro.discovery.directory import (
    ALIVE,
    DISCOVERED,
    EXPIRED,
    RECOVERED,
    REJOINED,
    SUSPECT,
    SUSPECTED,
    DirectoryEvent,
    DiscoveryDirectory,
    PeerEntry,
)
from repro.discovery.faults import BeaconFaultFilter, filter_from_plan
from repro.discovery.service import (
    DEFAULT_GROUP,
    DEFAULT_PORT,
    DiscoveryConfig,
    DiscoveryService,
)
from repro.discovery.simdriver import SimDiscovery

__all__ = [
    "ALIVE",
    "Beacon",
    "BeaconDecodeError",
    "BeaconError",
    "BeaconFaultFilter",
    "BeaconSignatureError",
    "DEFAULT_GROUP",
    "DEFAULT_PORT",
    "DISCOVERED",
    "DirectoryEvent",
    "DiscoveryConfig",
    "DiscoveryDirectory",
    "DiscoveryService",
    "EXPIRED",
    "MAX_BEACON_BYTES",
    "PeerEntry",
    "RECOVERED",
    "REJOINED",
    "SUSPECT",
    "SUSPECTED",
    "SimDiscovery",
    "decode_beacon",
    "encode_beacon",
    "filter_from_plan",
    "frontier_digest",
]
