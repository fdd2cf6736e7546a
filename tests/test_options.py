"""The values a caller can set, pinned.

Each option doubles the configurations tests and benchmarks must
cover, so the parameters of the main constructors are listed here.  A
signature that gains (or loses) one fails this test until the table
is edited, which makes a new option a reviewed change, as the metric
catalogue does for metrics.  Validity rules take no option: every
replica must reach the same verdict on the same block.
"""

import inspect

import pytest

from repro.chain.validation import BlockValidator
from repro.core.node import VegvisirNode
from repro.csm.machine import CSMachine
from repro.discovery.faults import BeaconFaultFilter
from repro.faults.injector import CrashController
from repro.gateway.batching import TxBatcher
from repro.gateway.node import GatewayNode
from repro.live.antientropy import AntiEntropyLoop
from repro.live.node import LiveNode
from repro.live.peers import Backoff, PeerManager
from repro.sim.gossip import GossipScheduler
from repro.sim.scenario import Scenario

SETTABLE = {
    Scenario: (
        "node_count", "duration_ms", "gossip_interval_ms",
        "gossip_jitter_ms", "append_interval_ms", "payload_bytes",
        "topology_factory", "protocol_factory", "link", "policies",
        "roles", "seed", "chain_name", "clock_skew_ms", "peer_selector",
        "session_model", "workload", "trace_path", "trace_ring",
        "metrics", "obs", "faults", "discovery_interval_ms",
        "discovery_ttl_ms", "discovery_expiry_ms",
        "discovery_beacon_faults", "contact_epoch_ms",
        "aggregate_propagation", "fleet_factory", "crypto_backend",
    ),
    GossipScheduler: (
        "loop", "topology", "nodes", "metrics", "energy", "link",
        "protocol_factory", "policies", "interval_ms", "jitter_ms", "seed",
        "peer_selector", "session_model", "obs", "faults",
        "contact_epoch_ms",
    ),
    LiveNode: (
        "key_pair", "store_path", "genesis", "host", "port", "peers",
        "name", "interval_s", "session_timeout_s", "max_frame_bytes",
        "seed", "fsync", "obs", "discovery", "ops_host", "ops_port",
        "runtime",
    ),
    AntiEntropyLoop: (
        "node", "peer_manager", "interval_s", "session_timeout_s",
        "block_sink_factory", "seed", "obs",
    ),
    VegvisirNode: ("key_pair", "genesis", "clock", "location"),
    CSMachine: ("ca_key",),
    CSMachine.from_genesis: ("genesis",),
    BlockValidator: ("dag", "resolve_member", "verify_cache"),
    BeaconFaultFilter: ("drop", "duplicate", "corrupt", "reorder", "seed"),
    CrashController: ("plan", "injector"),
    Backoff: ("base_s", "cap_s", "jitter", "rng"),
    PeerManager: (
        "node", "name", "peers", "connection_handler",
        "handshake_timeout_s", "backoff_base_s", "max_frame_bytes", "seed",
        "obs", "runtime",
    ),
    GatewayNode: (
        "chains", "http_host", "http_port", "admission_rate",
        "admission_burst", "max_clients", "max_batch", "max_delay_s",
        "max_queue", "submit_timeout_s", "ops_host", "ops_port", "obs",
        "runtime",
    ),
    TxBatcher: (
        "append", "max_batch", "max_delay_s", "max_queue", "clock",
        "on_flush", "on_shed",
    ),
}


@pytest.mark.parametrize(
    "target", list(SETTABLE), ids=lambda target: target.__qualname__
)
def test_settable_values_are_the_listed_ones(target):
    assert tuple(inspect.signature(target).parameters) == SETTABLE[target]
