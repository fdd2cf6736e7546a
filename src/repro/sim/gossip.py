"""The opportunistic gossip scheduler (paper §IV-G).

"Periodically, a node picks a physical neighbor at random (if it has
any)" and reconciles DAGs with it.  Each node runs an independent timer
with jitter; a tick asks the topology for the current neighbor set,
draws one uniformly, consults both sides' adversary policies and the
link model, and — if the contact goes through — runs one reconciliation
session, charging its bytes to the energy ledgers and its deliveries to
the propagation tracker.

Two session execution models are supported (``session_model``):

* ``"atomic"`` (default) — a session executes in full at the contact
  instant; its duration is computed afterwards from the byte total and
  charged as busy time.  This is the classic epidemic-simulation
  simplification: cheap, but a session can never be cut short.
* ``"message"`` — a session is a resumable
  :class:`~repro.reconcile.engine.ReconcileSession` driven one wire
  message at a time over the event loop.  Each message is its own
  event, delayed by :meth:`LinkModel.message_latency_ms`; before every
  delivery the scheduler re-checks ``Topology.neighbors`` (which is how
  partitions and mobility manifest), and if the pair is no longer
  connected the session is aborted mid-transfer with its partial byte
  and block totals recorded as an ``interrupted`` outcome.  Blocks only
  ever enter a DAG in parent-closed batches, so a torn session never
  leaves a replica structurally invalid.

With an ideal link (zero setup latency, effectively infinite bandwidth)
and no interruptions the two models are equivalent: same final DAGs,
same :class:`ReconcileStats` totals, same trace — a property enforced
by ``tests/sim/test_session_models.py``.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.core.node import VegvisirNode
from repro.net.events import EpochTimers, EventLoop
from repro.net.links import LinkModel
from repro.net.topology import Topology
from repro.reconcile.engine import ReconcileSession
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.stats import (
    INITIATOR_TO_RESPONDER,
    RESPONDER_TO_INITIATOR,
    ReconcileStats,
    SessionCounters,
)
from repro.sim.adversary import AdversaryPolicy, HonestPolicy
from repro.sim.energy import EnergyModel
from repro.sim.metrics import SimMetrics


def default_protocol_factory(push: bool):
    return FrontierProtocol(push=push)


SELECT_RANDOM = "random"
SELECT_ROUND_ROBIN = "round_robin"
SELECT_LEAST_RECENT = "least_recent"

PEER_SELECTORS = (SELECT_RANDOM, SELECT_ROUND_ROBIN, SELECT_LEAST_RECENT)

SESSION_ATOMIC = "atomic"
SESSION_MESSAGE = "message"

SESSION_MODELS = (SESSION_ATOMIC, SESSION_MESSAGE)


def check_session_model(session_model: str, faults=None) -> None:
    """Raise ValueError unless *session_model* is a known model that
    can carry *faults*: a fault plan acts on individual wire messages,
    so only the message model takes one."""
    if session_model not in SESSION_MODELS:
        raise ValueError(
            f"unknown session model {session_model!r}: "
            f"expected one of {sorted(SESSION_MODELS)}"
        )
    if faults is not None and session_model != SESSION_MESSAGE:
        raise ValueError(
            f"faults require the {SESSION_MESSAGE!r} session model "
            f"(got {session_model!r})"
        )


class _ActiveSession:
    """One in-flight message-level session occupying its two endpoints."""

    __slots__ = ("session", "initiator_id", "responder_id", "start_ms")

    def __init__(self, session: ReconcileSession, initiator_id: int,
                 responder_id: int, start_ms: int):
        self.session = session
        self.initiator_id = initiator_id
        self.responder_id = responder_id
        self.start_ms = start_ms


class GossipScheduler:
    """Periodic random-neighbor reconciliation over an event loop."""

    def __init__(
        self,
        loop: EventLoop,
        topology: Topology,
        nodes: dict[int, VegvisirNode],
        metrics: SimMetrics,
        energy: Optional[EnergyModel] = None,
        link: Optional[LinkModel] = None,
        protocol_factory: Callable[[bool], object] = default_protocol_factory,
        policies: Optional[dict[int, AdversaryPolicy]] = None,
        interval_ms: int = 1_000,
        jitter_ms: int = 200,
        seed: int = 0,
        peer_selector: str = SELECT_RANDOM,
        session_model: str = SESSION_ATOMIC,
        obs=None,
        faults=None,
        contact_epoch_ms: Optional[int] = None,
    ):
        if peer_selector not in PEER_SELECTORS:
            raise ValueError(f"unknown peer selector {peer_selector!r}")
        check_session_model(session_model, faults)
        self._loop = loop
        self._topology = topology
        self._nodes = nodes
        self._metrics = metrics
        self._energy = energy
        self._link = link or LinkModel(seed=seed ^ 0x5EED)
        self._protocol_factory = protocol_factory
        self._policies = policies or {}
        self._interval_ms = interval_ms
        self._jitter_ms = jitter_ms
        self._rng = random.Random(seed)
        self._session_model = session_model
        # Per-node cursor into the DAG insertion order, for delivery
        # tracking without rescanning whole DAGs.
        self._seen_counts = {node_id: 0 for node_id in nodes}
        # Radios are half-duplex: a session occupies both ends for its
        # transfer duration; ticks that land on a busy node are skipped.
        # In the message model an in-flight session additionally pins
        # both endpoints via ``_active`` until it completes or aborts.
        self._busy_until = {node_id: 0 for node_id in nodes}
        self._active: dict[int, _ActiveSession] = {}
        # Peer selection state (§IV-G mandates only that a neighbor is
        # picked; the strategy is an ablation knob, experiment A3).
        self._peer_selector = peer_selector
        self._round_robin_cursor = {node_id: 0 for node_id in nodes}
        self._last_contact: dict[tuple[int, int], int] = {}
        self._started = False
        # Batched contact-epoch scheduling (opt-in, for large fleets):
        # per-node tick timers coalesce into one loop event per epoch
        # boundary, and because every tick processed in an epoch sees
        # the same ``loop.now``, the spatial neighbor index builds one
        # position snapshot per epoch instead of one per tick.  Unset
        # (the default), ticks are individual loop events and runs are
        # byte-identical to pre-epoch behaviour.
        if contact_epoch_ms is not None and contact_epoch_ms < 1:
            raise ValueError("contact epoch must be positive")
        self._timers: Optional[EpochTimers] = (
            EpochTimers(loop, contact_epoch_ms, self._tick)
            if contact_epoch_ms is not None else None
        )
        # Fault injection is opt-in the same way observability is: with
        # no injector attached (or an all-zero plan) the hot path costs
        # one ``is not None`` check and consumes no randomness, so the
        # run is byte-identical to a fault-free one.  The injector keeps
        # its own RNG stream — never ``self._rng`` or the link model's.
        self._faults = faults
        self._block_sink: Optional[Callable[[int, object], None]] = None
        # Observability is opt-in; with no observer attached every
        # instrumented site is a single ``is not None`` check.
        self._obs = obs if obs is not None and obs.enabled else None
        if self._obs is not None:
            registry = self._obs.registry
            self._session_counters = SessionCounters(registry)
            self._c_peer_selected = registry.counter(
                "sim_peer_selections_total",
                "peers drawn by the configured strategy",
                labels=("selector",),
            )
            self._h_session_bytes = registry.histogram(
                "sim_session_bytes",
                "per-session byte cost distribution",
                buckets=(64, 256, 1_024, 4_096, 16_384, 65_536, 262_144),
            )

    def policy(self, node_id: int) -> AdversaryPolicy:
        return self._policies.get(node_id) or HonestPolicy()

    @property
    def session_model(self) -> str:
        return self._session_model

    @property
    def contact_epoch_ms(self) -> Optional[int]:
        """The batching epoch, or None when ticks are individual
        events."""
        return self._timers.epoch_ms if self._timers is not None else None

    def start(self) -> None:
        """Schedule every node's first tick at a random phase offset."""
        if self._started:
            raise RuntimeError("gossip scheduler already started")
        self._started = True
        for node_id in sorted(self._nodes):
            self.observe_local_blocks(node_id)
            self._schedule_tick(
                self._rng.randrange(max(1, self._interval_ms)), node_id
            )

    def _schedule_tick(self, delay: int, node_id: int) -> None:
        if self._timers is not None:
            self._timers.schedule_in(delay, node_id)
        else:
            self._loop.schedule_in(delay, lambda: self._tick(node_id))

    def _schedule_next(self, node_id: int) -> None:
        jitter = (
            self._rng.randrange(-self._jitter_ms, self._jitter_ms + 1)
            if self._jitter_ms
            else 0
        )
        self._schedule_tick(max(1, self._interval_ms + jitter), node_id)

    def is_busy(self, node_id: int) -> bool:
        return (
            node_id in self._active
            or self._busy_until[node_id] > self._loop.now
        )

    def set_block_sink(
        self, sink: Optional[Callable[[int, object], None]]
    ) -> None:
        """Install a persistence hook fed every newly observed block."""
        self._block_sink = sink

    def interrupt_node(self, node_id: int, reason: str) -> None:
        """Tear down this node's in-flight session, if any (crash path)."""
        state = self._active.get(node_id)
        if state is not None:
            self._interrupt(state, reason=reason)

    def resync_node_cursor(self, node_id: int) -> None:
        """Re-anchor the delivery cursor after a restart replaced the
        node object: recovered blocks were observed (and charged) before
        the crash and must not be re-counted."""
        self._seen_counts[node_id] = len(self._nodes[node_id].dag)

    def _tick(self, node_id: int) -> None:
        self._schedule_next(node_id)
        faults = self._faults
        if faults is not None and faults.node_down(node_id):
            # A crashed node's radio is off: no attempt, no metrics.
            # The tick timer keeps running so gossip resumes on restart.
            return
        if not self.policy(node_id).initiates_gossip():
            return
        metrics = self._metrics
        metrics.contacts_attempted += 1
        if self._obs is not None:
            self._obs.bus.emit("contact.attempt", node=node_id)
        if self.is_busy(node_id):
            metrics.contacts_busy += 1
            self._outcome("busy", node_id)
            return
        neighbors = self._topology.neighbors(node_id, self._loop.now)
        if not neighbors:
            metrics.contacts_no_neighbor += 1
            self._outcome("no_neighbor", node_id)
            return
        peer_id = self._select_peer(node_id, neighbors)
        if faults is not None and faults.node_down(peer_id):
            metrics.contacts_crashed += 1
            self._outcome("crashed", node_id, peer_id)
            return
        if self.is_busy(peer_id):
            metrics.contacts_busy += 1
            self._outcome("busy", node_id, peer_id)
            return
        if not self.policy(peer_id).responds_to_gossip():
            metrics.contacts_refused += 1
            self._outcome("refused", node_id, peer_id)
            return
        if faults is not None and faults.link_down(
            node_id, peer_id, self._loop.now
        ):
            # Flapping link: the contact fails before the link model's
            # loss draw (a flapped radio never reaches the channel).
            faults.record_flap(node_id, peer_id, self._loop.now)
            metrics.contacts_lost += 1
            self._outcome("lost", node_id, peer_id)
            return
        if not self._link.contact_succeeds():
            metrics.contacts_lost += 1
            self._outcome("lost", node_id, peer_id)
            return
        # "ok" means the contact was established and a session started;
        # emitted before the session runs so atomic and message-level
        # executions produce the same event order.
        self._outcome("ok", node_id, peer_id)
        self.contact(node_id, peer_id)

    def _outcome(self, outcome: str, node_id: int,
                 peer_id: Optional[int] = None) -> None:
        """Trace how one contact attempt ended; *peer_id* is absent when
        it died before a peer was drawn."""
        if self._obs is not None:
            fields = {} if peer_id is None else {"peer": peer_id}
            self._obs.bus.emit(
                "contact.outcome", node=node_id, outcome=outcome, **fields
            )

    def _select_peer(self, node_id: int, neighbors: list[int]) -> int:
        if self._obs is not None:
            self._c_peer_selected.labels(selector=self._peer_selector).inc()
        if self._peer_selector == SELECT_ROUND_ROBIN:
            cursor = self._round_robin_cursor[node_id]
            self._round_robin_cursor[node_id] = cursor + 1
            return neighbors[cursor % len(neighbors)]
        if self._peer_selector == SELECT_LEAST_RECENT:
            def last_seen(peer: int) -> tuple:
                key = (min(node_id, peer), max(node_id, peer))
                return (self._last_contact.get(key, -1), peer)
            return min(neighbors, key=last_seen)
        return neighbors[self._rng.randrange(len(neighbors))]

    def contact(self, initiator_id: int, responder_id: int) -> ReconcileStats:
        """Start one reconciliation session between two nodes, now.

        In the atomic model the session has fully executed by the time
        this returns.  In the message model the returned stats object is
        *live*: the session continues message-by-message on the event
        loop and the totals keep growing until it completes or aborts.
        """
        push = (
            self.policy(initiator_id).responds_to_gossip()
            and self.policy(responder_id).accepts_pushes()
        )
        protocol = self._protocol_factory(push)
        obs = self._obs
        if obs is not None:
            obs.bus.emit(
                "session.start", initiator=initiator_id,
                responder=responder_id,
                protocol=getattr(protocol, "name", "?"),
            )
        if (
            self._session_model == SESSION_MESSAGE
            and hasattr(protocol, "initiate")
        ):
            return self._contact_message(initiator_id, responder_id, protocol)
        return self._contact_atomic(initiator_id, responder_id, protocol)

    # -- atomic execution ----------------------------------------------

    def _contact_atomic(self, initiator_id: int, responder_id: int,
                        protocol) -> ReconcileStats:
        stats = protocol.run(
            self._nodes[initiator_id], self._nodes[responder_id]
        )
        duration = self._link.transfer_duration_ms(
            stats.total_bytes, round_trips=max(1, stats.rounds)
        )
        self._settle_session(
            initiator_id, responder_id, stats, self._loop.now, duration
        )
        return stats

    # -- message-level execution ---------------------------------------

    def _contact_message(self, initiator_id: int, responder_id: int,
                         protocol) -> ReconcileStats:
        session = ReconcileSession(
            protocol, self._nodes[initiator_id], self._nodes[responder_id]
        )
        state = _ActiveSession(
            session, initiator_id, responder_id, self._loop.now
        )
        self._active[initiator_id] = state
        self._active[responder_id] = state
        self._advance(state)
        return session.stats

    def _advance(self, state: _ActiveSession) -> None:
        """Send messages until one takes time, then wait for it."""
        while True:
            step = state.session.next_step()
            if step is None:
                self._finish_message_session(state)
                return
            delay = self._link.message_latency_ms(step.size)
            fault = None
            if self._faults is not None:
                fault = self._faults.on_message(
                    state.initiator_id, state.responder_id, step,
                    self._loop.now,
                )
                if fault is not None:
                    delay += fault.extra_delay_ms
            if delay > 0 or fault is not None:
                def deliver(step=step, fault=fault) -> None:
                    self._deliver(state, step=step, fault=fault)
                self._loop.schedule_in(delay, deliver)
                return
            # A zero-latency message arrives within the same simulated
            # millisecond: no other event can run in between, so
            # connectivity cannot have changed — deliver inline instead
            # of round-tripping through the event loop.

    def _deliver(self, state: _ActiveSession, step=None, fault=None) -> None:
        """One message arrives: re-check the link, then step on."""
        if state.session.done:
            # The session was already torn down (endpoint crash, or an
            # earlier fault killed it) while this frame was in flight.
            return
        faults = self._faults
        now = self._loop.now
        if faults is not None and faults.link_down(
            state.initiator_id, state.responder_id, now
        ):
            faults.record_flap(state.initiator_id, state.responder_id, now)
            self._interrupt(state, reason="flap")
            return
        if not self._topology.connected(
            state.initiator_id, state.responder_id, now
        ):
            self._interrupt(state)
            return
        if fault is not None:
            receiver_id = (
                state.responder_id if step.from_initiator
                else state.initiator_id
            )
            killed = faults.apply(
                fault, step, self._nodes[receiver_id],
                state.initiator_id, state.responder_id,
            )
            if killed:
                self._interrupt(state, reason=fault.kind)
                return
        self._advance(state)

    def _finish_message_session(self, state: _ActiveSession) -> None:
        stats = state.session.stats
        self._active.pop(state.initiator_id, None)
        self._active.pop(state.responder_id, None)
        # Duration: the elapsed per-message time, floored by the atomic
        # model's formula so an ideal link charges the identical airtime
        # in both models.
        modelled = self._link.transfer_duration_ms(
            stats.total_bytes, round_trips=max(1, stats.rounds)
        )
        elapsed = self._loop.now - state.start_ms
        self._settle_session(
            state.initiator_id, state.responder_id, stats,
            state.start_ms, max(elapsed, modelled),
        )

    def _interrupt(self, state: _ActiveSession,
                   reason: str = "partition") -> None:
        """Abort an in-flight session whose pair lost connectivity."""
        state.session.abort()
        stats = state.session.stats
        initiator_id = state.initiator_id
        responder_id = state.responder_id
        self._active.pop(initiator_id, None)
        self._active.pop(responder_id, None)
        elapsed = self._loop.now - state.start_ms
        self._metrics.record_interrupted_session(
            stats.total_bytes, stats.total_messages
        )
        # Transmission energy was spent on every byte that crossed (or
        # was on) the air, delivered or not, and blocks merged before
        # the tear-down were genuinely delivered.
        self._account(
            initiator_id, responder_id, stats, state.start_ms, elapsed
        )
        if self._obs is not None:
            self._session_counters.interrupted(stats)
            self._obs.bus.emit(
                "session.interrupted", initiator=initiator_id,
                responder=responder_id, duration_ms=elapsed, reason=reason,
                **stats.session_fields(),
            )

    # -- shared settlement ---------------------------------------------

    def _settle_session(self, initiator_id: int, responder_id: int,
                        stats: ReconcileStats, start_ms: int,
                        duration: int) -> None:
        """Fold one *completed* session into metrics, energy, busy time."""
        self._metrics.record_session(stats.total_bytes, stats.total_messages)
        if self._obs is not None:
            self._session_counters.completed(stats)
            self._h_session_bytes.observe(stats.total_bytes)
            self._obs.bus.emit(
                "session.end", initiator=initiator_id,
                responder=responder_id, converged=stats.converged,
                duration_ms=duration, **stats.session_fields(),
            )
        busy_until = start_ms + duration
        self._busy_until[initiator_id] = busy_until
        self._busy_until[responder_id] = busy_until
        self._account(initiator_id, responder_id, stats, start_ms, duration)

    def _account(self, initiator_id: int, responder_id: int,
                 stats: ReconcileStats, start_ms: int,
                 duration: int) -> None:
        """What a session costs whether it completed or was torn:
        airtime, the pair's last contact, energy per byte each way, and
        the deliveries it made."""
        self._metrics.record_transfer_duration(duration)
        pair = (min(initiator_id, responder_id),
                max(initiator_id, responder_id))
        self._last_contact[pair] = start_ms
        if self._energy is not None:
            self._energy.charge_transfer(
                initiator_id, responder_id,
                stats.bytes[INITIATOR_TO_RESPONDER],
            )
            self._energy.charge_transfer(
                responder_id, initiator_id,
                stats.bytes[RESPONDER_TO_INITIATOR],
            )
        self.observe_local_blocks(initiator_id)
        self.observe_local_blocks(responder_id)

    def observe_local_blocks(self, node_id: int) -> None:
        """Record first-delivery times for blocks new to this node.

        Also charges signature verification energy for each newly
        received (not locally created) block.
        """
        node = self._nodes[node_id]
        new_hashes = node.dag.inserted_since(self._seen_counts[node_id])
        sink = self._block_sink
        for block_hash in new_hashes:
            block = node.dag.get(block_hash)
            if sink is not None:
                sink(node_id, block)
            if block.user_id == node.user_id:
                self._metrics.propagation.record_created(
                    block_hash, node_id, self._loop.now
                )
                if self._energy is not None:
                    self._energy.charge_block_creation(
                        node_id, block.wire_size
                    )
            else:
                self._metrics.propagation.record_delivered(
                    block_hash, node_id, self._loop.now
                )
                if self._energy is not None:
                    self._energy.charge_block_verification(
                        node_id, block.wire_size
                    )
        self._seen_counts[node_id] += len(new_hashes)
