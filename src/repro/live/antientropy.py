"""The anti-entropy loop: periodic reconciliation over live connections,
and the push of this replica's own writes.

One :class:`AntiEntropyLoop` per node plays the paper's §IV-G gossip
role on real sockets: every interval, give or take a fifth of it (the
rule the simulated city's timers use), it picks a random
connected outbound peer and runs one initiator session of the frontier
protocol (:func:`~repro.live.protocol.run_session`) under a per-session
deadline.  A session that times out, hits a transport error, receives
garbage, or builds a message the connection cannot frame is
*interrupted*: its partial byte totals are kept, a
``session.interrupted`` trace event is emitted, and the connection is
closed so the peer manager's backoff can rebuild it.  Interruption
never corrupts the replica — blocks only enter the DAG through
parent-closed :func:`~repro.reconcile.session.merge_blocks` batches.

**Writes are pushed.**  For each outbound connection the loop remembers
the frontier its peer provably holds: the one the push half of the last
converged session on that connection — or the last push — sent the
difference against (``ReconcileStats.held``).  A local write
(:meth:`AntiEntropyLoop.notify_write`) wakes one pusher per connected
peer: a peer with such a frontier is sent what lies above it, as a
one-way ``push_blocks`` session — the push half of a session without
the pull in front.  A peer with none on its current connection gets the
session the timer runs instead, a pull and then a push, once per
connection: when it converges, the next write is a plain push; when it
does not (the responder offers no body that bridges the gap), that
connection is left to the timer.  A woken pusher yields one loop turn,
so the writer's caller runs first, then pushes at once; writes that
land while a push or session holds the peer's connection ride the next
one, so a peer has at most one push in flight and no timer sets the
rate.  A stalled peer holds up no other peer's.  Received blocks wake
nothing (no relay: more than one hop is still the timer's), writes made
before a connection came up wait on it for the next write or tick, and
:meth:`AntiEntropyLoop.stop` sends no pending push.  One session at a
time runs on a connection, whoever started it.

Pushes go to outbound connections only.  Where one side alone dials —
a discovered pair, where the lower user id dials — the dialer's writes
are pushed and the acceptor's wait for the dialer's next tick to pull
them.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Optional

from repro import wire
from repro.core.node import VegvisirNode
from repro.live.protocol import BlockSink, run_session
from repro.live.transport import TransportError
from repro.reconcile import FrontierProtocol, ReconcileError
from repro.reconcile.engine import Protocol
from repro.reconcile.session import push_missing
from repro.reconcile.stats import ReconcileStats, SessionCounters

DEFAULT_INTERVAL = 1.0
DEFAULT_SESSION_TIMEOUT = 30.0
#: What a peer or its link can make a session raise: each ends the
#: session as interrupted, never the loop.
SESSION_ERRORS = (
    TransportError, ReconcileError, wire.WireError, asyncio.TimeoutError,
)


async def _within(seconds: float, session) -> None:
    """Await *session* in this task under a deadline: no task of its
    own and no loop turn to hand its result back, which a push, one
    per write, would pay each time."""
    async with asyncio.timeout(seconds):
        await session


class _PushAbove(Protocol):
    """The push half of a session run alone: what lies above *held*.
    It never pulls, so only a frontier the peer is known to hold makes
    it sound."""

    name = "push"

    def __init__(self, held):
        self._held = held

    def initiate(self, me):
        yield from push_missing(me, self._held)


class AntiEntropyLoop:
    """Periodic initiator sessions against connected peers, and pushes
    of local writes to the connected peers."""

    def __init__(
        self,
        node: VegvisirNode,
        peer_manager,
        *,
        interval_s: float = DEFAULT_INTERVAL,
        session_timeout_s: float = DEFAULT_SESSION_TIMEOUT,
        block_sink_factory: Optional[Callable[[str], BlockSink]] = None,
        seed: Optional[int] = None,
        obs=None,
    ):
        self._node = node
        self._peers = peer_manager
        self._interval = interval_s
        self._session_timeout = session_timeout_s
        #: When set, each initiator session gets its own block sink
        #: built from the peer name — LiveNode uses this to persist
        #: pulled blocks, attributed to ``pull:<peer>`` in the trace
        #: (trace-only; no wire bytes change).
        self._block_sink_factory = block_sink_factory
        self._rng = random.Random(seed)
        self._obs = obs if obs is not None and obs.enabled else None
        self.sessions_completed = 0
        self.sessions_interrupted = 0
        #: Completed push sessions (also counted in sessions_completed).
        self.pushes = 0
        #: Monotonic per-node session sequence number; stamped into the
        #: session.start/completed/interrupted trace events so the
        #: cross-node merger can line sessions up deterministically.
        self._session_seq = 0
        self._stopping = False
        #: peer -> (transport, tips): everything under *tips* is held by
        #: the peer, learned on *transport* — any other connection to it
        #: knows nothing.
        self._held: dict = {}
        #: peer -> the connection a pusher last ran a frontier session
        #: on: one per connection, converged or not.
        self._tried: dict = {}
        #: peer -> the lock one session at a time holds on it.
        self._locks: dict[str, asyncio.Lock] = {}
        #: peer -> (wake-up, pusher task) while :meth:`run` runs.
        self._pushers: Optional[dict] = None
        if self._obs is not None:
            self._session_counters = SessionCounters(self._obs.registry)

    async def run(self) -> None:
        """The periodic loop, with the pushers of local writes beside
        it; runs until cancelled or :meth:`stop`."""
        self._stopping = False
        self._pushers = {}
        try:
            while not self._stopping:
                jitter = self._interval / 5
                delay = self._interval + jitter * (
                    2.0 * self._rng.random() - 1.0
                )
                await asyncio.sleep(max(0.01, delay))
                await self.run_tick()
        finally:
            tasks = [task for _, task in self._pushers.values()]
            self._pushers = None
            # Cancel until it takes, as PeerManager.stop() does: a
            # push's own deadline can swallow a cancel.
            while not all(task.done() for task in tasks):
                for task in tasks:
                    task.cancel()
                await asyncio.wait(tasks, timeout=0.05)
            for task in tasks:
                if not task.cancelled():
                    task.result()  # what killed it, if anything did

    def stop(self) -> None:
        """Make :meth:`run` return after the tick in progress, sending
        no pending push.

        Cancelling the task is not enough on its own: a cancel that
        lands as a session's deadline returns can be swallowed, and the
        loop would sleep into its next tick.
        """
        self._stopping = True

    def notify_write(self) -> None:
        """A block was created here: push it to the current peers."""
        if self._pushers is None:
            return
        for name in self._peers.connected_peers():
            if name not in self._pushers:
                wake = asyncio.Event()
                self._pushers[name] = (
                    wake, asyncio.ensure_future(self._push_writes(name, wake))
                )
            self._pushers[name][0].set()

    async def _push_writes(self, peer_name: str, wake: asyncio.Event) -> None:
        """Pushes to *peer_name*, one per wake-up.  Each waits one loop
        turn first, so the writer's caller (the gateway answering the
        batch it just cut) runs before it; the writes that land while a
        push or session holds the peer's lock ride the next.  Each peer
        has its own, so a stalled peer holds up no other."""
        while True:
            await wake.wait()
            await asyncio.sleep(0)
            if self._stopping:
                return
            wake.clear()
            await self.push_once(peer_name)

    async def run_tick(self) -> Optional[ReconcileStats]:
        """One tick: a session against one random connected peer
        (§IV-G); ``None`` when no peer is connected."""
        names = self._peers.connected_peers()
        if not names:
            return None
        return await self.run_once(names[self._rng.randrange(len(names))])

    def _lock(self, peer_name: str) -> asyncio.Lock:
        lock = self._locks.get(peer_name)
        if lock is None:
            lock = self._locks[peer_name] = asyncio.Lock()
        return lock

    async def run_once(self, peer_name: str) -> Optional[ReconcileStats]:
        """One session against *peer_name* now, after whatever session
        is running on that connection; None if not connected."""
        async with self._lock(peer_name):
            transport = self._peers.connection(peer_name)
            if transport is None:
                return None
            return await self._reconcile(peer_name, transport)

    async def push_once(self, peer_name: str) -> Optional[ReconcileStats]:
        """Push *peer_name* what lies above the frontier it is known to
        hold on its current connection.  With no such frontier, run
        :meth:`run_once`'s session instead, the first time on this
        connection.  None when not connected, when nothing lies above
        the known frontier, or when this connection has had its
        session."""
        async with self._lock(peer_name):
            transport = self._peers.connection(peer_name)
            if transport is None:
                return None
            known = self._held.get(peer_name)
            if known is None or known[0] is not transport:
                if self._tried.get(peer_name) is transport:
                    return None
                self._tried[peer_name] = transport
                return await self._reconcile(peer_name, transport)
            # A tip outside the held frontier cannot be under it.
            if self._node.frontier() <= known[1]:
                return None
            stats = await self._session(
                peer_name, transport, _PushAbove(known[1]), None
            )
            if not stats.interrupted:
                self.pushes += 1
            return stats

    def unsent(self) -> dict[str, int]:
        """Per outbound peer with a known frontier on its current
        connection: how many blocks held here are not known to be held
        there."""
        return {
            name: len(self._node.dag.not_under(tips))
            for name, (transport, tips) in self._held.items()
            if self._peers.connection(name) is transport
        }

    async def _reconcile(self, peer_name: str,
                         transport) -> ReconcileStats:
        """A frontier session, a pull and then a push, with the pulled
        blocks through the session sink; the caller holds the lock."""
        sink = self._block_sink_factory
        return await self._session(
            peer_name, transport, FrontierProtocol(),
            None if sink is None else sink(peer_name),
        )

    async def _session(self, peer_name: str, transport, protocol,
                       on_blocks: Optional[BlockSink]) -> ReconcileStats:
        stats = ReconcileStats(protocol.name)
        seq = self._session_seq
        self._session_seq += 1
        if self._obs is not None:
            self._obs.emit(
                "session.start", peer=peer_name, protocol=protocol.name,
                seq=seq,
            )
        try:
            await _within(
                self._session_timeout,
                run_session(protocol, self._node, transport, stats,
                            on_blocks=on_blocks),
            )
        except SESSION_ERRORS as exc:
            stats.interrupted = True
            self.sessions_interrupted += 1
            reason = (
                "timeout" if isinstance(exc, asyncio.TimeoutError)
                else "disconnect" if isinstance(exc, TransportError)
                else "protocol"
            )
            if self._obs is not None:
                self._session_counters.interrupted(stats)
                self._obs.emit(
                    "session.interrupted", peer=peer_name, seq=seq,
                    reason=reason, **stats.session_fields(),
                )
            # The stream may hold a stale half-exchanged session; the
            # only safe recovery is a fresh connection via backoff —
            # which knows nothing of what this one's peer held, so a
            # push half lost here is not taken for delivered.
            await transport.close()
            return stats
        self.sessions_completed += 1
        if stats.held is not None:
            self._held[peer_name] = (transport, stats.held)
        if self._obs is not None:
            self._session_counters.completed(stats)
            self._obs.emit(
                "session.completed", peer=peer_name, seq=seq,
                converged=stats.converged, **stats.session_fields(),
            )
        return stats
