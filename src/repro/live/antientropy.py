"""The anti-entropy loop: periodic reconciliation over live connections.

One :class:`AntiEntropyLoop` per node plays the paper's §IV-G gossip
role on real sockets: every interval (with jitter) it picks a random
connected outbound peer and runs one initiator session of the configured
protocol (:func:`~repro.live.protocol.run_session`) under a per-session
deadline.  A session that times out, hits a transport error, receives
garbage, or builds a message the connection cannot frame is
*interrupted*: its partial byte totals are kept, a
``session.interrupted`` trace event is emitted, and the connection is
closed so the peer manager's backoff can rebuild it.  Interruption
never corrupts the replica — blocks only enter the DAG through
parent-closed :func:`~repro.reconcile.session.merge_blocks` batches.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Optional

from repro import wire
from repro.core.node import VegvisirNode
from repro.live.protocol import BlockSink, run_session
from repro.live.transport import TransportError
from repro.obs.profiling import PHASE_SESSION, maybe_phase
from repro.reconcile import ReconcileError, protocol_class
from repro.reconcile.stats import ReconcileStats, SessionCounters

DEFAULT_INTERVAL = 1.0
DEFAULT_JITTER = 0.2
DEFAULT_SESSION_TIMEOUT = 30.0


class AntiEntropyLoop:
    """Periodic initiator sessions against connected peers."""

    def __init__(
        self,
        node: VegvisirNode,
        peer_manager,
        *,
        protocol: str = "frontier",
        interval_s: float = DEFAULT_INTERVAL,
        jitter_s: float = DEFAULT_JITTER,
        session_timeout_s: float = DEFAULT_SESSION_TIMEOUT,
        on_blocks: Optional[BlockSink] = None,
        block_sink_factory: Optional[Callable[[str], BlockSink]] = None,
        seed: Optional[int] = None,
        obs=None,
        profiler=None,
    ):
        self._node = node
        self._peers = peer_manager
        self._protocol_cls = protocol_class(protocol)
        self._interval = interval_s
        self._jitter = jitter_s
        self._session_timeout = session_timeout_s
        self._on_blocks = on_blocks
        #: When set, each initiator session gets its own block sink
        #: built from the peer name — LiveNode uses this to attribute
        #: pulled blocks to ``pull:<peer>`` in the trace (trace-only;
        #: no wire bytes change).
        self._block_sink_factory = block_sink_factory
        self._rng = random.Random(seed)
        self._obs = obs if obs is not None and obs.enabled else None
        self._profiler = profiler
        self.sessions_completed = 0
        self.sessions_interrupted = 0
        #: Monotonic per-node session sequence number; stamped into the
        #: session.start/completed/interrupted trace events so the
        #: cross-node merger can line sessions up deterministically.
        self._session_seq = 0
        self._stopping = False
        if self._obs is not None:
            self._session_counters = SessionCounters(self._obs.registry)

    async def run(self) -> None:
        """The periodic loop; runs until cancelled or :meth:`stop`."""
        self._stopping = False
        while not self._stopping:
            delay = self._interval
            if self._jitter:
                delay += self._jitter * (2.0 * self._rng.random() - 1.0)
            await asyncio.sleep(max(0.01, delay))
            await self.run_tick()

    def stop(self) -> None:
        """Make :meth:`run` return after the tick in progress.

        Cancelling the task is not enough on its own: on Python 3.11 a
        cancel that lands as a session's ``asyncio.wait_for`` returns is
        swallowed, and the loop would sleep into its next tick.
        """
        self._stopping = True

    async def run_tick(self) -> Optional[ReconcileStats]:
        """One tick: a session against one random connected peer
        (§IV-G); ``None`` when no peer is connected."""
        names = self._peers.connected_peers()
        if not names:
            return None
        return await self.run_once(names[self._rng.randrange(len(names))])

    async def run_once(self, peer_name: str) -> Optional[ReconcileStats]:
        """One session against *peer_name* now; None if not connected."""
        transport = self._peers.connection(peer_name)
        if transport is None:
            return None
        protocol = self._protocol_cls()
        stats = ReconcileStats(protocol.name)
        seq = self._session_seq
        self._session_seq += 1
        if self._obs is not None:
            self._obs.emit(
                "session.start", peer=peer_name, protocol=protocol.name,
                seq=seq,
            )
        on_blocks = self._on_blocks
        if self._block_sink_factory is not None:
            on_blocks = self._block_sink_factory(peer_name)
        try:
            with maybe_phase(self._profiler, PHASE_SESSION) as ph:
                await asyncio.wait_for(
                    run_session(
                        protocol, self._node, transport, stats,
                        on_blocks=on_blocks, profiler=self._profiler,
                    ),
                    self._session_timeout,
                )
                ph.units += 1
        except (TransportError, ReconcileError, wire.WireError,
                asyncio.TimeoutError) as exc:
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
            # only safe recovery is a fresh connection via backoff.
            await transport.close()
            return stats
        self.sessions_completed += 1
        if self._obs is not None:
            self._session_counters.completed(stats)
            self._obs.emit(
                "session.completed", peer=peer_name, seq=seq,
                converged=stats.converged, **stats.session_fields(),
            )
        return stats
