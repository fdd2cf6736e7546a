"""The asyncio session driver: any protocol over a frame transport.

A protocol in :mod:`repro.reconcile` is two halves that each touch only
their own replica — exactly what a socket needs, where each endpoint
owns only its own node.  :func:`run_session` runs a protocol's
initiator against a peer over a transport; :func:`serve_connection`
answers one connection's requests with the generic
:class:`~repro.reconcile.session.Responder`.  Neither knows a protocol
message, so the frame payloads exchanged here *are* the wire messages
the in-process driver steps through, byte for byte
(``tests/live/test_parity.py`` is the tripwire).

Nothing here trusts the peer: received blocks pass the full §IV-E
validation inside :func:`~repro.reconcile.session.merge_blocks`, and a
malformed or hostile message raises
:class:`~repro.reconcile.session.ReconcileError`, which the anti-entropy
loop turns into a torn session — never a corrupted DAG.
"""

from __future__ import annotations

from typing import Optional

from repro import wire
from repro.core.node import VegvisirNode
from repro.live.transport import TransportClosed, TransportError
from repro.reconcile.engine import Protocol
from repro.reconcile.session import (
    BlockSink,
    ReconcileError,
    Responder,
    SessionSide,
    decode_message,
    encode_message,
    error_message,
    expects_reply,
    merge_blocks,
    resume,
)
from repro.reconcile.stats import (
    INITIATOR_TO_RESPONDER,
    RESPONDER_TO_INITIATOR,
    ReconcileStats,
)

__all__ = [
    "BlockSink",
    "LiveResponder",
    "merge_blocks",
    "run_session",
    "serve_connection",
]

#: The responder half of a live connection.  (The perf ledger's span
#: table binds ``LiveResponder.handle`` and ``merge_blocks`` here.)
LiveResponder = Responder


async def run_session(protocol: Protocol, node: VegvisirNode, transport,
                      stats: Optional[ReconcileStats] = None,
                      on_blocks: Optional[BlockSink] = None
                      ) -> ReconcileStats:
    """Run *protocol*'s initiator against the peer behind *transport*.

    Raises :class:`ReconcileError` on an unusable reply and lets
    transport errors through; *stats* then hold the partial totals.
    """
    stats = stats if stats is not None else ReconcileStats(protocol.name)
    initiator = protocol.initiate(SessionSide(node, stats, on_blocks))
    try:
        request = resume(initiator, None)
        while request is not None:
            payload = encode_message(request)
            stats.record_raw(INITIATOR_TO_RESPONDER, len(payload))
            await transport.send(payload)
            reply = None
            if expects_reply(request):
                reply_payload = await transport.recv()
                stats.record_raw(RESPONDER_TO_INITIATOR, len(reply_payload))
                reply = decode_message(reply_payload)
            request = resume(initiator, reply)
    finally:
        initiator.close()
    return stats


async def serve_connection(node: VegvisirNode, transport,
                           on_blocks: Optional[BlockSink] = None) -> None:
    """Serve reconciliation requests on one connection until it drops.

    Malformed traffic gets one ``error`` frame (best effort) and the
    connection is closed; the stream cannot be trusted past the first
    bad frame.  A request over the connection's frame limit, or a reply
    that cannot be framed, closes the connection too — neither ends the
    serving task with an exception.  *on_blocks* fires inside every
    merge that adds a block — the hook LiveNode uses to persist what a
    push batch merged.
    """
    responder = LiveResponder(node, on_blocks=on_blocks)
    while True:
        try:
            payload = await transport.recv()
        except TransportError:
            # Closed, or poisoned by a frame over the limit: either way
            # nothing more can be read from this connection.
            await transport.close()
            return
        try:
            reply = responder.handle(decode_message(payload))
        except ReconcileError as exc:
            try:
                await transport.send(wire.encode(error_message(str(exc))))
            except TransportError:
                pass
            await transport.close()
            return
        if reply is not None:
            try:
                await transport.send(encode_message(reply))
            except TransportClosed:
                return
            except wire.WireError:
                # A reply this connection cannot carry (its frame limit
                # is below the batch budget): the session is over, and
                # the peer learns it from the close.
                await transport.close()
                return
