"""The sync bytes driver: any protocol over ``bytes -> bytes``.

:class:`RemoteSession` runs a protocol's initiator against a transport
function — an in-process endpoint in tests, a socket in a deployment —
and :class:`ReconcileEndpoint` serves the responder half from raw
request bytes (what a Bluetooth socket would carry).  Neither knows a
protocol message: requests and replies are whatever the protocol's two
halves say, in the same canonical bytes the simulator accounts and the
live TCP runtime carries.  A one-way message has the empty reply
``b""``.  Malformed or unexpected requests get an ``error`` reply,
never an exception across the "network".

Connection set-up is not protocol vocabulary: both this driver and the
live runtime open with one ``live_hello`` each way, and a peer
following a different blockchain (different genesis, §IV-G) is refused
there::

    {"type": "live_hello", "chain": <genesis hash>,
     "node": <user id>, "name": <display name>}
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import wire
from repro.wire import framing
from repro.core.node import VegvisirNode
from repro.reconcile.engine import Protocol
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.session import (
    ReconcileError,
    Responder,
    SessionSide,
    decode_message,
    encode_message,
    error_message,
    expects_reply,
    resume,
)
from repro.reconcile.stats import (
    INITIATOR_TO_RESPONDER,
    RESPONDER_TO_INITIATOR,
    ReconcileStats,
)

Transport = Callable[[bytes], bytes]

HELLO_TYPE = "live_hello"


def hello_message(node: VegvisirNode, name: Optional[str] = None) -> dict:
    return {
        "type": HELLO_TYPE,
        "chain": node.chain_id.digest,
        "node": node.user_id.digest,
        "name": name if name is not None else node.user_id.short(),
    }


def check_hello(node: VegvisirNode, hello) -> dict:
    """The peer's hello, if it is one and follows *node*'s blockchain."""
    if not isinstance(hello, dict) or hello.get("type") != HELLO_TYPE:
        raise ReconcileError("first frame is not a live_hello")
    if hello.get("chain") != node.chain_id.digest:
        raise ReconcileError(
            "peer follows a different blockchain (genesis mismatch)"
        )
    return hello


class ReconcileEndpoint:
    """Responder side of one connection: serves requests from raw bytes."""

    def __init__(self, node: VegvisirNode):
        self._node = node
        self._responder = Responder(node)
        #: What this connection's responder charged: duplicate and
        #: invalid blocks (and delta entries) pushed at it.
        self.stats = self._responder.stats

    def handle(self, request: bytes) -> bytes:
        try:
            message = decode_message(request)
            if message["type"] == HELLO_TYPE:
                check_hello(self._node, message)
                return wire.encode(hello_message(self._node))
            reply = self._responder.handle(message)
        except ReconcileError as exc:
            return wire.encode(error_message(str(exc)))
        return b"" if reply is None else encode_message(reply)


class FramedEndpoint:
    """A :class:`ReconcileEndpoint` behind stream framing.

    Where :class:`ReconcileEndpoint` assumes someone already delimited
    the request bytes, this adapter speaks a raw byte *stream* using the
    shared length-prefixed framing (:mod:`repro.wire.framing`) — the
    exact frames the live TCP transport carries.  Feed it whatever the
    socket produced (partial frames, many frames at once) and it returns
    the concatenated framed replies to write back.

    An oversized announced frame raises :class:`~repro.wire.FrameError`;
    the stream is then desynced beyond repair and the caller should drop
    the connection.
    """

    def __init__(self, endpoint: ReconcileEndpoint,
                 max_frame_bytes: int = framing.MAX_FRAME_BYTES):
        self._endpoint = endpoint
        self._decoder = framing.FrameDecoder(max_frame_bytes)
        self._max_frame_bytes = max_frame_bytes

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a request frame."""
        return self._decoder.buffered

    def feed(self, data: bytes) -> bytes:
        """Absorb stream bytes; return framed replies (possibly empty)."""
        replies = bytearray()
        for request in self._decoder.feed(data):
            reply = self._endpoint.handle(request)
            if reply:
                replies += framing.encode_frame(reply, self._max_frame_bytes)
        return bytes(replies)


class RemoteSession:
    """Initiator side of one session over a transport.

    ``transport`` is any bytes→bytes request/response function.  The
    session never trusts the peer: every received block passes the
    normal §IV-E validation in ``merge_blocks``, and error replies or
    garbage tear the session down cleanly — ``converged=False``,
    ``interrupted=True``, never an exception.
    """

    def __init__(self, node: VegvisirNode, transport: Transport,
                 protocol: Optional[Protocol] = None):
        self._node = node
        self._transport = transport
        self._protocol = protocol if protocol is not None else (
            FrontierProtocol()
        )

    def sync(self) -> ReconcileStats:
        """Say hello, then run the protocol's initiator to the end."""
        stats = ReconcileStats(self._protocol.name)
        initiator = self._protocol.initiate(SessionSide(self._node, stats))
        try:
            hello = self._transport(wire.encode(hello_message(self._node)))
            check_hello(self._node, decode_message(hello))
            request = resume(initiator, None)
            while request is not None:
                payload = encode_message(request)
                stats.record_raw(INITIATOR_TO_RESPONDER, len(payload))
                response = self._transport(payload)
                reply = None
                if expects_reply(request):
                    stats.record_raw(RESPONDER_TO_INITIATOR, len(response))
                    reply = decode_message(response)
                request = resume(initiator, reply)
        except ReconcileError:
            stats.interrupted = True
        finally:
            initiator.close()
        return stats
