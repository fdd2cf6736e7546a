"""The gateway's client-facing HTTP/WebSocket server.

A route table on the shared server loop (:mod:`repro.httpd`: bounded
request heads and bodies, keep-alive, a deadline on every request) that
routes requests to the hosted chains and upgrades ``/v1/subscribe`` to
a WebSocket push feed.  All limits are hard: bounded subscriber queues,
admission control before any work is done, and a bounded batch queue
behind the submit path — a misbehaving client can be refused, shed,
timed out or disconnected, but can never grow the gateway's memory.

Routes (``<chain>`` is a chain-id prefix; bare routes hit the default
chain):

====================================  =================================
``GET  /healthz``                     liveness probe
``GET  /v1/chains``                   hosted chain prefixes → ids
``POST /v1/tx``                       submit one transaction
``GET  /v1/state/<crdt>``             current CRDT value
``GET  /v1/block/<hash>``             one block as JSON
``WS   /v1/subscribe``                block/frontier push feed
``*    /v1/c/<chain>/…``              any of the above, per tenant
====================================  =================================
"""

from __future__ import annotations

import asyncio
import math
from typing import Optional, TYPE_CHECKING

from repro import wire
from repro.chain.errors import MalformedBlockError
from repro.chain.block import Transaction
from repro.crypto.sha import Hash
from repro.csm.errors import CSMError
from repro.gateway import websocket as ws
from repro.gateway.batching import BatcherClosed, ShedError
from repro.httpd import (
    GET,
    POST,
    HttpError,
    HttpServer,
    Request,
    Response,
    Route,
    json_response,
    jsonable,
)

if TYPE_CHECKING:
    from repro.gateway.node import ChainHost, GatewayNode

_SUBSCRIBE = "/v1/subscribe"


class GatewayServer(HttpServer):
    """The HTTP/WebSocket server in front of a :class:`GatewayNode`."""

    def __init__(self, node: "GatewayNode", *, host: str = "127.0.0.1",
                 port: int = 0, obs=None):
        super().__init__(host, port, node.runtime)
        self._node = node
        self._obs = obs

    # -- routing -------------------------------------------------------

    @staticmethod
    def _split(path: str) -> tuple[Optional[str], str]:
        """``(chain prefix, route path)``; the prefix is ``None`` on a
        bare route."""
        if not path.startswith("/v1/c/"):
            return None, path
        prefix, _, tail = path[len("/v1/c/"):].partition("/")
        return prefix, "/v1/" + tail

    def _host_for(self, request: Request) -> tuple["ChainHost", str]:
        prefix, path = self._split(request.path)
        host = self._node.resolve_host(prefix)
        if host is None:
            raise HttpError(404, f"no hosted chain with prefix {prefix!r}")
        return host, path

    async def respond(self, request: Request) -> Response:
        host, path = self._host_for(request)
        route, rest = self.resolve(path, request.method)
        return await route.handler(self, host, request, rest)

    def observe(self, request: Request, status: int) -> None:
        prefix, path = self._split(request.path)
        route = None
        if self._node.resolve_host(prefix) is not None:
            route, _ = self.route_for(path)
        label = "other" if route is None else route.label
        self._node.observe_request(label, status)
        if self._obs is not None:
            self._obs.emit(
                "gateway.request", method=request.method,
                route=label, status=status,
            )

    # -- handlers ------------------------------------------------------

    async def _healthz(self, host, request, rest) -> Response:
        return Response(200, b"ok\n")

    async def _chains(self, host, request, rest) -> Response:
        return json_response(200, {
            "chains": {
                prefix: h.chain_id_hex
                for prefix, h in sorted(self._node.hosts.items())
            },
            "default": self._node.default_host.prefix,
        })

    @staticmethod
    def _client_id(request: Request) -> str:
        return (
            request.header("x-client-id")
            or request.query.get("client")
            or "-"
        )

    @staticmethod
    def _retry_later(error: str, retry_after_s: float) -> Response:
        return json_response(
            429,
            {"error": error, "retry_after_s": round(retry_after_s, 3)},
            headers={"Retry-After": str(math.ceil(retry_after_s))},
        )

    async def _submit(self, host: "ChainHost", request: Request,
                      rest: str) -> Response:
        admitted, retry_after = self._node.admission.admit(
            self._client_id(request)
        )
        if not admitted:
            return self._retry_later("rate_limited", retry_after)
        payload = request.json_body()
        if not isinstance(payload, dict):
            raise HttpError(400, "transaction must be a JSON object")
        args = payload.get("args", [])
        if not isinstance(args, list):
            raise HttpError(400, "args must be a list")
        try:
            tx = Transaction(payload.get("crdt"), payload.get("op"), args)
        except MalformedBlockError as exc:
            raise HttpError(400, str(exc)) from exc
        loop = asyncio.get_running_loop()
        start = loop.time()
        # What the block encoder would refuse (a float, a list nested
        # past the stack, more bytes than a block carries) fails this
        # client here, not its whole batch.
        try:
            future = host.batcher.submit(tx)
        except (wire.EncodeError, RecursionError) as exc:
            raise HttpError(400, f"args are not wire-encodable: {exc}") from exc
        except ValueError as exc:
            raise HttpError(413, str(exc)) from exc
        # The deadline cancels the future, which is awaited directly: the
        # answer goes out in the loop turn after the cut, before the
        # replica pushes the block (``wait_for`` on Python 3.11 hands the
        # result back one turn later, behind the push).
        deadline = loop.call_later(self._node.submit_timeout_s, future.cancel)
        try:
            result = await future
        except ShedError as exc:
            return self._retry_later("shed", exc.retry_after_s)
        except BatcherClosed:
            return json_response(503, {"error": "gateway stopping"})
        except asyncio.CancelledError:
            if loop.time() < deadline.when():
                raise
            return json_response(503, {"error": "submit timed out"})
        finally:
            deadline.cancel()
        latency_ms = (loop.time() - start) * 1000.0
        self._node.observe_submit_latency(latency_ms)
        return json_response(200, {
            "chain": host.prefix,
            "block": result.block_hash.hex(),
            "index": result.index,
            "applied": result.applied,
            "reason": result.reason,
            "batch_size": result.batch_size,
            "latency_ms": round(latency_ms, 3),
        })

    async def _state(self, host: "ChainHost", request: Request,
                     name: str) -> Response:
        if not name:
            raise HttpError(404, "state route needs a CRDT name")
        try:
            value = host.live.node.csm.crdt_value(name)
        except CSMError as exc:
            raise HttpError(404, str(exc)) from exc
        return json_response(200, {
            "chain": host.prefix,
            "crdt": name,
            "value": jsonable(value),
            "blocks": len(host.live.node.dag),
        })

    async def _block(self, host: "ChainHost", request: Request,
                     hex_hash: str) -> Response:
        try:
            block_hash = Hash.from_hex(hex_hash)
        except (ValueError, TypeError) as exc:
            raise HttpError(400, f"bad block hash: {exc}") from exc
        dag = host.live.node.dag
        if block_hash not in dag:
            raise HttpError(404, "no such block on this chain")
        block = dag.get(block_hash)
        header = block.header
        return json_response(200, {
            "chain": host.prefix,
            "hash": block.hash.hex(),
            # Named fields for clients: the wire form is positional.
            "block": {
                "header": {
                    "location": jsonable(header.location),
                    "parents": [parent.hex() for parent in header.parents],
                    "timestamp": header.timestamp,
                    "user_id": header.user_id.hex(),
                },
                "signature": block.signature.hex(),
                "transactions": [
                    {"crdt": tx.crdt_name, "op": tx.op,
                     "args": jsonable(tx.args)}
                    for tx in block.transactions
                ],
            },
        })

    async def _subscribe(self, host, request, rest) -> Response:
        raise HttpError(404, f"{_SUBSCRIBE} is a websocket feed")

    #: Handlers are awaited as ``handler(server, host, request, rest)``.
    routes = (
        Route("/healthz", GET, _healthz),
        Route("/v1/chains", GET, _chains),
        Route("/v1/tx", POST, _submit),
        Route("/v1/state/", GET, _state),
        Route("/v1/block/", GET, _block),
        Route(_SUBSCRIBE, GET, _subscribe),
    )

    # -- the push feed -------------------------------------------------

    async def upgrade(self, request: Request,
                      reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        host, path = self._host_for(request)
        key = request.header("sec-websocket-key")
        if path != _SUBSCRIBE or not key:
            raise HttpError(
                404 if path != _SUBSCRIBE else 400,
                f"websocket upgrade only on {_SUBSCRIBE}",
            )
        writer.write(ws.handshake_response(key))
        await writer.drain()
        self.observe(request, 101)
        queue = host.subscribe()
        self._node.sync_subscriber_gauge(host)
        sender = asyncio.ensure_future(self._ws_sender(queue, writer))
        try:
            writer.write(ws.text_frame(
                '{"type": "hello", "chain": "%s", "blocks": %d}'
                % (host.prefix, len(host.live.node.dag))
            ))
            await writer.drain()
            await self._ws_reader(reader, writer)
        except (ConnectionError, OSError, ws.WebSocketError):
            pass
        finally:
            sender.cancel()
            try:
                await sender
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
            host.unsubscribe(queue)
            self._node.sync_subscriber_gauge(host)

    @staticmethod
    async def _ws_sender(queue: asyncio.Queue,
                         writer: asyncio.StreamWriter) -> None:
        while True:
            message = await queue.get()
            if message is None:  # dropped: could not keep up
                writer.write(ws.close_frame(1013))  # "try again later"
                await writer.drain()
                return
            writer.write(ws.text_frame(message))
            await writer.drain()

    @staticmethod
    async def _ws_reader(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        parser = ws.FrameParser()
        while True:
            data = await reader.read(4096)
            if not data:
                return
            for opcode, payload in parser.feed(data):
                if opcode == ws.OP_CLOSE:
                    writer.write(ws.close_frame())
                    await writer.drain()
                    return
                if opcode == ws.OP_PING:
                    writer.write(ws.encode_frame(ws.OP_PONG, payload))
                    await writer.drain()
                # Text/binary/pong from subscribers are ignored: the
                # feed is one-way.
