"""The one HTTP/1.1 implementation under the ops and client planes.

The ops endpoint (:mod:`repro.obs.live`) and the client gateway
(:mod:`repro.gateway.server`) speak plain HTTP because their clients
are curl, Prometheus scrapers, ``vegvisir top``, ordinary devices and
load generators, not Vegvisir replicas — the anti-entropy wire protocol
never touches this module, and the byte-parity suite pins that neither
plane adds a byte to any gossip frame.

Dependency-free by design: a request parser with bounded head and body
sizes, a response builder, and :class:`HttpServer` — the server loop
both planes subclass with a route table each (listen, connection
tracking, keep-alive, the request deadline, :class:`HttpError` →
response, handler bug → 500, clean close).  Anything outside the small subset the planes need
(chunked bodies, trailers, multipart) is rejected with a clean 4xx,
never an exception escaping a handler.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, NamedTuple, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.runtime import SYSTEM, Listener, Runtime

MAX_HEAD_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024
#: How long a connection may take to deliver one whole request.  A
#: client that stops midway is answered 408; one that has sent nothing
#: (an idle keep-alive connection) is closed silently.
REQUEST_TIMEOUT_S = 30.0

GET = ("GET", "HEAD")
POST = ("POST",)

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request a server refuses; carries the response status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "target", "version", "path", "query", "headers",
                 "body")

    def __init__(self, method: str, target: str, version: str,
                 headers: dict[str, str], body: bytes):
        self.method = method
        self.target = target
        self.version = version
        split = urlsplit(target)
        self.path = unquote(split.path)
        self.query = dict(parse_qsl(split.query))
        self.headers = headers
        self.body = body

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        # A 1.0 client reads to EOF; only 1.1 defaults to keep-alive.
        return (
            self.version == "HTTP/1.1"
            and "close" not in self.header("connection").lower()
        )

    @property
    def wants_upgrade(self) -> bool:
        return (
            "upgrade" in self.header("connection").lower()
            and self.header("upgrade").lower() == "websocket"
        )

    def json_body(self):
        """The body decoded as JSON; :class:`HttpError` 400 if it isn't."""
        if not self.body:
            raise HttpError(400, "request body must be JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            # RecursionError: a body nested past the decoder's stack.
            raise HttpError(400, f"malformed JSON body: {exc}") from exc

    def __repr__(self) -> str:
        return f"Request({self.method} {self.target})"


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request; ``None`` on a clean EOF between requests.

    Raises :class:`HttpError` on anything malformed or oversize — the
    caller answers with the carried status and closes the connection.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "request head too large") from exc
    if len(head) > MAX_HEAD_BYTES:
        raise HttpError(431, "request head too large")
    lines = head[:-4].split(b"\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    try:
        method, target, version = (part.decode("ascii") for part in parts)
    except UnicodeDecodeError as exc:
        raise HttpError(400, "non-ASCII request line") from exc
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(400, f"unsupported HTTP version {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            raise HttpError(400, "malformed header line")
        try:
            headers[name.decode("ascii").strip().lower()] = (
                value.decode("latin-1").strip()
            )
        except UnicodeDecodeError as exc:
            raise HttpError(400, "malformed header name") from exc
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(400, "chunked bodies are not supported")
    body = b""
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise HttpError(400, "bad Content-Length") from exc
    if length < 0:
        raise HttpError(400, "bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "truncated request body") from exc
    return Request(method, target, version, headers, body)


class Response:
    """One response before framing.

    Handlers say what to answer; the server loop decides how it is
    framed — keep-alive or close, and no body after a ``HEAD``.
    """

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(self, status: int, body: bytes = b"", *,
                 content_type: str = "text/plain; charset=utf-8",
                 headers: Optional[dict[str, str]] = None):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers or {}

    def encode(self, *, keep_alive: bool = True,
               head_only: bool = False) -> bytes:
        """Serialize (Content-Length framing, no chunking)."""
        lines = [
            f"HTTP/1.1 {self.status} {REASONS.get(self.status, 'Error')}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head if head_only else head + self.body


def json_response(status: int, payload, *, indent: Optional[int] = None,
                  headers: Optional[dict[str, str]] = None) -> Response:
    body = json.dumps(payload, sort_keys=True, indent=indent) + "\n"
    return Response(
        status, body.encode("utf-8"), content_type="application/json",
        headers=headers,
    )


def jsonable(value):
    """Wire values → JSON-compatible (bytes become hex strings)."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(item) for item in value), key=repr)
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return value


class Route(NamedTuple):
    """One row of a server's route table.

    *path* matches exactly, or as a prefix when it ends in ``/`` (the
    handler is then given what follows it).
    """

    path: str
    methods: tuple
    handler: Callable

    @property
    def label(self) -> str:
        """The last path segment: ``/v1/state/`` → ``state``."""
        return self.path.rstrip("/").rpartition("/")[2]


class HttpServer:
    """The asyncio server loop under both HTTP planes.

    A subclass sets :attr:`routes` and implements :meth:`respond`;
    :meth:`upgrade` and :meth:`observe` are optional.  The listener
    comes from *runtime* (:mod:`repro.runtime`).
    """

    routes: tuple = ()

    def __init__(self, host: str, port: int, runtime: Runtime = SYSTEM):
        self._host = host
        self._port = port
        self._runtime = runtime
        self._listener: Optional[Listener] = None
        self._connections: set[asyncio.Task] = set()
        self.requests_served = 0

    @property
    def port(self) -> Optional[int]:
        """The bound port (after :meth:`start`; useful with port 0)."""
        return None if self._listener is None else self._listener.port

    async def start(self) -> None:
        """Listen; ``ListenError`` if the address cannot be bound."""
        if self._listener is not None:
            raise RuntimeError(f"{self!r} already started")
        self._listener = await self._runtime.listen(
            self._accept, self._host, self._port
        )

    async def stop(self) -> None:
        """Stop accepting and end every open connection; leaves no task."""
        if self._listener is None:
            return
        self._listener.close()
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)
        await self._listener.wait_closed()
        self._listener = None

    # -- what a plane provides -----------------------------------------

    async def respond(self, request: Request) -> Response:
        """Answer one request; may raise :class:`HttpError`."""
        raise NotImplementedError

    async def upgrade(self, request: Request,
                      reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Take over the connection of a WebSocket upgrade request."""
        raise HttpError(404, "no websocket feed here")

    def observe(self, request: Request, status: int) -> None:
        """Called once per answered request (metrics, traces)."""

    def route_for(self, path: str) -> tuple[Optional[Route], str]:
        """The route serving *path* and what follows a prefix route's
        path; ``(None, "")`` when nothing serves it."""
        for route in self.routes:
            if path == route.path:
                return route, ""
            if route.path.endswith("/") and path.startswith(route.path):
                return route, path[len(route.path):]
        return None, ""

    def resolve(self, path: str, method: str) -> tuple[Route, str]:
        """:meth:`route_for`, refusing unknown paths and methods."""
        route, rest = self.route_for(path)
        if route is None:
            raise HttpError(404, f"no route for {path}")
        if method not in route.methods:
            raise HttpError(
                405, f"{path} takes {' or '.join(route.methods)}"
            )
        return route, rest

    # -- the loop ------------------------------------------------------

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        # Tracked from the instant it exists, and closed by the done
        # callback: a task cancelled before its first step never runs a
        # ``finally`` of its own.
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)

        def closed(_task: asyncio.Task) -> None:
            self._connections.discard(task)
            writer.close()

        task.add_done_callback(closed)

    async def _next_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> Optional[Request]:
        """:func:`read_request` under the request deadline."""
        def hang_up() -> None:
            # End the pending read the way a client hanging up would —
            # EOF on the reader — and read nothing more from the socket.
            writer.transport.pause_reading()
            reader.feed_eof()

        loop = asyncio.get_running_loop()
        deadline = loop.call_later(REQUEST_TIMEOUT_S, hang_up)
        try:
            return await read_request(reader)
        except HttpError as exc:
            if loop.time() < deadline.when():
                raise
            raise HttpError(408, "request not complete in time") from exc
        finally:
            deadline.cancel()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while await self._serve_request(reader, writer):
                pass
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass

    async def _serve_request(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> bool:
        """Answer one request; true while the connection stays open."""
        request = None
        try:
            request = await self._next_request(reader, writer)
            if request is None:
                return False
            self.requests_served += 1
            if request.wants_upgrade:
                await self.upgrade(request, reader, writer)
                return False
            reply = await self.respond(request)
        except HttpError as exc:
            reply = json_response(exc.status, {"error": exc.message})
        except ConnectionError:
            raise
        except Exception:  # a handler bug must not kill the server
            reply = json_response(500, {"error": "internal error"})
        keep_alive = False
        head_only = False
        if request is not None:  # else: unparseable, answer and close
            self.observe(request, reply.status)
            keep_alive = request.keep_alive
            head_only = request.method == "HEAD"
        writer.write(reply.encode(keep_alive=keep_alive, head_only=head_only))
        await writer.drain()
        return keep_alive

    def __repr__(self) -> str:
        return f"{type(self).__name__}(port={self.port})"
