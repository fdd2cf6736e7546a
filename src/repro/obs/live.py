"""The live ops endpoint: a tiny HTTP server per node.

Every :class:`~repro.live.node.LiveNode` can expose an operational
surface on a separate TCP port (``vegvisir serve --ops-port``), fully
out of band of the gossip plane — the ops server shares nothing with
the reconciliation transport and adds **zero bytes** to any gossip or
handshake frame (the byte-parity suite pins that down).

Routes (``GET`` or ``HEAD``):

* ``/healthz`` — ``200 ok`` while the server runs (the liveness probe
  a supervisor or load balancer polls);
* ``/metrics`` — the node's registry in Prometheus text exposition
  format (``text/plain; version=0.0.4``);
* ``/status``  — a JSON snapshot from the ``status`` callable: node id,
  chain, frontier digest, connected peers, discovery summary, session
  counters (what ``vegvisir top`` renders).

The HTTP itself — bounded parsing, keep-alive, the request deadline,
every 4xx — is :mod:`repro.httpd`, shared with the client gateway; this
module is the route table.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.httpd import GET, HttpServer, Request, Response, Route, json_response
from repro.runtime import SYSTEM, Runtime


class OpsServer(HttpServer):
    """One node's HTTP ops endpoint.

    *registry* is a :class:`~repro.obs.metrics.MetricsRegistry` (or
    ``None`` to 404 ``/metrics``); *status* is a zero-argument callable
    returning a JSON-serialisable dict (or ``None`` to 404 ``/status``).
    """

    def __init__(
        self,
        *,
        registry=None,
        status: Optional[Callable[[], dict]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        runtime: Runtime = SYSTEM,
    ):
        super().__init__(host, port, runtime)
        routes = {"/healthz": lambda: Response(200, b"ok\n")}
        if registry is not None:
            routes["/metrics"] = lambda: Response(
                200, registry.render_prometheus().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if status is not None:
            routes["/status"] = lambda: json_response(
                200, status(), indent=2
            )
        self.routes = tuple(
            Route(path, GET, handler) for path, handler in routes.items()
        )

    async def respond(self, request: Request) -> Response:
        route, _ = self.resolve(request.path, request.method)
        return route.handler()
