"""The traced pass: a timing shim around a fixed table of public calls.

``install()`` replaces each callable in :data:`TABLE` with a wrapper
that records one span per call (name, parent, start, duration) —
parentage rides a context variable, so it follows asyncio tasks.  Every
binding of a wrapped function is patched (``from x import f`` copies
included) and ``restore()`` puts every original back.  Spans stay in
memory; :meth:`Recorder.write` dumps them as JSON lines at exit.

A span's *self time* is its duration minus its child spans' durations,
so the layers' self times partition the traced part of the window and
their shares can never sum past 100 %.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import json
import os
import sys
import time
from typing import Callable, Optional

#: Raw spans kept for ``spans.jsonl``; aggregates always cover every span.
MAX_RAW_SPANS = 200_000

_current: contextvars.ContextVar = contextvars.ContextVar(
    "ledger_span", default=None
)


def _encoded_kb(args, result) -> float:
    return len(result) / 1024.0


def _decoded_kb(args, result) -> float:
    return len(args[0]) / 1024.0


def _store_bytes(args, result) -> float:
    # Record framing: 4-byte length + 32-byte checksum + payload.
    return args[1].wire_size + 36.0


def _merge_units(args, result):
    return {"added": len(result.added), "duplicates": result.duplicates,
            "offered": len(result.added) + result.duplicates
            + result.invalid + len(result.unplaced)}


def _batch_items(args, result) -> float:
    return float(len(result))


#: (span name, module, dotted attribute, units hook or None).  The span
#: name's prefix up to the first dot is the layer.
TABLE = (
    ("gateway.admit", "repro.gateway.admission",
     "AdmissionController.admit", None),
    ("gateway.submit", "repro.gateway.batching", "TxBatcher.submit", None),
    ("gateway.client_request", "repro.gateway.loadgen",
     "GatewayClient.request", None),
    ("core.append", "repro.core.node",
     "VegvisirNode.append_transactions", None),
    ("core.receive", "repro.core.node", "VegvisirNode.receive_block", None),
    ("chain.create", "repro.chain.block", "Block.create", None),
    ("chain.validate", "repro.chain.validation",
     "BlockValidator.validate", None),
    ("chain.preverify", "repro.chain.validation",
     "BlockValidator.preverify", None),
    ("chain.dag_insert", "repro.chain.dag", "BlockDAG.add_block", None),
    ("crypto.sign", "repro.crypto.backend", "CryptographyEd25519.sign", None),
    ("crypto.verify", "repro.crypto.backend",
     "CryptographyEd25519.verify", None),
    ("crypto.verify_batch", "repro.crypto.backend",
     "CryptoBackend.verify_batch", _batch_items),
    ("csm.replay", "repro.csm.machine", "CSMachine.replay_block", None),
    ("wire.encode", "repro.wire", "encode", _encoded_kb),
    ("wire.decode", "repro.wire", "decode", _decoded_kb),
    ("wire.block_parse", "repro.chain.block", "Block.from_bytes", None),
    ("storage.append", "repro.storage.blockstore",
     "BlockStore.append", _store_bytes),
    ("storage.fsync", "os", "fsync", None),
    ("storage.load", "repro.storage.node_store", "load_node", None),
    ("live.session", "repro.live.antientropy",
     "AntiEntropyLoop.run_once", None),
    ("live.recv_wait", "repro.live.transport", "StreamTransport.recv", None),
    ("live.responder", "repro.live.protocol", "LiveResponder.handle", None),
    ("reconcile.merge", "repro.reconcile.session",
     "merge_blocks", _merge_units),
    ("net.neighbors", "repro.net.topology",
     "GeometricTopology.neighbors", None),
    ("net.positions", "repro.net.mobility",
     "MobilityModel.positions_at", None),
)

LAYERS = ("gateway", "core", "chain", "crypto", "csm", "wire", "storage",
          "live", "reconcile", "net")


class Aggregate:
    """Totals of one span name.  ``busy_s`` is on-CPU time (an awaited
    span's suspensions excluded), ``wall_s`` start-to-end time, and
    ``self_s`` busy time minus the busy time of child spans."""

    __slots__ = ("count", "busy_s", "wall_s", "self_s", "units")

    def __init__(self):
        self.count = 0
        self.busy_s = 0.0
        self.wall_s = 0.0
        self.self_s = 0.0
        self.units: dict = {}


class Recorder:
    """Where the wrappers put their spans."""

    def __init__(self):
        self.enabled = False
        self.aggregates: dict[str, Aggregate] = {}
        self.raw: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self._patches: list[tuple] = []
        #: Filled by the gateway hooks: queue wait and batch size per
        #: accepted transaction, client-side minus server-side latency.
        self.batch_wait_ms: list[float] = []
        self.batch_sizes: list[int] = []
        self.http_ms: list[float] = []

    # -- recording ---------------------------------------------------------

    def _finish(self, name: str, span: list, duration: float, units,
                wall: Optional[float] = None) -> None:
        """Close *span*: *duration* is its on-CPU time, *wall* (awaited
        spans only) its start-to-end time including suspensions."""
        aggregate = self.aggregates.get(name)
        if aggregate is None:
            aggregate = self.aggregates[name] = Aggregate()
        aggregate.count += 1
        aggregate.busy_s += duration
        aggregate.wall_s += duration if wall is None else wall
        aggregate.self_s += max(0.0, duration - span[2])
        if units is not None:
            if not isinstance(units, dict):
                units = {"units": units}
            for key, value in units.items():
                aggregate.units[key] = aggregate.units.get(key, 0.0) + value
        parent = span[1]
        if parent is not None:
            parent[2] += duration
        if len(self.raw) < MAX_RAW_SPANS:
            self.raw.append((
                span[0], None if parent is None else parent[0], name,
                span[3], duration if wall is None else wall, duration,
            ))
        else:
            self.dropped += 1

    def _open(self) -> list:
        # [id, parent span, child seconds, start]
        self._next_id += 1
        return [self._next_id, _current.get(), 0.0, time.perf_counter()]

    def _wrap(self, name: str, fn: Callable, units_hook) -> Callable:
        recorder = self

        if inspect.iscoroutinefunction(fn):
            async def traced(*args, **kwargs):
                if not recorder.enabled:
                    return await fn(*args, **kwargs)
                return await _Stepped(recorder, name, fn(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                if not recorder.enabled:
                    return fn(*args, **kwargs)
                span = recorder._open()
                token = _current.set(span)
                units = None
                try:
                    result = fn(*args, **kwargs)
                    if units_hook is not None:
                        units = units_hook(args, result)
                    after = _AFTER.get(name)
                    if after is not None:
                        after(recorder, 0.0, result)
                    return result
                finally:
                    duration = time.perf_counter() - span[3]
                    _current.reset(token)
                    recorder._finish(name, span, duration, units)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("span shim already installed")
        for name, module_name, dotted, units_hook in TABLE:
            module = importlib.import_module(module_name)
            owner = module
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(name, raw.__func__, units_hook)
                )
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    self._wrap(name, raw.__func__, units_hook)
                )
            else:
                wrapped = self._wrap(name, raw, units_hook)
            self._patch(owner, attr, raw, wrapped)
            if not path and module_name != "os":
                # A plain function: ``from m import f`` made copies.
                for other in list(sys.modules.values()):
                    if (other is not module and other is not None
                            and getattr(other, "__name__", "").startswith(
                                "repro")
                            and other.__dict__.get(attr) is raw):
                        self._patch(other, attr, raw, wrapped)
        self.enabled = True

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched(self) -> list[tuple]:
        return [(owner, attr) for owner, attr, _ in self._patches]

    # -- reading -----------------------------------------------------------

    def get(self, name: str) -> Aggregate:
        return self.aggregates.get(name) or Aggregate()

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, aggregate in self.aggregates.items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + aggregate.self_s
        return totals

    def write(self, path, header: dict) -> None:
        """One header line, one line per aggregate, one per raw span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"kind": "header", "spans_dropped": self.dropped, **header},
                sort_keys=True) + "\n")
            for name in sorted(self.aggregates):
                aggregate = self.aggregates[name]
                handle.write(json.dumps({
                    "kind": "aggregate", "name": name,
                    "count": aggregate.count,
                    "busy_s": aggregate.busy_s, "wall_s": aggregate.wall_s,
                    "self_s": aggregate.self_s,
                    "units": aggregate.units,
                }, sort_keys=True) + "\n")
            for span_id, parent, name, start, wall, busy in self.raw:
                handle.write(
                    f'{{"kind":"span","id":{span_id},"parent":'
                    f'{"null" if parent is None else parent},'
                    f'"name":"{name}","start":{start:.6f},'
                    f'"dur":{wall:.7f},"busy":{busy:.7f}}}\n'
                )


class _Stepped:
    """Awaits a coroutine one step at a time, so a span's on-CPU time
    (the steps) is told apart from the time it spent suspended."""

    __slots__ = ("_recorder", "_name", "_coro")

    def __init__(self, recorder: Recorder, name: str, coro):
        self._recorder = recorder
        self._name = name
        self._coro = coro

    def __await__(self):
        recorder, name = self._recorder, self._name
        inner = self._coro.__await__()
        span = recorder._open()
        busy = 0.0
        value = None
        error: Optional[BaseException] = None
        result = None
        try:
            while True:
                token = _current.set(span)
                step0 = time.perf_counter()
                try:
                    if error is None:
                        yielded = inner.send(value)
                    else:
                        yielded = inner.throw(error)
                except StopIteration as stop:
                    result = stop.value
                    return result
                finally:
                    busy += time.perf_counter() - step0
                    _current.reset(token)
                try:
                    value = yield yielded
                    error = None
                except BaseException as exc:  # thrown in: hand it down
                    error = exc
        finally:
            wall = time.perf_counter() - span[3]
            recorder._finish(name, span, busy, None, wall=wall)
            after = _AFTER.get(name)
            if after is not None and result is not None:
                after(recorder, wall, result)


def _after_submit(recorder: Recorder, _duration: float, future) -> None:
    def done(fut) -> None:
        if fut.cancelled() or fut.exception() is not None:
            return
        result = fut.result()
        recorder.batch_wait_ms.append(result.queued_ms)
        recorder.batch_sizes.append(result.batch_size)
    future.add_done_callback(done)


def _after_client_request(recorder: Recorder, duration: float, reply) -> None:
    status, _headers, body = reply
    if status == 200 and "latency_ms" in body:
        recorder.http_ms.append(duration * 1000.0 - body["latency_ms"])


_AFTER = {
    "gateway.submit": _after_submit,
    "gateway.client_request": _after_client_request,
}
