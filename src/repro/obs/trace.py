"""Structured trace events and pluggable sinks.

A :class:`TraceBus` turns ``bus.emit("contact.outcome", node=3,
outcome="ok")`` into a :class:`TraceEvent` stamped with the *simulation*
clock (never wall time — two runs of the same seeded scenario produce
bit-for-bit identical traces) and fans it out to sinks:

* :class:`RingBufferSink` — the last N events in memory, for tests and
  post-run analysis without touching disk;
* :class:`JsonlFileSink` — one canonical JSON object per line, the
  interchange format ``repro analyze`` reads back.

Event payload values are restricted to JSON-friendly scalars; ``bytes``
and digest-bearing objects (:class:`repro.crypto.sha.Hash`) are
hex-encoded, sets are sorted, tuples become lists.  Keys are sorted at
serialisation time, so a JSONL trace is canonical.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from typing import Callable, Iterable, Iterator, Optional, Union


def _jsonable(value):
    """Coerce a field value to something JSON-serialisable, stably."""
    if isinstance(value, bytes):
        return value.hex()
    digest = getattr(value, "digest", None)
    if isinstance(digest, bytes):
        return digest.hex()
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


class TraceEvent:
    """One timestamped, typed observation."""

    __slots__ = ("time_ms", "type", "fields")

    def __init__(self, time_ms: int, event_type: str, fields: dict):
        self.time_ms = time_ms
        self.type = event_type
        self.fields = fields

    def as_dict(self) -> dict:
        record = {"t": self.time_ms, "type": self.type}
        for key, value in self.fields.items():
            record[key] = _jsonable(value)
        return record

    def to_json(self) -> str:
        return json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )

    def __repr__(self) -> str:
        return f"TraceEvent({self.time_ms}, {self.type!r}, {self.fields!r})"


class RingBufferSink:
    """Keeps the most recent *capacity* events in memory."""

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("ring buffer needs capacity >= 1")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.total_written = 0

    def write(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.total_written += 1

    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._events)


class JsonlFileSink:
    """Appends one canonical JSON line per event to a file."""

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8", newline="\n")
        self.total_written = 0

    def write(self, event: TraceEvent) -> None:
        self._handle.write(event.to_json() + "\n")
        self.total_written += 1

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class TraceBus:
    """Stamps events with a deterministic clock and fans out to sinks."""

    __slots__ = ("_clock", "_sinks", "_sequence")

    def __init__(self, clock: Optional[Callable[[], int]] = None,
                 sinks: Iterable = ()):
        # Without an explicit clock, stamp with a 0-based sequence
        # number — still fully deterministic, never wall time.
        self._sequence = 0
        self._clock = clock if clock is not None else self._next_sequence
        self._sinks = list(sinks)

    def _next_sequence(self) -> int:
        value = self._sequence
        self._sequence += 1
        return value

    @property
    def sinks(self) -> list:
        return list(self._sinks)

    def add_sink(self, sink) -> None:
        self._sinks.append(sink)

    def emit(self, event_type: str, **fields) -> None:
        event = TraceEvent(self._clock(), event_type, fields)
        for sink in self._sinks:
            sink.write(event)

    def ring_events(self) -> list[TraceEvent]:
        """Events from the first ring-buffer sink, if any."""
        for sink in self._sinks:
            if isinstance(sink, RingBufferSink):
                return sink.events()
        return []

    def flush(self) -> None:
        for sink in self._sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


def read_jsonl(path: Union[str, pathlib.Path]) -> Iterator[dict]:
    """Yield the event dicts of a JSONL trace file."""
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_jsonl_lenient(
    path: Union[str, pathlib.Path]
) -> tuple[list[dict], int]:
    """Read a JSONL trace, skipping lines that don't parse.

    A node killed mid-write (the chaos sweep does this on purpose)
    leaves a truncated final line; later corruption can garble any
    line.  Returns ``(events, skipped)`` where *skipped* counts lines
    that were non-empty but not valid JSON objects — the callers
    (``vegvisir analyze`` and the trace merger) surface it as a counted
    warning instead of a traceback.
    """
    events: list[dict] = []
    skipped = 0
    with pathlib.Path(path).open(
        "r", encoding="utf-8", errors="replace"
    ) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(record, dict):
                events.append(record)
            else:
                skipped += 1
    return events, skipped
