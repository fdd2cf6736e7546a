"""Named metric instruments: Counter, Gauge, Histogram, and a registry.

A dependency-free miniature of the Prometheus client data model.  An
instrument has a name, a help string, and an optional tuple of label
names; each distinct label-value combination materialises one *child*
holding the actual number(s).  Children are plain ``__slots__`` objects
so the hot path (``child.inc()``) is one attribute add — cheap enough
to leave enabled during simulations.

The :class:`MetricsRegistry` hands out instruments idempotently
(``registry.counter("x")`` twice returns the same object, and mismatched
re-registration is an error), and renders every instrument either as a
flat ``as_dict()`` or in the Prometheus text exposition format.  All
iteration orders are sorted, so rendering is deterministic.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

DEFAULT_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, float("inf"),
)


class MetricsError(Exception):
    """Instrument misuse: bad labels or conflicting registration."""


def _format_number(value) -> str:
    """Render ints without a trailing ``.0``; floats via repr."""
    if isinstance(value, bool):  # bool is an int subclass; refuse quietly
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if as_int == value else repr(value)


class CounterChild:
    """One labeled counter series."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise MetricsError("counters only go up")
        self.value += amount


class GaugeChild:
    """One labeled gauge series."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount


class HistogramChild:
    """One labeled histogram series: count, sum, cumulative buckets."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum")

    def __init__(self, buckets: Sequence[float]):
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        for index, upper in enumerate(self.buckets):
            if value <= upper:
                self.bucket_counts[index] += 1

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                _format_number(upper): counted
                for upper, counted in zip(self.buckets, self.bucket_counts)
            },
        }


class _Instrument:
    """Shared name/labels/children plumbing for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labels)
        self._children: dict[tuple, object] = {}
        self._default: Optional[object] = None

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labelvalues):
        """The child for one label-value combination (created on demand)."""
        # An existing child is found by its key alone; the label names
        # are checked in full only on the way to a new one.
        if len(labelvalues) == len(self.labelnames):
            try:
                return self._children[
                    tuple([str(labelvalues[name]) for name in self.labelnames])
                ]
            except KeyError:
                pass
        if tuple(sorted(labelvalues)) != tuple(sorted(self.labelnames)):
            raise MetricsError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _unlabeled(self):
        if self.labelnames:
            raise MetricsError(
                f"{self.name} has labels {self.labelnames}; use .labels()"
            )
        if self._default is None:
            self._default = self._make_child()
            self._children[()] = self._default
        return self._default

    def children(self) -> Iterable[tuple[tuple, object]]:
        """(label-values, child) pairs in sorted label order."""
        return sorted(self._children.items())


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def _make_child(self) -> CounterChild:
        return CounterChild()

    def inc(self, amount=1) -> None:
        self._unlabeled().inc(amount)

    @property
    def value(self):
        return self._unlabeled().value

    def total(self):
        """Sum over every labeled child."""
        return sum(child.value for _, child in self._children.items())


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def _make_child(self) -> GaugeChild:
        return GaugeChild()

    def set(self, value) -> None:
        self._unlabeled().set(value)

    def inc(self, amount=1) -> None:
        self._unlabeled().inc(amount)

    def dec(self, amount=1) -> None:
        self._unlabeled().dec(amount)

    @property
    def value(self):
        return self._unlabeled().value


class Histogram(_Instrument):
    """A distribution summarised as count/sum/cumulative buckets."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labels)
        ordered = tuple(sorted(set(float(b) for b in buckets)))
        if not ordered:
            raise MetricsError("histogram needs at least one bucket")
        if ordered[-1] != float("inf"):
            ordered = ordered + (float("inf"),)
        self.buckets = ordered

    def _make_child(self) -> HistogramChild:
        return HistogramChild(self.buckets)

    def observe(self, value) -> None:
        self._unlabeled().observe(value)

    @property
    def count(self):
        return self._unlabeled().count

    @property
    def sum(self):
        return self._unlabeled().sum


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format.

    Backslash, double-quote, and line-feed are the three characters the
    format requires escaping inside a quoted label value; anything else
    passes through verbatim.
    """
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and line-feed only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _series_name(name: str, labelnames: tuple, labelvalues: tuple) -> str:
    if not labelnames:
        return name
    rendered = ",".join(
        f'{label}="{_escape_label_value(value)}"'
        for label, value in zip(labelnames, labelvalues)
    )
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """A named collection of instruments with deterministic export."""

    def __init__(self):
        self._instruments: dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help: str, labels: Sequence[str],
                  **kwargs) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricsError(
                    f"{name} already registered as {existing.kind}"
                )
            if existing.labelnames != tuple(labels):
                raise MetricsError(
                    f"{name} already registered with labels "
                    f"{existing.labelnames}"
                )
            return existing
        instrument = cls(name, help, labels, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labels,
                              buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def value(self, name: str, **labelvalues):
        """Convenience read of one series (0 if never touched)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return 0
        child = instrument.labels(**labelvalues)
        if isinstance(child, HistogramChild):
            return child.as_dict()
        return child.value

    def as_dict(self) -> dict:
        """Flat ``{series-name: value}`` mapping, sorted, deterministic."""
        result: dict = {}
        for name in self.names():
            instrument = self._instruments[name]
            for labelvalues, child in instrument.children():
                series = _series_name(
                    name, instrument.labelnames, labelvalues
                )
                if isinstance(child, HistogramChild):
                    result[series] = child.as_dict()
                else:
                    result[series] = child.value
        return result

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (sorted, deterministic).

        Exactly one ``# HELP`` (when a help string exists) and one
        ``# TYPE`` line per metric family, before any of its samples;
        label values escape backslash, quote, and newline per the
        exposition grammar.
        """
        lines: list[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(
                    f"# HELP {name} {_escape_help(instrument.help)}"
                )
            lines.append(f"# TYPE {name} {instrument.kind}")
            for labelvalues, child in instrument.children():
                if isinstance(child, HistogramChild):
                    lines.extend(self._render_histogram(
                        name, instrument.labelnames, labelvalues, child
                    ))
                else:
                    series = _series_name(
                        name, instrument.labelnames, labelvalues
                    )
                    lines.append(
                        f"{series} {_format_number(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _render_histogram(name: str, labelnames: tuple, labelvalues: tuple,
                          child: HistogramChild) -> list[str]:
        lines = []
        cumulative = 0
        for upper, counted in zip(child.buckets, child.bucket_counts):
            cumulative = counted
            series = _series_name(
                f"{name}_bucket",
                labelnames + ("le",),
                labelvalues + (_format_number(upper),),
            )
            lines.append(f"{series} {cumulative}")
        lines.append(
            f"{_series_name(name + '_sum', labelnames, labelvalues)} "
            f"{_format_number(child.sum)}"
        )
        lines.append(
            f"{_series_name(name + '_count', labelnames, labelvalues)} "
            f"{child.count}"
        )
        return lines
