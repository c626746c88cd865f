"""A process-local metrics registry with a snapshot/merge protocol.

The live-telemetry layer's vocabulary: **counters** (monotone totals),
**gauges** (instantaneous values with a declared merge aggregation), and
**fixed-bucket histograms** (latency distributions), owned by one
:class:`MetricsRegistry` per process.  The registry is shared by the
simulator (:mod:`repro.runtime.engine`) and the real executor
(:mod:`repro.dist`): both sides increment the same metric names, so a
simulated run and a real run of one plan expose comparable series.

Design constraints, in order:

* **zero-cost when disabled** — a disabled registry hands out a single
  no-op metric object; the hot loops pay one attribute lookup and an
  empty call, never a dict update or clock read;
* **picklable snapshots** — workers cannot ship live metric objects
  across processes, so :meth:`MetricsRegistry.snapshot` freezes the
  registry into a :class:`MetricsSnapshot` (plain dicts and tuples) that
  rides inside heartbeats and worker reports;
* **merge-able** — :meth:`MetricsSnapshot.merge` combines per-rank
  snapshots into fleet totals: counters sum, gauges aggregate by their
  declared ``agg`` (``max`` for high-watermarks, ``sum`` for additive
  levels, ``last`` for configuration stamps), histogram buckets add
  elementwise (same buckets required — bucket layouts are part of the
  metric's identity);
* **Prometheus text exposition** — :meth:`MetricsSnapshot.to_prometheus`
  renders the standard ``# HELP`` / ``# TYPE`` / sample format, with
  ``_bucket{le="..."}`` / ``_sum`` / ``_count`` series per histogram, so
  a job's ``metrics.<id>.prom`` can be scraped or diffed by stock tooling.

Naming convention (enforced loosely, documented in
``docs/architecture.md``): ``repro_<area>_<name>[_total|_bytes|_seconds]``
— counters end in ``_total``, byte gauges in ``_bytes``, duration
histograms in ``_seconds``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

#: Default histogram buckets (seconds): ~100 us .. ~10 s latencies.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Gauge merge aggregations.
GAUGE_AGGS = ("max", "sum", "last")


class Counter:
    """A monotone total.  ``inc`` only; negative increments are rejected."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n


class Gauge:
    """An instantaneous value with a declared cross-rank aggregation."""

    __slots__ = ("name", "help", "agg", "value")

    def __init__(self, name: str, help: str = "", agg: str = "max"):
        if agg not in GAUGE_AGGS:
            raise ValueError(f"gauge agg must be one of {GAUGE_AGGS}, got {agg!r}")
        self.name = name
        self.help = help
        self.agg = agg
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def set_max(self, v: float) -> None:
        """High-watermark update: keep the larger of the two."""
        if v > self.value:
            self.value = float(v)


class Histogram:
    """A fixed-bucket histogram (cumulative counts computed at snapshot).

    ``buckets`` are the upper bounds of the finite buckets, strictly
    increasing; observations above the last bound land only in the
    implicit ``+Inf`` bucket.  ``observe`` is one ``bisect`` plus one
    list increment — cheap enough for per-chunk instrumentation.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(set(buckets)):
            raise ValueError(f"histogram buckets must be strictly increasing: {buckets}")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # trailing slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.buckets, v)] += 1
        self.sum += v
        self.count += 1


class _NullMetric:
    """The one no-op metric a disabled registry hands out for every name."""

    __slots__ = ()

    def inc(self, n: float = 1.0) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def set_max(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass


_NULL = _NullMetric()


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen histogram state: per-bucket counts (not yet cumulative)."""

    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int


@dataclass
class MetricsSnapshot:
    """A picklable freeze of one registry (or a merge of several).

    ``gauge_aggs`` remembers each gauge's declared aggregation so a later
    merge applies the right combiner; ``helps`` carries the help strings
    into the Prometheus exposition.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    gauge_aggs: dict[str, str] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)
    helps: dict[str, str] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def get(self, name: str, default: float = 0.0) -> float:
        """Convenience lookup across counters and gauges."""
        if name in self.counters:
            return self.counters[name]
        return self.gauges.get(name, default)

    @classmethod
    def merge(cls, parts) -> "MetricsSnapshot":
        """Combine snapshots: counters sum, gauges by ``agg``, buckets add."""
        out = cls()
        for snap in parts:
            if snap is None:
                continue
            for name, v in snap.counters.items():
                out.counters[name] = out.counters.get(name, 0.0) + v
            for name, v in snap.gauges.items():
                agg = snap.gauge_aggs.get(name, "max")
                out.gauge_aggs[name] = agg
                if name not in out.gauges:
                    out.gauges[name] = v
                elif agg == "sum":
                    out.gauges[name] += v
                elif agg == "last":
                    out.gauges[name] = v
                else:  # max
                    out.gauges[name] = max(out.gauges[name], v)
            for name, h in snap.histograms.items():
                prev = out.histograms.get(name)
                if prev is None:
                    out.histograms[name] = h
                else:
                    if prev.buckets != h.buckets:
                        raise ValueError(
                            f"histogram {name!r} merged with mismatched "
                            f"buckets; bucket layout is part of the metric"
                        )
                    out.histograms[name] = HistogramSnapshot(
                        buckets=prev.buckets,
                        counts=tuple(a + b for a, b in zip(prev.counts, h.counts)),
                        sum=prev.sum + h.sum,
                        count=prev.count + h.count,
                    )
            out.helps.update(snap.helps)
        return out

    def to_prometheus(self) -> str:
        """The standard text exposition format (version 0.0.4).

        One ``# HELP`` + ``# TYPE`` header per metric family, samples
        below it; histograms expose cumulative ``_bucket{le="..."}``
        series ending at ``le="+Inf"``, plus ``_sum`` and ``_count``.
        """
        lines: list[str] = []

        def header(name: str, kind: str) -> None:
            help_text = self.helps.get(name, "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        for name in sorted(self.counters):
            header(name, "counter")
            lines.append(f"{name} {_fmt(self.counters[name])}")
        for name in sorted(self.gauges):
            header(name, "gauge")
            lines.append(f"{name} {_fmt(self.gauges[name])}")
        for name in sorted(self.histograms):
            h = self.histograms[name]
            header(name, "histogram")
            cum = 0
            for bound, n in zip(h.buckets, h.counts):
                cum += n
                lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cum}')
            cum += h.counts[-1]
            lines.append(f'{name}_bucket{{le="+Inf"}} {cum}')
            lines.append(f"{name}_sum {_fmt(h.sum)}")
            lines.append(f"{name}_count {h.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(v: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


class MetricsRegistry:
    """The per-process home of every live metric.

    Metric constructors are idempotent by name (the first call fixes the
    help/agg/buckets; later calls return the same object), so independent
    subsystems can ask for ``registry.counter("repro_x_total")`` without
    coordinating creation order.  A disabled registry returns the shared
    no-op metric and snapshots to an empty :class:`MetricsSnapshot`.
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, help: str = ""):
        if not self.enabled:
            return _NULL
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name, help)
        return c

    def gauge(self, name: str, help: str = "", agg: str = "max"):
        if not self.enabled:
            return _NULL
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, help, agg)
        return g

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if not self.enabled:
            return _NULL
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, help, buckets)
        return h

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the registry into a picklable, merge-able snapshot."""
        snap = MetricsSnapshot()
        if not self.enabled:
            return snap
        for name, c in self._counters.items():
            snap.counters[name] = c.value
            if c.help:
                snap.helps[name] = c.help
        for name, g in self._gauges.items():
            snap.gauges[name] = g.value
            snap.gauge_aggs[name] = g.agg
            if g.help:
                snap.helps[name] = g.help
        for name, h in self._histograms.items():
            snap.histograms[name] = HistogramSnapshot(
                buckets=h.buckets, counts=tuple(h.counts), sum=h.sum, count=h.count
            )
            if h.help:
                snap.helps[name] = h.help
        return snap
