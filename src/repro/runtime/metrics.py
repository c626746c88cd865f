"""The run's metric series: one declared table, folded from the report.

A run is measured once.  What a rank counts it counts on plain attributes
that its report carries home (``NumericStats``, the ``RankTally`` fields),
what the coordinator sees it emits as events, and what took time is a span
of the trace; ``RankTally.merge`` / ``NumericStats.merge`` total the ranks
(handoffs included).  Every series here is a *fold* of that one report:
:data:`SERIES` declares each series' name, kind, help text and the report
field, event tally or span kind it reads, and :func:`snapshot_of` evaluates
the table into a :class:`MetricsSnapshot` — ``report.metrics``, rendered by
:meth:`MetricsSnapshot.to_prometheus` into a job's ``metrics.<id>.prom``.
A series therefore cannot disagree with the report field beside it.

The duration histograms bucket the trace's spans through the one span
vocabulary of ``src/``, :func:`repro.perf.attribution.classify`, which
reads the measured executor's names and the discrete-event engine's alike:
:func:`histograms_of` yields the same series for a simulated
:class:`~repro.runtime.tracing.Trace` as for a measured one.  A run with
``trace=False`` recorded no spans, so its snapshot has every counter and
the gauge but no histograms.

Naming: ``repro_<area>_<name>[_total|_bytes|_seconds]`` — counters end in
``_total``, byte gauges in ``_bytes``, duration histograms in ``_seconds``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

#: Default histogram buckets (seconds): ~100 us .. ~10 s latencies.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: ``series name -> (kind, help, fold)``.  A fold names where the value is
#: read: ``("stats", field)`` off ``report.stats``, ``("report", field)`` off
#: the report's own (``RankTally``) fields, ``("events", kind, summed)`` off
#: ``report.event_totals`` — the count of the run's ``kind`` event records,
#: or the sum of their ``summed`` field — and ``("spans", bucket, prefix)``:
#: the durations of the trace's spans that ``classify`` files under
#: ``bucket`` and whose task name starts with ``prefix``.
SERIES = {
    "repro_gemm_tasks_total":
        ("counter", "GEMM tasks executed", ("stats", "ntasks")),
    "repro_gemm_flops_total":
        ("counter", "floating-point operations executed", ("stats", "flops")),
    "repro_b_service_misses_total":
        ("counter", "B-tile instantiations (cache misses)", ("stats", "b_tiles_generated")),
    "repro_gpu_peak_bytes":
        ("gauge", "peak device-memory high-water mark", ("stats", "gpu_peak_bytes")),
    "repro_b_service_hits_total":
        ("counter", "B-tile cache hits", ("report", "b_hits")),
    "repro_b_service_evictions_total":
        ("counter", "B-tile LRU evictions", ("report", "b_evictions")),
    "repro_store_hits_total":
        ("counter", "persistent tile-store hits", ("report", "store_hits")),
    "repro_store_misses_total":
        ("counter", "persistent tile-store misses", ("report", "store_misses")),
    "repro_store_evictions_total":
        ("counter", "tile-store LRU evictions", ("report", "store_evictions")),
    "repro_store_written_bytes_total":
        ("counter", "bytes written to the tile store", ("report", "store_bytes_written")),
    "repro_store_read_bytes_total":
        ("counter", "bytes read from the tile store", ("report", "store_bytes_read")),
    "repro_checkpoint_blocks_restored_total":
        ("counter", "blocks restored from block files instead of recomputed",
         ("report", "blocks_restored")),
    "repro_checkpoint_tasks_skipped_total":
        ("counter", "GEMM tasks skipped thanks to restored blocks",
         ("report", "tasks_skipped")),
    "repro_spans_dropped_total":
        ("counter", "trace spans discarded at the recorder bound",
         ("report", "spans_dropped")),
    "repro_heartbeats_total":
        ("counter", "worker heartbeats received", ("events", "heartbeat", None)),
    "repro_stalls_detected_total":
        ("counter", "ranks declared stalled via missed heartbeats",
         ("events", "stall", None)),
    "repro_worker_retries_total":
        ("counter", "worker processes respawned after a failure",
         ("events", "retry", None)),
    "repro_ranks_reassigned_total":
        ("counter", "ranks reassigned to the coordinator", ("events", "reassign", None)),
    "repro_rebalance_requests_total":
        ("counter", "relinquish requests sent to flagged stragglers",
         ("events", "rebalance", None)),
    "repro_rebalance_blocks_reclaimed_total":
        ("counter", "blocks reclaimed from stragglers and handed off",
         ("events", "handoff", "blocks")),
    "repro_rebalance_tasks_moved_total":
        ("counter", "GEMM tasks moved off stragglers by the rebalancer",
         ("events", "handoff", "tasks")),
    "repro_rebalance_handoffs_total":
        ("counter", "handoffs dispatched (to helper ranks or the inline spare)",
         ("events", "handoff", None)),
    "repro_chunk_gemm_seconds":
        ("histogram", "per-chunk GEMM stream durations", ("spans", "gemm", "")),
    "repro_prefetch_seconds":
        ("histogram", "A-chunk prefetch durations", ("spans", "fetch", "")),
    "repro_checkpoint_seconds":
        ("histogram", "per-block checkpoint writeback durations",
         ("spans", "writeback", "writeback.ckpt.")),
}


@dataclass(frozen=True)
class HistogramSnapshot:
    """A fixed-bucket histogram: per-bucket counts (not yet cumulative)."""

    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int


def bucket_durations(durations, buckets=DEFAULT_BUCKETS) -> HistogramSnapshot:
    """Bucket ``durations`` under the upper bounds ``buckets``.

    The bounds must be strictly increasing and are upper-inclusive (a value
    equal to a bound lands in that bound's bucket, as Prometheus' ``le``
    wants); values above the last bound land only in the trailing ``+Inf``
    slot of ``counts``.
    """
    if list(buckets) != sorted(set(buckets)):
        raise ValueError(f"histogram buckets must be strictly increasing: {buckets}")
    counts = [0] * (len(buckets) + 1)
    total, n = 0.0, 0
    for v in durations:
        counts[bisect_left(buckets, v)] += 1
        total += v
        n += 1
    return HistogramSnapshot(tuple(float(b) for b in buckets), tuple(counts), total, n)


@dataclass
class MetricsSnapshot:
    """The evaluated series of one run (plain dicts and tuples: picklable).

    ``helps`` carries the help strings into the Prometheus exposition.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
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


def histograms_of(trace) -> dict[str, HistogramSnapshot]:
    """The ``histogram`` rows of :data:`SERIES` over one trace, measured or
    simulated; a series none of whose spans occur is left out."""
    from repro.perf.attribution import classify

    rows = [(name, fold[1:]) for name, (_, _, fold) in SERIES.items()
            if fold[0] == "spans"]
    durations: dict[str, list[float]] = {}
    for e in trace.events:
        bucket = classify(e.task, e.resource)
        for name, (wanted, prefix) in rows:
            if bucket == wanted and e.task.startswith(prefix):
                durations.setdefault(name, []).append(e.duration)
    return {name: bucket_durations(ds) for name, ds in durations.items()}


def snapshot_of(report) -> MetricsSnapshot:
    """Evaluate :data:`SERIES` over a ``DistReport`` (anything with its
    ``stats``, tally fields, ``event_totals`` and ``trace``)."""
    snap = MetricsSnapshot(histograms=histograms_of(report.trace))
    for name, (kind, text, (source, *key)) in SERIES.items():
        if source == "spans":
            if name in snap.histograms:
                snap.helps[name] = text
            continue
        if source == "events":
            value = report.event_totals.get(tuple(key), 0)
        else:
            value = getattr(report.stats if source == "stats" else report, *key)
        (snap.counters if kind == "counter" else snap.gauges)[name] = value
        snap.helps[name] = text
    return snap
