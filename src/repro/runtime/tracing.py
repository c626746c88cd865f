"""Execution traces, span recording, and utilization queries.

The multi-process executor (:mod:`repro.dist`) records *measured* spans per
rank through a :class:`SpanRecorder` (monotonic clock, bounded memory,
zero-cost when disabled), and the coordinator merges the per-rank
:class:`SpanStream` s into one :class:`Trace` of ``(task, resource, start,
end)`` events, which ``to_chrome_trace()``, ``gantt()``, ``utilization()``
and makespan queries read.

Clock alignment: monotonic clocks are not comparable across processes, so
each :class:`SpanRecorder` samples the wall clock *once* at its origin
(``wall_origin``).  The coordinator shifts a rank's spans by
``rank.wall_origin - coordinator.wall_origin`` to place them on the run's
shared timeline; every measured *interval* stays purely monotonic.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.util.units import fmt_time

#: Spans one :class:`SpanRecorder` retains before it starts dropping them.
MAX_SPANS = 200_000


def rank_of_resource(resource: str) -> int | None:
    """The process rank a resource name encodes, or ``None``.

    The executor's resource vocabulary carries the rank in its second
    dot-field — ``gpu.<rank>.<g>.comp``, ``net.<rank>``, ``cpu.<rank>`` —
    with ``-1`` for the coordinator.  Any other name (``net.n0``, ``x``)
    returns ``None``.
    """
    parts = resource.split(".")
    if len(parts) < 2 or parts[0] not in ("gpu", "net", "cpu"):
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


@dataclass(frozen=True)
class TraceEvent:
    """One executed task: name, resource, and its time interval."""

    task: str
    resource: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanStream:
    """One process's recorded spans plus its clock-alignment sample.

    ``spans`` are ``(task, resource, start, end)`` tuples on the
    recorder's monotonic clock (seconds since its origin); ``wall_origin``
    is the wall-clock instant of that origin, used only to align streams
    from different processes.  ``dropped`` counts spans discarded once the
    recorder's memory bound was hit; the seconds those spans covered are
    accumulated per resource under ``counters["dropped.<resource>"]`` so a
    truncated stream's utilization reads as flagged, not silently low.
    """

    spans: list[tuple[str, str, float, float]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    dropped: int = 0
    wall_origin: float = 0.0


class SpanRecorder:
    """A per-process span recorder on a monotonic clock.

    Designed for the distributed executor's hot loop:

    * **monotonic** — ``now()`` is ``time.monotonic()`` relative to the
      recorder's origin, so an NTP step can never produce negative
      durations or skewed deadlines;
    * **bounded** — at most :data:`MAX_SPANS` spans are retained; further
      ``record`` calls bump ``dropped`` and accumulate the lost duration
      per resource in ``counters`` (key ``dropped.<resource>``);
    * **zero-cost when disabled** — ``record`` returns immediately, and
      callers can branch on ``enabled`` to skip clock reads entirely.

    Exactly one wall-clock sample is taken (at construction) to stamp
    ``wall_origin`` for cross-process alignment and report labeling.
    """

    __slots__ = ("enabled", "max_spans", "spans", "counters", "dropped",
                 "_origin", "wall_origin")

    def __init__(self, enabled: bool = True, origin: float | None = None):
        self.enabled = enabled
        self.max_spans = MAX_SPANS
        self.spans: list[tuple[str, str, float, float]] = []
        self.counters: dict[str, float] = {}
        self.dropped = 0
        mono = time.monotonic()
        self._origin = mono if origin is None else origin
        # The one wall-clock read: the wall instant of the monotonic origin.
        self.wall_origin = time.time() - (mono - self._origin)

    @property
    def origin(self) -> float:
        """The monotonic instant spans are measured relative to."""
        return self._origin

    def now(self) -> float:
        """Seconds since the recorder's origin (monotonic)."""
        return time.monotonic() - self._origin

    def record(self, task: str, resource: str, start: float, end: float) -> None:
        """Store one span; drops (and counts) beyond the memory bound.

        A dropped span still charges its duration to the per-resource
        ``dropped.<resource>`` counter, so busy time lost to truncation is
        reported instead of silently deflating utilization.
        """
        if not self.enabled:
            return
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            key = f"dropped.{resource}"
            self.counters[key] = self.counters.get(key, 0.0) + (end - start)
            return
        self.spans.append((task, resource, start, end))

    @contextmanager
    def span(self, task: str, resource: str):
        """Record the duration of a ``with`` body as one span."""
        if not self.enabled:
            yield
            return
        start = self.now()
        try:
            yield
        finally:
            self.record(task, resource, start, self.now())

    def stream(self) -> SpanStream:
        """A pickle-able snapshot to ship home in a worker report."""
        return SpanStream(
            spans=list(self.spans),
            counters=dict(self.counters),
            dropped=self.dropped,
            wall_origin=self.wall_origin,
        )


@dataclass
class Trace:
    """An ordered record of executed tasks with utilization queries."""

    events: list[TraceEvent] = field(default_factory=list)

    def add(self, task: str, resource: str, start: float, end: float) -> None:
        self.events.append(TraceEvent(task, resource, start, end))

    def extend(self, spans, offset: float = 0.0) -> None:
        """Merge ``(task, resource, start, end)`` tuples, shifted by ``offset``.

        This is how the coordinator folds a rank's :class:`SpanStream` into
        the run trace: ``offset`` re-bases the rank's clock origin onto the
        coordinator's.
        """
        for task, resource, start, end in spans:
            self.events.append(TraceEvent(task, resource, start + offset, end + offset))

    @property
    def makespan(self) -> float:
        return max((e.end for e in self.events), default=0.0)

    def utilization(self) -> dict[str, float]:
        """Busy fraction per resource over the makespan."""
        span = self.makespan
        if span <= 0:
            return {}
        busy: dict[str, float] = defaultdict(float)
        for e in self.events:
            busy[e.resource] += e.duration
        return {r: b / span for r, b in sorted(busy.items())}

    def to_chrome_trace(self) -> list[dict]:
        """Chrome ``chrome://tracing`` / Perfetto event list.

        Each task becomes a complete ("X") event with its resource as the
        thread; dump with ``json.dump({"traceEvents": trace.to_chrome_trace()}, f)``
        and load in any trace viewer.

        When resources carry ranks (the executor vocabulary —
        ``gpu.<rank>.<g>.comp``, ``net.<rank>``, ...), each rank becomes
        its own Perfetto process (pid = rank + 1, the coordinator's
        ``-1`` mapping to pid 0) and ``process_name``/``thread_name``
        metadata ("M") events label the lanes, so the viewer shows
        "rank 2 / gpu.2.0.comp" instead of bare numeric ids.  Traces with
        no rank-bearing resources keep the flat single-pid layout.
        """
        resources = sorted({e.resource for e in self.events})
        tids = {r: i for i, r in enumerate(resources)}
        ranks = {r: rank_of_resource(r) for r in resources}
        labeled = any(v is not None for v in ranks.values())
        pids = {
            r: 0 if ranks[r] is None else ranks[r] + 1 for r in resources
        }
        out: list[dict] = []
        if labeled:
            names: dict[int, str] = {}
            for r in resources:
                rank = ranks[r]
                names.setdefault(
                    pids[r],
                    "coordinator" if rank in (None, -1) else f"rank {rank}",
                )
            for pid in sorted(names):
                out.append({"name": "process_name", "ph": "M", "pid": pid,
                            "tid": 0, "args": {"name": names[pid]}})
                out.append({"name": "process_sort_index", "ph": "M",
                            "pid": pid, "tid": 0, "args": {"sort_index": pid}})
            for r in resources:
                out.append({"name": "thread_name", "ph": "M", "pid": pids[r],
                            "tid": tids[r], "args": {"name": r}})
        for e in self.events:
            out.append(
                {
                    "name": e.task,
                    "cat": e.task.split(".")[0],
                    "ph": "X",
                    "ts": e.start * 1e6,
                    "dur": e.duration * 1e6,
                    "pid": pids[e.resource] if labeled else 0,
                    "tid": tids[e.resource],
                    "args": {"resource": e.resource},
                }
            )
        return out

    def gantt(self, width: int = 60) -> str:
        """A coarse text Gantt chart (one line per resource)."""
        span = self.makespan
        if span <= 0:
            return "(empty trace)"
        rows: dict[str, list[str]] = {}
        for e in self.events:
            row = rows.setdefault(e.resource, [" "] * width)
            lo = int(e.start / span * (width - 1))
            hi = max(lo + 1, int(e.end / span * (width - 1)) + 1)
            for x in range(lo, min(hi, width)):
                row[x] = "#"
        lines = [f"makespan {fmt_time(span)}"]
        for r in sorted(rows):
            lines.append(f"{r:>16s} |{''.join(rows[r])}|")
        return "\n".join(lines)
