"""Critical-path extraction and blame-bucket attribution over a trace.

The question this module answers is the one a makespan number cannot:
*which work bounded the run?*  A merged :class:`~repro.runtime.tracing.Trace`
holds every rank's measured spans on one timeline; the critical path is the
dependency-ordered chain of spans that covers the makespan — at every
instant the path sits on some span that was still running (or, when nothing
was, on an explicit *idle* segment).  Decomposing the path into blame
buckets (GEMM, B-generation, A-fetch, queue wait, shared memory, writeback,
control-plane comm, idle) turns "the run took 4.2 s" into "3.1 s of GEMM on
rank 2, 0.6 s of queue wait, 0.3 s idle".

Extraction is a backward greedy sweep: start from the span with the latest
end and walk a time cursor toward zero, at each step handing the cursor to
the span that covers the most time immediately before it (preferring the
same rank on ties — dependencies are overwhelmingly rank-local: qwait
feeds gemm feeds writeback).  Any instant no span covers becomes an idle
segment, so by construction::

    sum(bucket seconds) + idle == path length == makespan

which is exactly the invariant ``tests/test_attribution.py`` asserts.

The same bucket classifier also aggregates *whole-trace* busy seconds per
rank and bucket — the stable basis :mod:`repro.perf.diff` uses to attribute
a makespan delta between two runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.tracing import Trace, TraceEvent, rank_of_resource
from repro.util.units import fmt_time

#: Blame buckets in display order (``idle`` closes the path sum).
BUCKETS = ("gemm", "bgen", "fetch", "qwait", "shm", "writeback", "comm",
           "other", "idle")


def classify(task: str) -> str:
    """Map a span's task name to its blame bucket.

    The names are the ones the executor's producers record:
    ``block0.chunk1.gemm``, ``gen.3.7``, ``block0.chunk1.prefetch``,
    ``inbox.wait``, ``shm.attach``, ``writeback.*``, ``scatter.<r>``,
    ``pack.*``, ``reduce`` and ``report.*``; anything else (``spawn.<r>``)
    is ``other``.
    """
    if task.endswith(".gemm"):
        return "gemm"
    if task.startswith("gen."):
        return "bgen"
    if task.endswith(".prefetch"):
        return "fetch"
    if task == "inbox.wait":
        return "qwait"
    if task == "shm.attach":
        return "shm"
    if task.startswith("writeback"):
        return "writeback"
    if task.startswith(("scatter.", "pack.", "reduce", "report.")):
        return "comm"
    return "other"


@dataclass(frozen=True)
class PathSegment:
    """One stretch of the critical path: a span interval, or idle time."""

    task: str | None  # None for idle segments
    resource: str | None
    rank: int | None
    bucket: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "resource": self.resource,
            "rank": self.rank,
            "bucket": self.bucket,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }


def _span_segment(e: TraceEvent, start: float, end: float) -> PathSegment:
    return PathSegment(
        task=e.task,
        resource=e.resource,
        rank=rank_of_resource(e.resource),
        bucket=classify(e.task),
        start=start,
        end=end,
    )


def _idle_segment(start: float, end: float) -> PathSegment:
    return PathSegment(task=None, resource=None, rank=None, bucket="idle",
                       start=start, end=end)


def critical_path(events: list[TraceEvent], eps: float = 1e-9) -> list[PathSegment]:
    """The chain of span intervals (plus idle gaps) bounding the makespan.

    Backward greedy sweep from the latest span end toward time zero.  At
    each step the cursor's current span contributes the interval it covers
    immediately before the cursor; the predecessor is the span covering
    the most time before the new cursor position (same-rank, then longer
    spans win ties).  Gaps no span covers become explicit ``idle``
    segments, so the returned segments tile ``[0, makespan]`` exactly.
    """
    evs = [e for e in events if e.duration > eps]
    if not evs:
        return []
    t = max(e.end for e in evs)
    current = max(evs, key=lambda e: (e.end, e.duration))
    segments: list[PathSegment] = []
    # Each iteration strictly advances the cursor toward zero; the guard
    # only protects against float pathologies in degenerate traces.
    for _ in range(4 * len(evs) + 16):
        if t <= eps:
            break
        seg_end = min(current.end, t)
        seg_start = min(current.start, seg_end)
        if seg_end - seg_start > eps:
            segments.append(_span_segment(current, seg_start, seg_end))
        t = seg_start
        if t <= eps:
            break
        best = None
        best_cover = -1.0
        cur_rank = rank_of_resource(current.resource)
        for e in evs:
            if e is current or e.start >= t - eps:
                continue
            cover = min(e.end, t)
            if cover > best_cover + eps:
                best, best_cover = e, cover
            elif best is not None and cover > best_cover - eps:
                better = (
                    (rank_of_resource(e.resource) == cur_rank, e.duration)
                    > (rank_of_resource(best.resource) == cur_rank,
                       best.duration)
                )
                if better:
                    best = e
        if best is None:
            # Nothing ran before the cursor: the head of the run is idle.
            segments.append(_idle_segment(0.0, t))
            t = 0.0
            break
        if best_cover < t - eps:
            segments.append(_idle_segment(best_cover, t))
            t = best_cover
        current = best
    segments.reverse()
    return segments


@dataclass
class Attribution:
    """The critical path of one run plus its bucket/rank decompositions.

    ``buckets`` decomposes the *path* (so its values, idle included, sum
    to ``path_length``); ``trace_buckets``/``rank_buckets`` aggregate the
    *whole trace's* busy seconds — every span, on or off the path — which
    is the stable quantity run-to-run diffs compare.
    """

    makespan: float
    path: list[PathSegment] = field(default_factory=list)
    buckets: dict[str, float] = field(default_factory=dict)
    path_rank_seconds: dict[int | None, float] = field(default_factory=dict)
    trace_buckets: dict[str, float] = field(default_factory=dict)
    rank_buckets: dict[int | None, dict[str, float]] = field(default_factory=dict)

    @property
    def path_length(self) -> float:
        """End-to-end extent of the path (equals the makespan when nonempty)."""
        if not self.path:
            return 0.0
        return self.path[-1].end - self.path[0].start

    @property
    def idle_seconds(self) -> float:
        return self.buckets.get("idle", 0.0)

    @property
    def coverage(self) -> float:
        """Fraction of the makespan covered by *span* (non-idle) segments."""
        if self.makespan <= 0:
            return 0.0
        busy = sum(s.duration for s in self.path if s.task is not None)
        return busy / self.makespan

    def to_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "path_length": self.path_length,
            "coverage": self.coverage,
            "buckets": {b: s for b, s in self.buckets.items()},
            "path_rank_seconds": {
                str(r): s for r, s in self.path_rank_seconds.items()
            },
            "trace_buckets": dict(self.trace_buckets),
            "rank_buckets": {
                str(r): dict(bs) for r, bs in self.rank_buckets.items()
            },
            "critical_path": [s.to_dict() for s in self.path],
        }

    def summary(self, top: int = 8) -> str:
        """A terminal-sized digest: bucket table plus the heaviest segments."""
        if not self.path:
            return "(no critical path: empty trace)"
        lines = [
            f"critical path: {fmt_time(self.path_length)} "
            f"({self.coverage:.1%} span coverage of "
            f"{fmt_time(self.makespan)} makespan, "
            f"{len(self.path)} segment(s))"
        ]
        for b in BUCKETS:
            s = self.buckets.get(b, 0.0)
            if s <= 0:
                continue
            frac = s / self.path_length if self.path_length > 0 else 0.0
            lines.append(f"  {b:>9s} {fmt_time(s):>10s}  {frac:6.1%}")
        by_rank = sorted(
            ((r, s) for r, s in self.path_rank_seconds.items() if r is not None),
            key=lambda kv: -kv[1],
        )
        if by_rank:
            lines.append(
                "path time by rank: "
                + ", ".join(f"rank {r}: {fmt_time(s)}" for r, s in by_rank)
            )
        heavy = sorted(
            (s for s in self.path if s.task is not None),
            key=lambda s: -s.duration,
        )[:top]
        lines.append(f"heaviest path segments (top {len(heavy)}):")
        for s in heavy:
            lines.append(
                f"  {fmt_time(s.duration):>10s}  {s.task:<28s} "
                f"on {s.resource}"
            )
        return "\n".join(lines)


def attribute(trace: Trace) -> Attribution:
    """Extract the critical path of ``trace`` and decompose it into buckets."""
    path = critical_path(trace.events)
    buckets: dict[str, float] = {}
    path_rank: dict[int | None, float] = {}
    for s in path:
        buckets[s.bucket] = buckets.get(s.bucket, 0.0) + s.duration
        path_rank[s.rank] = path_rank.get(s.rank, 0.0) + s.duration
    trace_buckets: dict[str, float] = {}
    rank_buckets: dict[int | None, dict[str, float]] = {}
    for e in trace.events:
        b = classify(e.task)
        r = rank_of_resource(e.resource)
        trace_buckets[b] = trace_buckets.get(b, 0.0) + e.duration
        per = rank_buckets.setdefault(r, {})
        per[b] = per.get(b, 0.0) + e.duration
    return Attribution(
        makespan=trace.makespan,
        path=path,
        buckets=buckets,
        path_rank_seconds=path_rank,
        trace_buckets=trace_buckets,
        rank_buckets=rank_buckets,
    )
