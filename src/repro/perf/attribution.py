"""Critical-path extraction and per-layer attribution over a trace.

The question this module answers is the one a makespan number cannot:
*which work bounded the run?*  A merged :class:`~repro.runtime.tracing.Trace`
holds every rank's measured spans on one timeline; the critical path is the
dependency-ordered chain of spans that covers the makespan — at every
instant the path sits on some span that was still running (or, when nothing
was, on a segment under no span).  Charging the path to the layer of each
span turns "the run took 4.2 s" into "3.1 s of ``dist.worker.gemm`` on
rank 2, 0.6 s of ``dist.worker.qwait``, 0.3 s ``unattributed``".

The layers are the repo benchmark's (``benchmarks/e2e/layers.py``), named
after the module that does the work: :func:`classify` is its ``layer_of``
and :data:`LAYERS` lists them, so ``repro explain``'s table and the
benchmark's per-layer rows are the same rows.

Extraction is a backward greedy sweep: start from the span with the latest
end and walk a time cursor toward zero, at each step handing the cursor to
the span that covers the most time immediately before it (preferring the
same rank on ties — dependencies are overwhelmingly rank-local: the queue
wait feeds the GEMM stream feeds the writeback).  Any instant no span covers becomes a segment
with no task, charged to ``unattributed``, so by construction::

    sum(layer seconds) == path length == makespan

which is exactly the invariant ``tests/test_attribution.py`` asserts.

The same classifier also aggregates *whole-trace* busy seconds per rank and
layer — the stable basis :mod:`repro.perf.diff` uses to attribute a
makespan delta between two runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.tracing import Trace, TraceEvent, rank_of_resource
from repro.util.units import fmt_time

#: Path time under no span, and spans of no layer.
UNATTRIBUTED = "unattributed"

#: The layers in display order, the order a run passes through them.
LAYERS = (
    "dist.coordinator.pack", "dist.coordinator.spawn", "dist.coordinator.scatter",
    "dist.worker.shm_attach", "dist.worker.qwait", "dist.worker.prefetch",
    "dist.bservice.gen", "dist.worker.gemm", "dist.worker.writeback",
    "dist.coordinator.reduce", "dist.coordinator.report", UNATTRIBUTED,
)


def classify(task: str) -> str:
    """The layer a span belongs to, by the span's task name.

    The names are the ones the executor's producers record: ``pack.*``,
    ``spawn.<r>``, ``scatter.<r>``, ``shm.attach``, ``inbox.wait``,
    ``block0.chunk1.prefetch``, ``gen.3.7``, ``block0.chunk1.gemm``,
    ``writeback.<r>`` / ``writeback.ckpt.block2``, ``reduce`` and
    ``report.<r>``; anything else is ``unattributed``.
    """
    if task.startswith("pack."):
        return "dist.coordinator.pack"
    if task.startswith("spawn."):
        return "dist.coordinator.spawn"
    if task.startswith("scatter."):
        return "dist.coordinator.scatter"
    if task == "reduce":
        return "dist.coordinator.reduce"
    if task.startswith("report."):
        return "dist.coordinator.report"
    if task.endswith(".gemm"):
        return "dist.worker.gemm"
    if task.endswith(".prefetch"):
        return "dist.worker.prefetch"
    if task == "inbox.wait":
        return "dist.worker.qwait"
    if task.startswith("writeback"):
        return "dist.worker.writeback"
    if task == "shm.attach":
        return "dist.worker.shm_attach"
    if task.startswith("gen."):
        return "dist.bservice.gen"
    return UNATTRIBUTED


@dataclass(frozen=True)
class PathSegment:
    """One stretch of the critical path: a span interval, or time under no
    span (``task`` None)."""

    task: str | None
    resource: str | None
    rank: int | None
    layer: str
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
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }


def _span_segment(e: TraceEvent, start: float, end: float) -> PathSegment:
    return PathSegment(
        task=e.task,
        resource=e.resource,
        rank=rank_of_resource(e.resource),
        layer=classify(e.task),
        start=start,
        end=end,
    )


def _idle_segment(start: float, end: float) -> PathSegment:
    return PathSegment(task=None, resource=None, rank=None, layer=UNATTRIBUTED,
                       start=start, end=end)


def critical_path(events: list[TraceEvent], eps: float = 1e-9) -> list[PathSegment]:
    """The chain of span intervals (plus gaps) bounding the makespan.

    Backward greedy sweep from the latest span end toward time zero.  At
    each step the cursor's current span contributes the interval it covers
    immediately before the cursor; the predecessor is the span covering
    the most time before the new cursor position (same-rank, then longer
    spans win ties).  Gaps no span covers become segments with no task,
    so the returned segments tile ``[0, makespan]`` exactly.
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
            # Nothing ran before the cursor: the head of the run is under no span.
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
    """The critical path of one run plus its layer/rank decompositions.

    ``layers`` decomposes the *path* (so its values, ``unattributed``
    included, sum to ``path_length``); ``trace_layers``/``rank_layers``
    aggregate the *whole trace's* busy seconds — every span, on or off the
    path — which is the stable quantity run-to-run diffs compare.
    """

    makespan: float
    path: list[PathSegment] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    path_rank_seconds: dict[int | None, float] = field(default_factory=dict)
    trace_layers: dict[str, float] = field(default_factory=dict)
    rank_layers: dict[int | None, dict[str, float]] = field(default_factory=dict)

    @property
    def path_length(self) -> float:
        """End-to-end extent of the path (equals the makespan when nonempty)."""
        if not self.path:
            return 0.0
        return self.path[-1].end - self.path[0].start

    @property
    def idle_seconds(self) -> float:
        """Path time under no span."""
        return sum(s.duration for s in self.path if s.task is None)

    @property
    def coverage(self) -> float:
        """Fraction of the makespan covered by span segments."""
        if self.makespan <= 0:
            return 0.0
        busy = sum(s.duration for s in self.path if s.task is not None)
        return busy / self.makespan

    def to_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "path_length": self.path_length,
            "coverage": self.coverage,
            "layers": dict(self.layers),
            "path_rank_seconds": {
                str(r): s for r, s in self.path_rank_seconds.items()
            },
            "trace_layers": dict(self.trace_layers),
            "rank_layers": {
                str(r): dict(ls) for r, ls in self.rank_layers.items()
            },
            "critical_path": [s.to_dict() for s in self.path],
        }

    def summary(self, top: int = 8) -> str:
        """A terminal-sized digest: layer table plus the heaviest segments."""
        if not self.path:
            return "(no critical path: empty trace)"
        lines = [
            f"critical path: {fmt_time(self.path_length)} "
            f"({self.coverage:.1%} span coverage of "
            f"{fmt_time(self.makespan)} makespan, "
            f"{len(self.path)} segment(s))"
        ]
        for layer in LAYERS:
            s = self.layers.get(layer, 0.0)
            if s <= 0:
                continue
            frac = s / self.path_length if self.path_length > 0 else 0.0
            lines.append(f"  {layer:<24s} {fmt_time(s):>10s}  {frac:6.1%}")
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
    """Extract the critical path of ``trace`` and charge it to layers."""
    path = critical_path(trace.events)
    layers: dict[str, float] = {}
    path_rank: dict[int | None, float] = {}
    for s in path:
        layers[s.layer] = layers.get(s.layer, 0.0) + s.duration
        path_rank[s.rank] = path_rank.get(s.rank, 0.0) + s.duration
    trace_layers: dict[str, float] = {}
    rank_layers: dict[int | None, dict[str, float]] = {}
    for e in trace.events:
        layer = classify(e.task)
        r = rank_of_resource(e.resource)
        trace_layers[layer] = trace_layers.get(layer, 0.0) + e.duration
        per = rank_layers.setdefault(r, {})
        per[layer] = per.get(layer, 0.0) + e.duration
    return Attribution(
        makespan=trace.makespan,
        path=path,
        layers=layers,
        path_rank_seconds=path_rank,
        trace_layers=trace_layers,
        rank_layers=rank_layers,
    )
