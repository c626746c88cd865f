"""Per-layer numbers from the objects a traced run returns.

Nothing here instruments the program: the layers are read off the spans
``DistReport.trace`` already carries, the counters on the report, and the
benchmark's own spans around the public calls it makes.  Layer names are
module names.

Worker-side seconds (``dist.worker.*``, ``dist.bservice.gen_s``) are those
of the *slowest rank*, because ranks run side by side and the slowest one
sets the wall time; ``dist.worker.gemm_sum_s`` alone adds all ranks up.
Coordinator-side seconds are serial on the coordinator and are added whole.
On the serve workload every number is the sum over the loop's jobs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from repro.runtime.tracing import rank_of_resource

#: Path time no program span covers.
UNATTRIBUTED = "unattributed"

#: Time inside a public call before its trace starts (operand fingerprints,
#: queue set-up) or after it ends (stats merge, process join, shm unlink).
UNTRACED = "dist.coordinator.untraced"


#: The ``[C]`` counts :func:`traced_metrics` reads off each report.
_COUNTS = (
    "dist.tile_store.shm_bytes", "dist.bservice.generated", "dist.bservice.hits",
    "dist.bservice.evictions", "dist.bservice.store_hits", "dist.comm.scatter_bytes",
    "dist.comm.gather_bytes", "dist.comm.a_broadcast_bytes", "dist.comm.messages",
    "dist.comm.telemetry_bytes",
)


def layer_of(task: str) -> str:
    """The layer a program span belongs to, by the span's task name."""
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
    if task.endswith(".qwait") or task == "inbox.wait":
        return "dist.worker.qwait"
    if task.startswith("writeback"):
        return "dist.worker.writeback"
    if task == "shm.attach":
        return "dist.worker.shm_attach"
    if task.startswith("gen."):
        return "dist.bservice.gen"
    return UNATTRIBUTED


class SpanLog:
    """The benchmark's own spans: name, start, end, parent, workload.

    Kept in memory and written out with the result, never during a run.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans), "name": name, "workload": self.workload,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._origin, "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self._origin


def run_rows(attribution, run_wall_s: float) -> dict[str, float]:
    """One traced call's wall time, split into layer rows that sum to it.

    The rows follow the run's critical path (its ``report.attribution()``):
    each path segment is charged to its span's layer, path time under no
    span is ``unattributed``, and what the call spent outside its own
    trace is ``dist.coordinator.untraced``.
    """
    rows: dict[str, float] = defaultdict(float)
    for seg in attribution.path:
        rows[UNATTRIBUTED if seg.task is None else layer_of(seg.task)] += seg.duration
    rows[UNTRACED] += max(run_wall_s - attribution.makespan, 0.0)
    return rows


def traced_metrics(reports, attributions, b_generated: bool) -> dict[str, float]:
    """The ``[T]`` span sums and ``[C]`` counts of one traced operation.

    ``reports`` holds one ``DistReport`` (a cold run) or one per job (a
    serve loop), ``attributions`` the ``report.attribution()`` of each.
    ``b_generated`` says whether B came from a generator: an arena B counts
    its distinct tile pulls in ``b_tiles_generated``, but generates nothing.
    """
    seconds: dict[str, float] = defaultdict(float)
    gemm_all = tasks = makespan = covered = 0.0
    counts = dict.fromkeys(_COUNTS, 0.0)
    for report, attribution in zip(reports, attributions):
        by_rank: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for e in report.trace.events:
            by_rank[layer_of(e.task)][rank_of_resource(e.resource)] += e.duration
        for layer, ranks in by_rank.items():
            serial = layer.startswith("dist.coordinator.")
            seconds[layer] += sum(ranks.values()) if serial else max(ranks.values())
        gemm_all += sum(by_rank["dist.worker.gemm"].values())
        tasks += report.stats.ntasks
        makespan += attribution.makespan
        covered += attribution.coverage * attribution.makespan
        counts["dist.tile_store.shm_bytes"] += report.shm_bytes
        if b_generated:
            counts["dist.bservice.generated"] += (
                report.stats.b_tiles_generated - report.b_store_hits
            )
        counts["dist.bservice.hits"] += report.b_hits
        counts["dist.bservice.evictions"] += report.b_evictions
        counts["dist.bservice.store_hits"] += report.b_store_hits
        counts["dist.comm.scatter_bytes"] += report.comm.scatter_bytes()
        counts["dist.comm.gather_bytes"] += report.comm.gather_bytes()
        counts["dist.comm.a_broadcast_bytes"] += report.comm.a_broadcast_bytes()
        counts["dist.comm.messages"] += sum(report.comm.messages.values())
        counts["dist.comm.telemetry_bytes"] += report.comm.telemetry_total()
    nranks = reports[0].nworkers
    gemm_max = seconds["dist.worker.gemm"]
    out = {
        "dist.coordinator.pack_s": seconds["dist.coordinator.pack"],
        "dist.coordinator.spawn_s": seconds["dist.coordinator.spawn"],
        "dist.coordinator.scatter_s": seconds["dist.coordinator.scatter"],
        "dist.coordinator.reduce_s": seconds["dist.coordinator.reduce"],
        "dist.coordinator.report_s": seconds["dist.coordinator.report"],
        "dist.worker.gemm_max_s": gemm_max,
        "dist.worker.gemm_sum_s": gemm_all,
        "dist.worker.imbalance": gemm_max / (gemm_all / nranks) if gemm_all else 0.0,
        "dist.worker.prefetch_s": seconds["dist.worker.prefetch"],
        "dist.worker.qwait_s": seconds["dist.worker.qwait"],
        "dist.worker.writeback_s": seconds["dist.worker.writeback"],
        "dist.worker.shm_attach_s": seconds["dist.worker.shm_attach"],
        "dist.worker.us_per_task": 1e6 * gemm_all / tasks if tasks else 0.0,
        "dist.bservice.gen_s": seconds["dist.bservice.gen"],
        "perf.attribution.coverage": covered / makespan if makespan else 0.0,
    }
    out.update(counts)
    return out


def copy_seconds(metrics: dict[str, float]) -> float:
    """The copy bucket of ROADMAP item 2: pack + prefetch + writeback + reduce."""
    return (
        metrics["dist.coordinator.pack_s"] + metrics["dist.worker.prefetch_s"]
        + metrics["dist.worker.writeback_s"] + metrics["dist.coordinator.reduce_s"]
    )
