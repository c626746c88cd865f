"""Model-vs-measured audit: roofline GEMM check and comm-volume check.

The inspector priced every chunk's GEMM stream with the machine's kernel
model and predicted every rank's communication volumes; the executor
measured both.  This module closes the loop: join measurement to
prediction by plan-task id / rank and flag what falls outside a
configurable band.

Absolute roofline predictions assume the machine the plan was inspected
*for* (a Summit-like 7.2 Tflop/s GPU); the reproduction executes on
whatever host runs the tests.  Raw measured/predicted ratios are therefore
uniform-but-arbitrary — so the audit calibrates itself: the run's median
per-task ratio is the achievable baseline, and each task (and rank) is
judged by its *relative* ratio against that median.  A healthy rank sits
at ~1.0 regardless of host; a ``slow``-fault rank (every GEMM dragged by a
sleep) stands out by the injected factor, on any machine.

Communication needs no calibration: worker->worker link bytes are charged
from the same per-tile accounting the inspector predicts, so realized
``a_recv_bytes`` must match ``expected_comm_volumes`` essentially exactly
— any drift means the executor moved different tiles than the plan said.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.comm_model import realized_a_recv_bytes
from repro.perf.model import PerfModel, span_task_id
from repro.runtime.tracing import Trace
from repro.util.units import fmt_bytes, fmt_time

#: Default relative band: flag tasks/ranks slower than 4x or faster than
#: 0.25x the run's median achieved-vs-predicted ratio.  Wide enough that
#: scheduling noise on an oversubscribed CI host stays in band; an injected
#: ``slow`` fault (tens of ms added to sub-ms tasks) lands far outside it.
DEFAULT_BAND = (0.25, 4.0)

#: Comm volumes are modeled bytes on both sides; allow only rounding slack.
COMM_BAND = (0.99, 1.01)


@dataclass(frozen=True)
class AuditEntry:
    """One measured-vs-predicted comparison (a GEMM task or a comm flow)."""

    kind: str  # "gemm" (seconds) or "comm" (bytes)
    key: str   # plan-task id, or "<flow>.rank<r>"
    rank: int
    measured: float
    predicted: float
    ratio: float      # measured / predicted
    rel: float        # ratio / run-median ratio (gemm); == ratio for comm
    flagged: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "key": self.key, "rank": self.rank,
            "measured": self.measured, "predicted": self.predicted,
            "ratio": self.ratio, "rel": self.rel, "flagged": self.flagged,
        }


def _median(values: list[float]) -> float:
    if not values:
        return 1.0
    vals = sorted(values)
    mid = len(vals) // 2
    if len(vals) % 2:
        return vals[mid]
    return 0.5 * (vals[mid - 1] + vals[mid])


@dataclass
class RooflineAudit:
    """All audit entries of one run plus the flagged digests."""

    band: tuple[float, float] = DEFAULT_BAND
    median_ratio: float = 1.0
    entries: list[AuditEntry] = field(default_factory=list)
    rank_entries: list[AuditEntry] = field(default_factory=list)
    comm_entries: list[AuditEntry] = field(default_factory=list)

    @property
    def flagged(self) -> list[AuditEntry]:
        return [e for e in self.entries if e.flagged]

    @property
    def flagged_ranks(self) -> list[int]:
        return sorted({e.rank for e in self.rank_entries if e.flagged})

    def to_dict(self) -> dict:
        return {
            "band": list(self.band),
            "median_ratio": self.median_ratio,
            "flagged_ranks": self.flagged_ranks,
            "gemm": [e.to_dict() for e in self.entries],
            "ranks": [e.to_dict() for e in self.rank_entries],
            "comm": [e.to_dict() for e in self.comm_entries],
        }

    def summary(self, top: int = 6) -> str:
        lines = [
            f"roofline audit: {len(self.entries)} GEMM task(s), median "
            f"achieved/predicted ratio {self.median_ratio:.3g} "
            f"(relative band {self.band[0]:.2g}..{self.band[1]:.2g})"
        ]
        for e in self.rank_entries:
            mark = "  <-- OUT OF BAND" if e.flagged else ""
            lines.append(
                f"  rank {e.rank}: measured {fmt_time(e.measured)} vs "
                f"predicted {fmt_time(e.predicted)}, relative {e.rel:.2f}x"
                f"{mark}"
            )
        worst = sorted(self.flagged, key=lambda e: -e.rel)[:top]
        if worst:
            lines.append(f"flagged tasks (worst {len(worst)}):")
            for e in worst:
                lines.append(
                    f"  {e.key:<18s} rank {e.rank}: {fmt_time(e.measured)} "
                    f"vs {fmt_time(e.predicted)} predicted "
                    f"({e.rel:.1f}x the run median)"
                )
        for e in self.comm_entries:
            mark = " <-- MISMATCH" if e.flagged else ""
            lines.append(
                f"  {e.key}: realized {fmt_bytes(int(e.measured))} vs "
                f"expected {fmt_bytes(int(e.predicted))}{mark}"
            )
        return "\n".join(lines)


def measured_gemm_seconds(trace: Trace) -> dict[str, float]:
    """Summed measured GEMM seconds per plan-task id (retries included)."""
    out: dict[str, float] = {}
    for e in trace.events:
        tid = span_task_id(e.task, e.resource)
        if tid is not None:
            out[tid] = out.get(tid, 0.0) + e.duration
    return out


def audit_run(
    trace: Trace,
    model: PerfModel | None,
    comm_link_bytes: dict[tuple[int, int], int] | None = None,
    band: tuple[float, float] = DEFAULT_BAND,
) -> RooflineAudit:
    """Join measured spans (and comm bytes) to the model's predictions.

    Tasks with no measured span (restored from a checkpoint, screened, or
    lost to span truncation) are skipped rather than flagged: absence of
    evidence is not a roofline violation.
    """
    audit = RooflineAudit(band=band)
    if model is None:
        return audit
    measured = measured_gemm_seconds(trace)
    ratios: list[float] = []
    rows: list[tuple[str, int, float, float]] = []
    for tid, pred in sorted(model.gemm.items()):
        m = measured.get(tid)
        if m is None or pred.seconds <= 0:
            continue
        rows.append((tid, pred.rank, m, pred.seconds))
        ratios.append(m / pred.seconds)
    audit.median_ratio = _median(ratios)
    lo, hi = band
    med = audit.median_ratio if audit.median_ratio > 0 else 1.0
    for (tid, rank, m, p), ratio in zip(rows, ratios):
        rel = ratio / med
        audit.entries.append(AuditEntry(
            kind="gemm", key=tid, rank=rank, measured=m, predicted=p,
            ratio=ratio, rel=rel, flagged=not lo <= rel <= hi,
        ))
    # Per-rank rollup: flops-weighted by construction (sums, not means).
    meas_rank: dict[int, float] = {}
    pred_rank: dict[int, float] = {}
    for e in audit.entries:
        meas_rank[e.rank] = meas_rank.get(e.rank, 0.0) + e.measured
        pred_rank[e.rank] = pred_rank.get(e.rank, 0.0) + e.predicted
    for rank in sorted(meas_rank):
        ratio = meas_rank[rank] / pred_rank[rank]
        rel = ratio / med
        audit.rank_entries.append(AuditEntry(
            kind="gemm", key=f"rank{rank}", rank=rank,
            measured=meas_rank[rank], predicted=pred_rank[rank],
            ratio=ratio, rel=rel, flagged=not lo <= rel <= hi,
        ))
    if comm_link_bytes is not None:
        realized = realized_a_recv_bytes(comm_link_bytes, model.nranks)
        for rank in range(model.nranks):
            expected = model.comm.get(rank, {}).get("a_recv_bytes", 0)
            got = realized.get(rank, 0)
            if expected == 0 and got == 0:
                continue
            ratio = got / expected if expected else float("inf")
            audit.comm_entries.append(AuditEntry(
                kind="comm", key=f"a_recv.rank{rank}", rank=rank,
                measured=float(got), predicted=float(expected),
                ratio=ratio, rel=ratio,
                flagged=not COMM_BAND[0] <= ratio <= COMM_BAND[1],
            ))
    return audit
