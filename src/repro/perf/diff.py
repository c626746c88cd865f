"""Run-to-run trace diff: attribute a makespan delta to buckets and ranks.

Two runs of the *same plan* (fingerprints checked when both sides carry
one) execute identical task sets, so any makespan movement must show up as
busy-time movement somewhere: a bucket got slower (more GEMM seconds, more
queue wait), a rank got slower, or the run went idle.  The diff aggregates
whole-trace busy seconds per bucket and per (rank, bucket) on both sides
and ranks the deltas — which is what turns a bench-gate failure from
"speedup regressed 1.8x -> 1.2x" into "rank 1 gemm +2.1 s, qwait +0.3 s".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.attribution import Attribution
from repro.util.units import fmt_time


@dataclass
class TraceDiff:
    """Bucket/rank attribution of the makespan delta between two runs."""

    base_makespan: float
    cur_makespan: float
    fingerprints_match: bool | None = None  # None: one side had no hash
    bucket_deltas: dict[str, float] = field(default_factory=dict)
    rank_deltas: dict[int, float] = field(default_factory=dict)
    rank_bucket_deltas: dict[int, dict[str, float]] = field(default_factory=dict)

    @property
    def delta(self) -> float:
        return self.cur_makespan - self.base_makespan

    @property
    def regressed(self) -> bool:
        return self.delta > 0

    def slowest_rank(self) -> int | None:
        """The rank whose busy time grew the most (None when none grew)."""
        grew = {r: d for r, d in self.rank_deltas.items() if d > 0}
        if not grew:
            return None
        return max(sorted(grew), key=lambda r: grew[r])

    def top_contributors(self, n: int = 5) -> list[tuple[str, float]]:
        """Largest positive (rank, bucket) busy-time growths, labeled."""
        out: list[tuple[str, float]] = []
        for rank, per in sorted(self.rank_bucket_deltas.items()):
            for bucket, d in per.items():
                if d > 0:
                    out.append((f"rank {rank} {bucket}", d))
        out.sort(key=lambda kv: -kv[1])
        return out[:n]

    def to_dict(self) -> dict:
        return {
            "base_makespan": self.base_makespan,
            "cur_makespan": self.cur_makespan,
            "delta": self.delta,
            "fingerprints_match": self.fingerprints_match,
            "bucket_deltas": dict(self.bucket_deltas),
            "rank_deltas": {str(r): d for r, d in self.rank_deltas.items()},
            "rank_bucket_deltas": {
                str(r): dict(v) for r, v in self.rank_bucket_deltas.items()
            },
            "top_contributors": [
                {"what": w, "delta": d} for w, d in self.top_contributors()
            ],
        }

    def summary(self, n: int = 5) -> str:
        sign = "+" if self.delta >= 0 else "-"
        lines = [
            f"trace diff: makespan {fmt_time(self.base_makespan)} -> "
            f"{fmt_time(self.cur_makespan)} "
            f"({sign}{fmt_time(abs(self.delta))})"
        ]
        if self.fingerprints_match is False:
            lines.append(
                "  WARNING: plan fingerprints differ — the runs executed "
                "different plans; deltas below compare apples to oranges"
            )
        top = self.top_contributors(n)
        if top and self.regressed:
            lines.append("what got slower:")
            for what, d in top:
                lines.append(f"  {what:<18s} +{fmt_time(d)}")
        elif not self.regressed:
            faster = sorted(
                ((b, -d) for b, d in self.bucket_deltas.items() if d < 0),
                key=lambda kv: -kv[1],
            )[:n]
            if faster:
                lines.append("what got faster:")
                for bucket, d in faster:
                    lines.append(f"  {bucket:<18s} -{fmt_time(d)}")
        slow = self.slowest_rank()
        if slow is not None and self.regressed:
            lines.append(
                f"largest growth on rank {slow} "
                f"(+{fmt_time(self.rank_deltas[slow])} busy time)"
            )
        return "\n".join(lines)


def _rank_only(buckets: dict[int | None, dict[str, float]]) -> dict[int, dict[str, float]]:
    return {r: dict(v) for r, v in buckets.items() if r is not None and r >= 0}


def diff_attributions(
    base: Attribution,
    cur: Attribution,
    base_hash: str = "",
    cur_hash: str = "",
) -> TraceDiff:
    """Attribute ``cur``'s makespan delta against ``base`` to buckets/ranks."""
    match: bool | None = None
    if base_hash and cur_hash:
        match = base_hash == cur_hash
    buckets = {
        b: cur.trace_buckets.get(b, 0.0) - base.trace_buckets.get(b, 0.0)
        for b in set(base.trace_buckets) | set(cur.trace_buckets)
    }
    # The idle delta is a path quantity, not a busy-time one.
    buckets["idle"] = cur.idle_seconds - base.idle_seconds
    base_rb = _rank_only(base.rank_buckets)
    cur_rb = _rank_only(cur.rank_buckets)
    rank_bucket: dict[int, dict[str, float]] = {}
    rank: dict[int, float] = {}
    for r in sorted(set(base_rb) | set(cur_rb)):
        bb, cb = base_rb.get(r, {}), cur_rb.get(r, {})
        per = {
            b: cb.get(b, 0.0) - bb.get(b, 0.0)
            for b in set(bb) | set(cb)
        }
        rank_bucket[r] = per
        rank[r] = sum(per.values())
    return TraceDiff(
        base_makespan=base.makespan,
        cur_makespan=cur.makespan,
        fingerprints_match=match,
        bucket_deltas=buckets,
        rank_deltas=rank,
        rank_bucket_deltas=rank_bucket,
    )
