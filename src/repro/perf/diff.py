"""Run-to-run trace diff: attribute a makespan delta to layers and ranks.

Two runs of the *same plan* (fingerprints checked when both sides carry
one) execute identical task sets, so any makespan movement must show up as
busy-time movement somewhere: a layer got slower (more GEMM seconds, more
queue wait), a rank got slower, or more of the path lay under no span.  The
diff aggregates whole-trace busy seconds per layer and per (rank, layer) on
both sides and ranks the deltas — which is what turns a bench-gate failure
from "speedup regressed 1.8x -> 1.2x" into "rank 1 dist.worker.gemm
+2.1 s".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.attribution import UNATTRIBUTED, Attribution
from repro.util.units import fmt_time


@dataclass
class TraceDiff:
    """Layer/rank attribution of the makespan delta between two runs."""

    base_makespan: float
    cur_makespan: float
    fingerprints_match: bool | None = None  # None: one side had no hash
    layer_deltas: dict[str, float] = field(default_factory=dict)
    rank_deltas: dict[int, float] = field(default_factory=dict)
    rank_layer_deltas: dict[int, dict[str, float]] = field(default_factory=dict)

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
        """Largest positive (rank, layer) busy-time growths, labeled."""
        out: list[tuple[str, float]] = []
        for rank, per in sorted(self.rank_layer_deltas.items()):
            for layer, d in per.items():
                if d > 0:
                    out.append((f"rank {rank} {layer}", d))
        out.sort(key=lambda kv: -kv[1])
        return out[:n]

    def to_dict(self) -> dict:
        return {
            "base_makespan": self.base_makespan,
            "cur_makespan": self.cur_makespan,
            "delta": self.delta,
            "fingerprints_match": self.fingerprints_match,
            "layer_deltas": dict(self.layer_deltas),
            "rank_deltas": {str(r): d for r, d in self.rank_deltas.items()},
            "rank_layer_deltas": {
                str(r): dict(v) for r, v in self.rank_layer_deltas.items()
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
                lines.append(f"  {what:<30s} +{fmt_time(d)}")
        elif not self.regressed:
            faster = sorted(
                ((layer, -d) for layer, d in self.layer_deltas.items() if d < 0),
                key=lambda kv: -kv[1],
            )[:n]
            if faster:
                lines.append("what got faster:")
                for layer, d in faster:
                    lines.append(f"  {layer:<30s} -{fmt_time(d)}")
        slow = self.slowest_rank()
        if slow is not None and self.regressed:
            lines.append(
                f"largest growth on rank {slow} "
                f"(+{fmt_time(self.rank_deltas[slow])} busy time)"
            )
        return "\n".join(lines)


def _rank_only(layers: dict[int | None, dict[str, float]]) -> dict[int, dict[str, float]]:
    return {r: dict(v) for r, v in layers.items() if r is not None and r >= 0}


def diff_attributions(
    base: Attribution,
    cur: Attribution,
    base_hash: str = "",
    cur_hash: str = "",
) -> TraceDiff:
    """Attribute ``cur``'s makespan delta against ``base`` to layers/ranks."""
    match: bool | None = None
    if base_hash and cur_hash:
        match = base_hash == cur_hash
    layers = {
        layer: cur.trace_layers.get(layer, 0.0) - base.trace_layers.get(layer, 0.0)
        for layer in set(base.trace_layers) | set(cur.trace_layers)
    }
    # Path time under no span is a path quantity, not a busy-time one.
    layers[UNATTRIBUTED] = (layers.get(UNATTRIBUTED, 0.0)
                            + cur.idle_seconds - base.idle_seconds)
    base_rb = _rank_only(base.rank_layers)
    cur_rb = _rank_only(cur.rank_layers)
    rank_layer: dict[int, dict[str, float]] = {}
    rank: dict[int, float] = {}
    for r in sorted(set(base_rb) | set(cur_rb)):
        bb, cb = base_rb.get(r, {}), cur_rb.get(r, {})
        per = {
            layer: cb.get(layer, 0.0) - bb.get(layer, 0.0)
            for layer in set(bb) | set(cb)
        }
        rank_layer[r] = per
        rank[r] = sum(per.values())
    return TraceDiff(
        base_makespan=base.makespan,
        cur_makespan=cur.makespan,
        fingerprints_match=match,
        layer_deltas=layers,
        rank_deltas=rank,
        rank_layer_deltas=rank_layer,
    )
