"""The per-run performance model: what the plan *predicts* a run costs.

A :class:`PerfModel` is the serializable bridge between an
:class:`~repro.core.plan.ExecutionPlan` (which is heavy: tile-coordinate
arrays per chunk) and the post-mortem audit (which only needs numbers).
It carries, per plan task ``p<rank>.g<gpu>.b<block>.c<chunk>``:

* the roofline-predicted GEMM seconds (the inspector priced every chunk
  with :class:`~repro.machine.kernels.GemmKernelModel` at plan time —
  ``Chunk.device_seconds``), plus flop and task counts;

and, per rank, the inspector's expected communication volumes
(``a_recv_bytes``/``a_send_bytes``/``c_send_bytes``/``c_recv_bytes``/
``b_gen_bytes`` — Section 3.2.4), the quantities
:func:`repro.core.inspector.expected_comm_volumes` recomputes and the
plan verifier cross-checks.

The task ids match the measured trace (a worker's
``block<bi>.chunk<ci>.gemm`` span on ``gpu.<rank>.<g>.comp`` maps to
``p<rank>.g<g>.b<bi>.c<ci>``), so predictions join measurements by key, no
plan in hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.plan import ExecutionPlan

#: Per-rank expected-communication keys carried by the model (the stored
#: ``ProcPlan`` aggregates the inspector fills in).
COMM_KEYS = ("a_recv_bytes", "a_send_bytes", "c_send_bytes",
             "c_recv_bytes", "b_gen_bytes")


def plan_task_id(rank: int, gpu: int, block: int, chunk: int) -> str:
    """The canonical id of one chunk's GEMM stream: ``p0.g1.b2.c3``."""
    return f"p{rank}.g{gpu}.b{block}.c{chunk}"


def span_task_id(task: str, resource: str) -> str | None:
    """Map a measured GEMM span to its plan-task id, or ``None``.

    ``block<bi>.chunk<ci>.gemm`` on ``gpu.<rank>.<g>.comp`` →
    ``p<rank>.g<g>.b<bi>.c<ci>``.  Anything else is not a GEMM span.
    """
    if not task.endswith(".gemm"):
        return None
    parts = task.split(".")
    res = resource.split(".")
    if (
        len(parts) != 3
        or not parts[0].startswith("block")
        or not parts[1].startswith("chunk")
        or len(res) != 4
        or res[0] != "gpu"
    ):
        return None
    try:
        bi = int(parts[0][5:])
        ci = int(parts[1][5:])
        rank = int(res[1])
        gpu = int(res[2])
    except ValueError:
        return None
    return plan_task_id(rank, gpu, bi, ci)


@dataclass(frozen=True)
class GemmPrediction:
    """Roofline prediction for one chunk's GEMM stream."""

    rank: int
    gpu: int
    block: int
    chunk: int
    seconds: float  # kernel-model device time (launch overhead excluded)
    flops: float
    ntasks: int

    def to_dict(self) -> dict:
        return {
            "rank": self.rank, "gpu": self.gpu, "block": self.block,
            "chunk": self.chunk, "seconds": self.seconds,
            "flops": self.flops, "ntasks": self.ntasks,
        }


@dataclass
class PerfModel:
    """Serializable predicted-cost model of one plan."""

    plan_hash: str = ""
    nranks: int = 0
    gpus_per_proc: int = 1
    total_flops: float = 0.0
    gemm: dict[str, GemmPrediction] = field(default_factory=dict)
    comm: dict[int, dict[str, int]] = field(default_factory=dict)

    @classmethod
    def from_plan(cls, plan: ExecutionPlan, plan_hash: str = "") -> "PerfModel":
        """Extract predictions from a plan (cheap: reads stored aggregates)."""
        gemm: dict[str, GemmPrediction] = {}
        comm: dict[int, dict[str, int]] = {}
        for pp in plan.procs:
            comm[pp.rank] = {k: int(getattr(pp, k)) for k in COMM_KEYS}
            for g in range(plan.grid.gpus_per_proc):
                for bi, block in enumerate(pp.gpu_blocks(g)):
                    for ci, chunk in enumerate(block.chunks):
                        tid = plan_task_id(pp.rank, g, bi, ci)
                        gemm[tid] = GemmPrediction(
                            rank=pp.rank, gpu=g, block=bi, chunk=ci,
                            seconds=float(chunk.device_seconds),
                            flops=float(chunk.flops),
                            ntasks=int(chunk.ntasks),
                        )
        return cls(
            plan_hash=plan_hash,
            nranks=plan.grid.nprocs,
            gpus_per_proc=plan.grid.gpus_per_proc,
            total_flops=float(plan.total_flops),
            gemm=gemm,
            comm=comm,
        )

    def to_dict(self) -> dict:
        return {
            "plan_hash": self.plan_hash,
            "nranks": self.nranks,
            "gpus_per_proc": self.gpus_per_proc,
            "total_flops": self.total_flops,
            "gemm": {tid: p.to_dict() for tid, p in self.gemm.items()},
            "comm": {str(r): dict(v) for r, v in self.comm.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PerfModel":
        gemm = {
            tid: GemmPrediction(
                rank=int(p["rank"]), gpu=int(p["gpu"]),
                block=int(p["block"]), chunk=int(p["chunk"]),
                seconds=float(p["seconds"]), flops=float(p["flops"]),
                ntasks=int(p["ntasks"]),
            )
            for tid, p in data.get("gemm", {}).items()
        }
        comm = {
            int(r): {k: int(v.get(k, 0)) for k in COMM_KEYS}
            for r, v in data.get("comm", {}).items()
        }
        return cls(
            plan_hash=data.get("plan_hash", ""),
            nranks=int(data.get("nranks", 0)),
            gpus_per_proc=int(data.get("gpus_per_proc", 1)),
            total_flops=float(data.get("total_flops", 0.0)),
            gemm=gemm,
            comm=comm,
        )
