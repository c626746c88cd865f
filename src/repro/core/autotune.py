"""Grid-rows (``p``) autotuning.

Section 3.1 of the paper leaves ``p`` as "a trade-off parameter": ``p = 1``
avoids replicating B but maximizes the A broadcast volume; ``p >= 2``
replicates every B column ``p`` times in *host* memory (not GPU memory) and
divides the A traffic by ``p``.  :func:`tune_grid_rows` prices each
feasible ``p`` with the coarse model and picks the fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analytic import SimReport, simulate
from repro.core.inspector import inspect
from repro.machine.spec import MachineSpec
from repro.sparse.shape import SparseShape


@dataclass(frozen=True)
class TuneResult:
    """Outcome of the ``p`` sweep."""

    best_p: int
    reports: dict[int, SimReport]
    infeasible: dict[int, str]

    @property
    def best_report(self) -> SimReport:
        return self.reports[self.best_p]


def replication_feasible(
    b_shape: SparseShape, machine: MachineSpec, p: int, host_fraction: float = 0.8
) -> bool:
    """Whether ``p``-fold B replication fits in aggregate host memory.

    Each grid row holds one full copy of (the nonzero tiles of) B spread
    over its ``q`` processes; the machine's nodes must hold ``p`` copies
    plus A and C, hence the safety ``host_fraction``.
    """
    total_host = machine.nnodes * machine.node.host_memory_bytes * host_fraction
    return b_shape.nbytes * p <= total_host


def tune_grid_rows(
    a_shape: SparseShape,
    b_shape: SparseShape,
    machine: MachineSpec,
    candidates: list[int] | None = None,
    gpus_per_proc: int | None = None,
    overlap_rho: float = 0.25,
) -> TuneResult:
    """Sweep ``p`` over ``candidates`` (default: 1, 2, 4, ... up to the
    process count) and return the fastest feasible configuration."""
    g = machine.node.ngpus if gpus_per_proc is None else gpus_per_proc
    nprocs = machine.nnodes * (machine.node.ngpus // g)
    if candidates is None:
        candidates = []
        p = 1
        while p <= nprocs:
            candidates.append(p)
            p *= 2

    reports: dict[int, SimReport] = {}
    infeasible: dict[int, str] = {}
    for p in candidates:
        if p > nprocs:
            infeasible[p] = f"p={p} exceeds {nprocs} processes"
            continue
        if p > a_shape.ntile_rows:
            infeasible[p] = f"p={p} exceeds {a_shape.ntile_rows} A tile rows"
            continue
        if not replication_feasible(b_shape, machine, p):
            infeasible[p] = f"p={p} B replication exceeds host memory"
            continue
        plan = inspect(a_shape, b_shape, machine, p=p, gpus_per_proc=gpus_per_proc)
        reports[p] = simulate(plan, machine, overlap_rho=overlap_rho)

    if not reports:
        raise ValueError(f"no feasible grid-rows candidate among {candidates}")
    best_p = min(reports, key=lambda p: reports[p].makespan)
    return TuneResult(best_p=best_p, reports=reports, infeasible=infeasible)
