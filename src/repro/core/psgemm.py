"""Top-level API: plan, numerically execute, or simulate the contraction.

``psgemm`` ("PaRSEC-style GEMM") is the user-facing entry point mirroring
the paper's driver: hand it block-sparse operands (or just their shapes), a
machine, and grid parameters, and get back either the exact numeric result
(in-process distributed execution) or a simulated-time report.
"""

from __future__ import annotations

from repro.core.analytic import SimReport, simulate
from repro.core.inspector import inspect
from repro.core.plan import ExecutionPlan
from repro.machine.spec import MachineSpec
from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.shape import SparseShape


def psgemm_plan(
    a_shape: SparseShape,
    b_shape: SparseShape,
    machine: MachineSpec,
    p: int = 1,
    gpus_per_proc: int | None = None,
) -> ExecutionPlan:
    """Inspect the contraction and return its execution plan."""
    return inspect(a_shape, b_shape, machine, p=p, gpus_per_proc=gpus_per_proc)


def psgemm_simulate(
    a_shape: SparseShape,
    b_shape: SparseShape,
    machine: MachineSpec,
    p: int = 1,
    gpus_per_proc: int | None = None,
    overlap_rho: float = 0.25,
) -> tuple[ExecutionPlan, SimReport]:
    """Plan and price the contraction; returns ``(plan, report)``."""
    plan = psgemm_plan(a_shape, b_shape, machine, p=p, gpus_per_proc=gpus_per_proc)
    return plan, simulate(plan, machine, overlap_rho=overlap_rho)


def psgemm_numeric(
    a: BlockSparseMatrix,
    b,
    machine: MachineSpec,
    c: BlockSparseMatrix | None = None,
    p: int = 1,
    gpus_per_proc: int | None = None,
    b_shape: SparseShape | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
):
    """Execute ``C <- beta*C + alpha*A @ B`` through the distributed plan.

    Parameters
    ----------
    a:
        The A operand with data.
    b:
        Either a :class:`BlockSparseMatrix` or an on-demand source
        (:class:`repro.runtime.data.GeneratedCollection`), mirroring the
        paper's generated-B driver.
    c:
        Optional accumulator (``C`` input); default empty.
    b_shape:
        Required when ``b`` is a generated collection without data.

    Returns
    -------
    ``(c, stats)`` where ``stats`` is
    :class:`repro.runtime.numeric.NumericStats` (bytes moved, peak GPU
    memory, B instantiation counts, ...).
    """
    from repro.runtime.numeric import execute_plan  # late import: avoid cycle

    if b_shape is None:
        b_shape = b.sparse_shape()
    plan = psgemm_plan(a.sparse_shape(), b_shape, machine, p=p, gpus_per_proc=gpus_per_proc)
    return execute_plan(plan, a, b, c=c, alpha=alpha, beta=beta)


def psgemm_distributed(
    a: BlockSparseMatrix,
    b,
    machine: MachineSpec,
    c: BlockSparseMatrix | None = None,
    p: int = 1,
    gpus_per_proc: int | None = None,
    b_shape: SparseShape | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    **dist_kwargs,
):
    """Execute ``C <- beta*C + alpha*A @ B`` across real worker processes.

    The multi-process twin of :func:`psgemm_numeric`: the same inspector
    produces the plan, but :func:`repro.dist.execute_plan_distributed`
    runs it with one worker process per planned rank (shared-memory tiles,
    on-demand B service, prefetch overlap, fault recovery).  The result is
    bit-for-bit identical to :func:`psgemm_numeric` for the same seeds —
    the serial executor is the crosscheck oracle.

    Extra keyword arguments are the fields of
    :class:`repro.dist.coordinator.RunConfig` (plan verification, tracing,
    recovery policy, telemetry, checkpoint / store tiers, pool);
    :func:`repro.dist.execute_plan_distributed` documents each one, and
    anything else is a ``TypeError``.

    Returns
    -------
    ``(c, report)`` where ``report`` is a
    :class:`repro.dist.DistReport` (merged :class:`NumericStats` in
    ``report.stats``, plus per-link comm bytes, the merged per-rank span
    trace, and recovery bookkeeping).
    """
    from repro.dist import execute_plan_distributed  # late import: avoid cycle

    if b_shape is None:
        b_shape = b.sparse_shape()
    plan = psgemm_plan(a.sparse_shape(), b_shape, machine, p=p, gpus_per_proc=gpus_per_proc)
    return execute_plan_distributed(
        plan, a, b, c=c, alpha=alpha, beta=beta, **dist_kwargs
    )
