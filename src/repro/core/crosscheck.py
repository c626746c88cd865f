"""Cross-executor consistency checking.

One instance, run through the numeric executor and held against the dense
reference and the shape algebra; every invariant in one report:

* numeric result == dense reference (exactness);
* executed task/flop counts == planned counts == shape-algebra counts;
* GPU memory high-water mark within device capacity;
* B instantiations at most once per process.

Timing is not checked here: :mod:`repro.core.analytic` is the one timing
model, and it prices every paper figure.

``python -m repro selftest --deep`` runs it; CI-style tests assert on the
report fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.plan_checks import assert_plan_valid
from repro.core.inspector import inspect
from repro.machine.spec import MachineSpec, summit
from repro.runtime.data import GeneratedCollection
from repro.runtime.numeric import execute_plan
from repro.sparse.construct import from_shape
from repro.sparse.gemm_ref import block_gemm_reference
from repro.sparse.random_sparsity import random_shape_with_density
from repro.sparse.shape import SparseShape
from repro.sparse.shape_algebra import gemm_flops, gemm_task_count
from repro.tiling.random import random_tiling


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of one cross-executor run."""

    numeric_exact: bool
    tasks_planned: int
    tasks_executed: int
    tasks_counted: int
    flops_planned: float
    flops_executed: float
    flops_counted: float
    gpu_peak_bytes: int
    gpu_capacity_bytes: int
    b_max_instantiations: int

    @property
    def counts_consistent(self) -> bool:
        return (
            self.tasks_planned == self.tasks_executed == self.tasks_counted
            and self.flops_planned == self.flops_executed == self.flops_counted
        )

    @property
    def memory_safe(self) -> bool:
        return 0 < self.gpu_peak_bytes <= self.gpu_capacity_bytes

    @property
    def b_lifecycle_ok(self) -> bool:
        return self.b_max_instantiations <= 1

    @property
    def ok(self) -> bool:
        return (
            self.numeric_exact
            and self.counts_consistent
            and self.memory_safe
            and self.b_lifecycle_ok
        )

    def summary(self) -> str:
        lines = [
            f"numeric exact vs dense reference : {self.numeric_exact}",
            f"task counts (plan/exec/algebra)  : {self.tasks_planned} / "
            f"{self.tasks_executed} / {self.tasks_counted}",
            f"flops (plan/exec/algebra)        : {self.flops_planned:.0f} / "
            f"{self.flops_executed:.0f} / {self.flops_counted:.0f}",
            f"GPU peak / capacity              : {self.gpu_peak_bytes} / "
            f"{self.gpu_capacity_bytes}",
            f"max B instantiations per proc    : {self.b_max_instantiations}",
            f"ALL CHECKS                       : {'PASS' if self.ok else 'FAIL'}",
        ]
        return "\n".join(lines)


def crosscheck(
    a_shape: SparseShape,
    b_shape: SparseShape,
    machine: MachineSpec,
    p: int = 1,
    gpus_per_proc: int | None = None,
    seed: int = 0,
) -> ConsistencyReport:
    """Run one contraction numerically and collect the report."""
    plan = inspect(a_shape, b_shape, machine, p=p, gpus_per_proc=gpus_per_proc)
    assert_plan_valid(plan)

    a_mat = from_shape(a_shape, fill="random", seed=seed)
    b_gen = GeneratedCollection(b_shape, seed=seed + 1)
    c, stats = execute_plan(plan, a_mat, b_gen)
    ref = block_gemm_reference(a_mat, b_gen.as_matrix())
    numeric_exact = c.allclose(ref)

    return ConsistencyReport(
        numeric_exact=numeric_exact,
        tasks_planned=plan.total_tasks,
        tasks_executed=stats.ntasks,
        tasks_counted=gemm_task_count(a_shape, b_shape),
        flops_planned=plan.total_flops,
        flops_executed=stats.flops,
        flops_counted=gemm_flops(a_shape, b_shape),
        gpu_peak_bytes=stats.gpu_peak_bytes,
        gpu_capacity_bytes=plan.gpu_memory_bytes,
        b_max_instantiations=stats.b_max_instantiations,
    )


def random_crosscheck(
    seed: int = 0,
    machine: MachineSpec | None = None,
    p: int = 2,
    gpus_per_proc: int = 3,
) -> ConsistencyReport:
    """Cross-check a randomly generated instance (the deep self-test)."""
    rng = np.random.default_rng(seed)
    rows = random_tiling(int(rng.integers(300, 800)), 30, 120, seed=rng)
    inner = random_tiling(int(rng.integers(1200, 3000)), 30, 120, seed=rng)
    density = float(rng.uniform(0.2, 0.9))
    a = random_shape_with_density(rows, inner, density, seed=rng)
    b = random_shape_with_density(inner, inner, density, seed=rng)
    machine = machine or summit(2)
    p = min(p, rows.ntiles)
    return crosscheck(a, b, machine, p=p, gpus_per_proc=gpus_per_proc, seed=seed)
