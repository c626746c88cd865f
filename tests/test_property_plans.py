"""Property-based invariants of the planner across random machines.

The inspector must produce valid, complete, budget-respecting plans for
*any* machine geometry (GPU memory, GPUs per node, node counts, memory
fractions) — not just the Summit defaults.  These tests fuzz that space.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import assert_plan_valid
from repro.core import inspect
from repro.core.plan import BLOCK_FRACTION
from repro.core.analytic import simulate
from repro.core.block_partition import InfeasiblePartitionError
from repro.machine.spec import GpuSpec, MachineSpec, NodeSpec, summit
from repro.sparse import gemm_flops, gemm_task_count, random_shape_with_density
from repro.sparse.shape import SparseShape
from repro.tiling import random_tiling

MIB = 2**20


@st.composite
def machines(draw):
    gpu_mem = draw(st.sampled_from([8 * MIB, 32 * MIB, 256 * MIB, 16 * 1024 * MIB]))
    ngpus = draw(st.integers(min_value=1, max_value=6))
    nnodes = draw(st.integers(min_value=1, max_value=4))
    return MachineSpec(
        nnodes=nnodes,
        node=NodeSpec(ngpus=ngpus),
        gpu=GpuSpec(memory_bytes=gpu_mem),
    )


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    density = draw(st.floats(min_value=0.1, max_value=1.0))
    rng = np.random.default_rng(seed)
    rows = random_tiling(int(rng.integers(200, 700)), 30, 120, seed=rng)
    inner = random_tiling(int(rng.integers(800, 2500)), 30, 120, seed=rng)
    a = random_shape_with_density(rows, inner, density, seed=rng)
    b = random_shape_with_density(inner, inner, density, seed=rng)
    return a, b


class TestPlannerProperties:
    @settings(max_examples=25, deadline=None)
    @given(instances(), machines(), st.integers(min_value=1, max_value=3))
    def test_plan_complete_and_budgeted(self, inst, machine, p):
        a, b = inst
        p = min(p, a.ntile_rows, machine.nnodes * 1)
        try:
            plan = inspect(a, b, machine, p=p)
        except InfeasiblePartitionError:
            # Legitimate only when a single column cannot fit the GPU.
            col_max = int(
                np.max(
                    np.asarray(b.tile_bytes().sum(axis=0)).ravel()
                )
            )
            assert col_max > machine.gpu.memory_bytes * 0.4
            return
        except ValueError as e:
            assert "exceeds" in str(e)  # p larger than the process count
            return
        assert_plan_valid(plan)
        assert plan.total_tasks == gemm_task_count(a, b)
        assert plan.total_flops == pytest.approx(gemm_flops(a, b))

    @settings(max_examples=10, deadline=None)
    @given(instances(), machines())
    def test_simulation_finite_and_positive(self, inst, machine):
        a, b = inst
        try:
            plan = inspect(a, b, machine, p=1)
        except InfeasiblePartitionError:
            return
        rep = simulate(plan, machine)
        assert np.isfinite(rep.makespan) and rep.makespan > 0
        # A and B that share no inner tile make a plan with no work.
        assert rep.perf > 0 if plan.total_flops > 0 else rep.perf == 0

    def test_simulation_of_disjoint_operands_is_zero_work(self):
        """Hypothesis found it: A and B with no inner tile in common plan
        zero flops, which simulate reports as a positive makespan at zero
        performance, not as an error."""
        rows = random_tiling(300, 30, 120, seed=0)
        inner = random_tiling(1200, 30, 120, seed=1)
        first = np.arange(inner.ntiles) < inner.ntiles // 2
        a = SparseShape(rows, inner, np.ones((rows.ntiles, 1)) * first)
        b = SparseShape(inner, inner, ~first[:, None] * np.ones((1, inner.ntiles)))
        plan = inspect(a, b, summit(1), p=1)
        assert plan.total_flops == 0
        rep = simulate(plan, summit(1))
        assert np.isfinite(rep.makespan) and rep.makespan > 0
        assert rep.perf == 0

    @settings(max_examples=10, deadline=None)
    @given(instances())
    def test_block_fraction_respected(self, inst):
        a, b = inst
        machine = MachineSpec(nnodes=1, node=NodeSpec(), gpu=GpuSpec(memory_bytes=64 * MIB))
        try:
            plan = inspect(a, b, machine)
        except InfeasiblePartitionError:
            return
        budget = machine.gpu.memory_bytes * BLOCK_FRACTION
        for proc in plan.procs:
            for blk in proc.blocks:
                assert blk.b_bytes + blk.c_bytes <= budget or len(blk.columns) == 1

    @settings(max_examples=8, deadline=None)
    @given(instances())
    def test_numeric_exact_on_tiny_gpus(self, inst):
        """Even with absurdly small GPUs (many blocks/chunks), the plan
        computes the exact product."""
        from repro.runtime.numeric import execute_plan
        from repro.sparse.construct import from_shape

        a_shape, b_shape = inst
        machine = MachineSpec(nnodes=1, node=NodeSpec(ngpus=2), gpu=GpuSpec(memory_bytes=8 * MIB))
        try:
            plan = inspect(a_shape, b_shape, machine)
        except InfeasiblePartitionError:
            return
        a = from_shape(a_shape, seed=1)
        b = from_shape(b_shape, seed=2)
        c, stats = execute_plan(plan, a, b)
        from repro.sparse.gemm_ref import block_gemm_reference

        assert c.allclose(block_gemm_reference(a, b))
        assert stats.gpu_peak_bytes <= machine.gpu.memory_bytes
