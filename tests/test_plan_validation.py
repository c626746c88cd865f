"""The plan's derived accessors agree with the blocks and chunks they sum.

The plan's invariants are proven by :mod:`repro.analysis.plan_checks`
(mutation tests in ``tests/test_analysis_plan.py``).
"""

import pytest

from repro.core import inspect
from repro.machine import summit
from repro.sparse import random_shape_with_density
from repro.tiling import random_tiling


@pytest.fixture()
def plan():
    rows = random_tiling(600, 40, 160, seed=0)
    inner = random_tiling(3000, 40, 160, seed=1)
    a = random_shape_with_density(rows, inner, 0.5, seed=2)
    b = random_shape_with_density(inner, inner, 0.5, seed=3)
    return inspect(a, b, summit(2), p=2, gpus_per_proc=3)


class TestPlanAccessors:
    def test_gpu_blocks_partition_blocks(self, plan):
        for proc in plan.procs:
            seen = []
            for g in range(plan.grid.gpus_per_proc):
                seen.extend(id(b) for b in proc.gpu_blocks(g))
            assert sorted(seen) == sorted(id(b) for b in proc.blocks)

    def test_block_a_bytes_sums_chunks(self, plan):
        for proc in plan.procs:
            for blk in proc.blocks:
                assert blk.a_bytes == sum(c.a_bytes for c in blk.chunks)

    def test_proc_totals_sum_blocks(self, plan):
        for proc in plan.procs:
            assert proc.ntasks == sum(b.ntasks for b in proc.blocks)
            assert proc.flops == pytest.approx(sum(b.flops for b in proc.blocks))
