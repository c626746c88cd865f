"""Tests for the top-level psgemm API surface."""

import numpy as np
import pytest

from repro.core import psgemm_numeric, psgemm_plan, psgemm_simulate
from repro.core.inspector import inspect
from repro.machine import summit
from repro.sparse import random_block_sparse, random_shape_with_density
from repro.tiling import random_tiling


def shapes(seed=0):
    rows = random_tiling(500, 40, 160, seed=seed)
    inner = random_tiling(2500, 40, 160, seed=seed + 1)
    a = random_shape_with_density(rows, inner, 0.5, seed=seed + 2)
    b = random_shape_with_density(inner, inner, 0.5, seed=seed + 3)
    return a, b


class TestPsgemmApi:
    def test_plan_equals_inspect(self):
        a, b = shapes()
        p1 = psgemm_plan(a, b, summit(2), p=2)
        p2 = inspect(a, b, summit(2), p=2)
        assert p1.total_tasks == p2.total_tasks
        assert p1.total_flops == p2.total_flops
        assert p1.total_blocks == p2.total_blocks

    def test_simulate_returns_pair(self):
        a, b = shapes(seed=5)
        plan, rep = psgemm_simulate(a, b, summit(1))
        assert plan.total_tasks > 0
        assert rep.flops == pytest.approx(plan.total_flops)

    def test_numeric_infers_b_shape(self):
        rows = random_tiling(300, 30, 90, seed=1)
        inner = random_tiling(900, 30, 90, seed=2)
        a = random_block_sparse(rows, inner, 0.5, seed=3)
        b = random_block_sparse(inner, inner, 0.5, seed=4)
        c, stats = psgemm_numeric(a, b, summit(1))
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())

    def test_smaller_blocks_mean_more_blocks(self):
        from dataclasses import replace

        a, b = shapes(seed=9)
        mach = summit(1)

        def blocks_on(mib):
            gpu = replace(mach.gpu, memory_bytes=mib * 2**20)
            return psgemm_plan(a, b, replace(mach, gpu=gpu)).total_blocks

        # Small GPUs so the block budget actually bites.
        assert blocks_on(4) > blocks_on(16)
