"""Tests for the top-level psgemm API surface and plan options."""

import numpy as np
import pytest

from repro.analysis import assert_plan_valid
from repro.core import PlanOptions, psgemm_numeric, psgemm_plan, psgemm_simulate
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

    def test_options_flow_through(self):
        a, b = shapes(seed=7)
        opts = PlanOptions(block_fraction=0.3, chunk_fraction=0.15)
        plan = psgemm_plan(a, b, summit(1), options=opts)
        assert_plan_valid(plan)
        assert plan.options.block_fraction == 0.3

    def test_smaller_blocks_mean_more_blocks(self):
        from dataclasses import replace

        a, b = shapes(seed=9)
        mach = summit(1)
        # Shrink GPU memory so the block budget actually bites.
        mach = replace(mach, gpu=replace(mach.gpu, memory_bytes=8 * 2**20))
        n_small = psgemm_plan(
            a, b, mach, options=PlanOptions(block_fraction=0.25, chunk_fraction=0.12)
        ).total_blocks
        n_big = psgemm_plan(
            a, b, mach, options=PlanOptions(block_fraction=0.9, chunk_fraction=0.05)
        ).total_blocks
        assert n_small > n_big

    def test_assignment_policy_option(self):
        a, b = shapes(seed=11)
        for policy in ("mirrored", "cyclic", "lpt"):
            plan = psgemm_plan(
                a, b, summit(1), options=PlanOptions(assignment_policy=policy)
            )
            assert plan.total_tasks > 0

    def test_invalid_policy_rejected(self):
        a, b = shapes(seed=13)
        with pytest.raises(ValueError):
            psgemm_plan(a, b, summit(1), options=PlanOptions(assignment_policy="x"))
