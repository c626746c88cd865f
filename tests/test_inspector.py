"""Tests for the inspector: plans must be complete, budgeted, and exact.

The critical invariant: whatever the grid and memory parameters, the plan
executes *exactly* the task set of the block-sparse product — the same
task count and flop count the shape algebra computes directly.
"""

import numpy as np
import pytest

from repro.analysis import assert_plan_valid
from repro.core import inspect
from repro.machine import summit
from repro.sparse import (
    gemm_flops,
    gemm_task_count,
    random_shape_with_density,
)
from repro.sparse.construct import from_shape
from repro.tiling import random_tiling


def small_instance(density=0.5, seed=0, m=900, nk=4000):
    rows = random_tiling(m, 50, 200, seed=seed)
    inner = random_tiling(nk, 50, 200, seed=seed + 1)
    a = random_shape_with_density(rows, inner, density, seed=seed + 2)
    b = random_shape_with_density(inner, inner, density, seed=seed + 3)
    return a, b


class TestInspectorTotals:
    @pytest.mark.parametrize("p,gpp", [(1, 6), (2, 6), (1, 3), (4, 2)])
    def test_task_and_flop_totals_match_shape_algebra(self, p, gpp):
        a, b = small_instance()
        plan = inspect(a, b, summit(4), p=p, gpus_per_proc=gpp)
        assert plan.total_tasks == gemm_task_count(a, b)
        assert plan.total_flops == pytest.approx(gemm_flops(a, b))

    @pytest.mark.parametrize("density", [1.0, 0.5, 0.1])
    def test_totals_across_densities(self, density):
        a, b = small_instance(density=density, seed=7)
        plan = inspect(a, b, summit(2), p=1)
        assert plan.total_tasks == gemm_task_count(a, b)
        assert plan.total_flops == pytest.approx(gemm_flops(a, b))

    def test_validate_passes(self):
        a, b = small_instance(seed=11)
        plan = inspect(a, b, summit(2), p=2, gpus_per_proc=3)
        assert_plan_valid(plan)

    def test_a_traffic_counts_each_needed_tile_once_per_proc(self):
        a, b = small_instance(seed=17)
        plan = inspect(a, b, summit(2), p=1)
        for proc in plan.procs:
            keys = proc.a_needed_rows * a.ntile_cols + proc.a_needed_cols
            assert np.unique(keys).size == keys.size

    def test_b_generation_partitioned_within_grid_row(self):
        a, b = small_instance(seed=19)
        plan = inspect(a, b, summit(4), p=1)
        # With p = 1, the grid row partitions B's columns, so the summed
        # generation bytes equal B's nonzero bytes exactly... except tiles
        # whose column was assigned but pruned; compare against per-column
        # sums of the shape.
        total_gen = sum(pp.b_gen_bytes for pp in plan.procs)
        assert total_gen == b.nbytes

    def test_b_generation_replicated_across_grid_rows(self):
        a, b = small_instance(seed=23)
        plan1 = inspect(a, b, summit(4), p=1)
        plan2 = inspect(a, b, summit(4), p=2)
        g1 = sum(pp.b_gen_bytes for pp in plan1.procs)
        g2 = sum(pp.b_gen_bytes for pp in plan2.procs)
        assert g2 == 2 * g1  # p copies of every column

    def test_more_grid_rows_reduce_a_traffic(self):
        a, b = small_instance(seed=29)
        vol = []
        for p in (1, 2, 4):
            plan = inspect(a, b, summit(4), p=p)
            vol.append(sum(pp.a_recv_bytes for pp in plan.procs))
        assert vol[0] > vol[1] > vol[2]

    def test_nonconforming_raises(self):
        a, _ = small_instance()
        _, b = small_instance(seed=100, nk=5000)
        with pytest.raises(ValueError):
            inspect(a, b, summit(1))


class TestPlanStructure:
    def test_columns_partitioned_per_grid_row(self):
        a, b = small_instance(seed=41)
        plan = inspect(a, b, summit(4), p=2)
        for r in range(2):
            cols = np.concatenate([p.columns for p in plan.procs if p.row == r])
            assert sorted(cols.tolist()) == list(range(b.ntile_cols))

    def test_blocks_on_valid_gpus(self):
        a, b = small_instance(seed=43)
        plan = inspect(a, b, summit(2), gpus_per_proc=3)
        for proc in plan.procs:
            for blk in proc.blocks:
                assert 0 <= blk.gpu < 3

    def test_chunk_tiles_lie_in_slice_and_k_support(self):
        a, b = small_instance(seed=47)
        plan = inspect(a, b, summit(2), p=2)
        for proc in plan.procs:
            slice_set = set(proc.a_slice_rows.tolist())
            for blk in proc.blocks:
                ks = set(blk.k_tiles.tolist())
                for ch in blk.chunks:
                    assert set(ch.a_rows.tolist()) <= slice_set
                    assert set(ch.a_cols.tolist()) <= ks

    def test_chunk_device_seconds_positive(self):
        a, b = small_instance(seed=53)
        plan = inspect(a, b, summit(1))
        for proc in plan.procs:
            for blk in proc.blocks:
                for ch in blk.chunks:
                    assert ch.device_seconds > 0
                    assert ch.ntasks > 0
                    assert ch.flops > 0

    def test_summary_mentions_tasks(self):
        a, b = small_instance(seed=59)
        plan = inspect(a, b, summit(1))
        assert "GEMM tasks" in plan.summary()
