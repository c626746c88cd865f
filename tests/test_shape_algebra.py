"""Tests for shape algebra (task/flop counting, screening, intensity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    SparseShape,
    gemm_flops,
    gemm_task_count,
    per_column_flops,
    product_shape,
    random_shape_with_density,
    screened_product,
)
from repro.sparse.shape_algebra import (
    arithmetic_intensity,
    flop_matrix,
    pair_count_matrix,
)
from repro.tiling import Tiling, random_tiling


def brute_force(a: SparseShape, b: SparseShape):
    """O(n^3) reference for tasks/flops/product occupancy."""
    am = a.pattern().toarray()
    bm = b.pattern().toarray()
    m, k, n = a.rows.sizes, a.cols.sizes, b.cols.sizes
    tasks = 0
    flops = 0.0
    occ = np.zeros((a.ntile_rows, b.ntile_cols), dtype=bool)
    for i in range(a.ntile_rows):
        for kk in range(a.ntile_cols):
            if not am[i, kk]:
                continue
            for j in range(b.ntile_cols):
                if bm[kk, j]:
                    tasks += 1
                    flops += 2.0 * m[i] * k[kk] * n[j]
                    occ[i, j] = True
    return tasks, flops, occ


def random_pair(seed=0, da=0.4, db=0.4):
    rows = random_tiling(900, 50, 200, seed=seed)
    inner = random_tiling(1100, 50, 200, seed=seed + 1)
    cols = random_tiling(1000, 50, 200, seed=seed + 2)
    a = random_shape_with_density(rows, inner, da, seed=seed + 3)
    b = random_shape_with_density(inner, cols, db, seed=seed + 4)
    return a, b


class TestCounting:
    def test_against_brute_force(self):
        a, b = random_pair(seed=10)
        tasks, flops, occ = brute_force(a, b)
        assert gemm_task_count(a, b) == tasks
        assert gemm_flops(a, b) == pytest.approx(flops)
        c = product_shape(a, b)
        assert np.array_equal(c.pattern().toarray() > 0, occ)

    def test_per_column_sums(self):
        a, b = random_pair(seed=20)
        assert per_column_flops(a, b).sum() == pytest.approx(gemm_flops(a, b))

    def test_dense_formula(self):
        r = Tiling.from_sizes([3, 4])
        k = Tiling.from_sizes([5, 6])
        c = Tiling.from_sizes([7])
        a = SparseShape.full(r, k)
        b = SparseShape.full(k, c)
        assert gemm_flops(a, b) == pytest.approx(2.0 * 7 * 11 * 7)
        assert gemm_task_count(a, b) == 4

    def test_empty_operand(self):
        r, k, c = Tiling.single(4), Tiling.single(5), Tiling.single(6)
        a = SparseShape.empty(r, k)
        b = SparseShape.full(k, c)
        assert gemm_task_count(a, b) == 0
        assert gemm_flops(a, b) == 0.0
        assert product_shape(a, b).nnz_tiles == 0

    def test_nonconformable_raises(self):
        a = SparseShape.full(Tiling.single(4), Tiling.single(5))
        b = SparseShape.full(Tiling.single(6), Tiling.single(7))
        with pytest.raises(ValueError):
            gemm_task_count(a, b)

    def test_flop_matrix_entries(self):
        r = Tiling.from_sizes([2])
        k = Tiling.from_sizes([3, 4])
        c = Tiling.from_sizes([5])
        a = SparseShape.from_coo(r, k, np.array([0, 0]), np.array([0, 1]))
        b = SparseShape.from_coo(k, c, np.array([0, 1]), np.array([0, 0]))
        fm = flop_matrix(a, b)
        assert fm[0, 0] == pytest.approx(2.0 * 2 * (3 + 4) * 5)
        pc = pair_count_matrix(a, b)
        assert pc[0, 0] == 2

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_property_counts_match_brute_force(self, seed):
        rows = Tiling.uniform(60, 13)
        inner = Tiling.uniform(70, 17)
        cols = Tiling.uniform(50, 11)
        a = random_shape_with_density(rows, inner, 0.4, seed=seed)
        b = random_shape_with_density(inner, cols, 0.5, seed=seed + 1)
        tasks, flops, occ = brute_force(a, b)
        assert gemm_task_count(a, b) == tasks
        assert gemm_flops(a, b) == pytest.approx(flops)


class TestScreening:
    def test_zero_threshold_matches_unscreened(self):
        a, b = random_pair(seed=40)
        sp_res = screened_product(a, b, threshold=0.0)
        assert sp_res.task_count == gemm_task_count(a, b)
        assert sp_res.flops == pytest.approx(gemm_flops(a, b))
        assert sp_res.dropped_tasks == 0
        assert sp_res.shape == product_shape(a, b)

    def test_screening_monotone(self):
        a, b = random_pair(seed=50)
        # Attach random norms in (0, 1).
        rng = np.random.default_rng(0)
        na = a.csr.copy()
        na.data = rng.uniform(0.01, 1.0, na.nnz)
        nb = b.csr.copy()
        nb.data = rng.uniform(0.01, 1.0, nb.nnz)
        a2 = a.with_norms(na)
        b2 = b.with_norms(nb)
        prev_tasks = None
        for tau in (0.0, 0.1, 0.3, 0.6):
            res = screened_product(a2, b2, tau)
            if prev_tasks is not None:
                assert res.task_count <= prev_tasks
            prev_tasks = res.task_count
        total = screened_product(a2, b2, 0.0).task_count
        res = screened_product(a2, b2, 0.3)
        assert res.task_count + res.dropped_tasks == total

    def test_everything_screened(self):
        a, b = random_pair(seed=60)
        res = screened_product(a, b, threshold=10.0)  # norms are 1.0
        assert res.task_count == 0
        assert res.shape.nnz_tiles == 0
        assert res.flops == 0.0


class TestIntensity:
    def test_dense_square_intensity(self):
        # Dense n x n x n: flops = 2n^3, bytes = 3 n^2 * 8 -> AI = n/12.
        t = Tiling.uniform(240, 60)
        a = SparseShape.full(t, t)
        ai = arithmetic_intensity(a, a)
        assert ai == pytest.approx(240 / 12.0)

    def test_intensity_decreases_with_sparsity(self):
        rows = random_tiling(3000, 100, 300, seed=0)
        a1 = SparseShape.full(rows, rows)
        a2 = random_shape_with_density(rows, rows, 0.25, seed=1)
        ai_dense = arithmetic_intensity(a1, a1)
        ai_sparse = arithmetic_intensity(a2, a2)
        assert ai_sparse < ai_dense
