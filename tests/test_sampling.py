"""Tests for task-population norm-product sampling."""

import numpy as np
import pytest

from repro.sparse import SparseShape
from repro.sparse.sampling import task_norm_product_quantile, task_norm_products
from repro.sparse.shape_algebra import gemm_task_count, screened_product
from repro.tiling import Tiling


def shapes_with_norms(seed=0, n=12):
    rng = np.random.default_rng(seed)
    t = Tiling.uniform(n * 5, 5)
    a_mask = (rng.uniform(size=(n, n)) < 0.6) * rng.uniform(0.01, 1, (n, n))
    b_mask = (rng.uniform(size=(n, n)) < 0.6) * rng.uniform(0.01, 1, (n, n))
    return SparseShape(t, t, a_mask), SparseShape(t, t, b_mask)


def brute_products(a, b):
    am = a.csr.toarray()
    bm = b.csr.toarray()
    out = []
    for k in range(am.shape[1]):
        for i in range(am.shape[0]):
            if am[i, k] == 0:
                continue
            for j in range(bm.shape[1]):
                if bm[k, j] != 0:
                    out.append(am[i, k] * bm[k, j])
    return np.array(out)


class TestTaskNormProducts:
    def test_matches_brute_force(self):
        a, b = shapes_with_norms()
        got = np.sort(task_norm_products(a, b))
        expect = np.sort(brute_products(a, b))
        assert got.size == gemm_task_count(a, b)
        assert np.allclose(got, expect)

    def test_quantile_screens_expected_fraction(self):
        a, b = shapes_with_norms(seed=3)
        total = gemm_task_count(a, b)
        for q in (0.03, 0.25, 0.5):
            tau = task_norm_product_quantile(a, b, q, max_samples=None)
            res = screened_product(a, b, tau)
            dropped = res.dropped_tasks / total
            assert dropped == pytest.approx(q, abs=0.06)

    def test_subsampling_bounds_size(self):
        a, b = shapes_with_norms(seed=5)
        s = task_norm_products(a, b, max_samples=50)
        assert s.size == 50

    def test_empty(self):
        t = Tiling.from_sizes([4])
        empty = SparseShape.empty(t, t)
        full = SparseShape.full(t, t)
        assert task_norm_products(empty, full).size == 0
        assert task_norm_product_quantile(empty, full, 0.1) == 0.0
