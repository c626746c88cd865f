"""Reference block-sparse GEMM vs dense NumPy, incl. property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    BlockSparseMatrix,
    block_gemm_reference,
    random_block_sparse,
)
from repro.sparse.gemm_ref import gemm_against_dense
from repro.tiling import Tiling, random_tiling


class TestGemmReference:
    @pytest.mark.parametrize("density", [1.0, 0.75, 0.5, 0.25, 0.1])
    def test_matches_dense(self, density):
        rows = random_tiling(600, 40, 160, seed=1)
        inner = random_tiling(700, 40, 160, seed=2)
        cols = random_tiling(800, 40, 160, seed=3)
        a = random_block_sparse(rows, inner, density, seed=4)
        b = random_block_sparse(inner, cols, density, seed=5)
        c = block_gemm_reference(a, b)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b))

    def test_accumulates_into_c(self):
        t = Tiling.from_sizes([3, 4])
        a = random_block_sparse(t, t, 1.0, seed=0)
        b = random_block_sparse(t, t, 1.0, seed=1)
        c0 = random_block_sparse(t, t, 1.0, seed=2)
        expect = c0.to_dense() + a.to_dense() @ b.to_dense()
        out = block_gemm_reference(a, b, c=c0.copy())
        assert np.allclose(out.to_dense(), expect)

    def test_alpha_beta(self):
        t = Tiling.from_sizes([5])
        a = random_block_sparse(t, t, 1.0, seed=0)
        b = random_block_sparse(t, t, 1.0, seed=1)
        c0 = random_block_sparse(t, t, 1.0, seed=2)
        expect = 0.5 * c0.to_dense() + 2.0 * (a.to_dense() @ b.to_dense())
        out = block_gemm_reference(a, b, c=c0.copy(), alpha=2.0, beta=0.5)
        assert np.allclose(out.to_dense(), expect)

    def test_rectangular_short_and_wide(self):
        # The paper's regime: A and C short-and-wide, B square.
        m = random_tiling(120, 20, 60, seed=6)
        k = random_tiling(1200, 20, 60, seed=7)
        a = random_block_sparse(m, k, 0.3, seed=8)
        b = random_block_sparse(k, k, 0.3, seed=9)
        c = block_gemm_reference(a, b)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b))

    def test_nonconforming_raises(self):
        a = BlockSparseMatrix(Tiling.from_sizes([3]), Tiling.from_sizes([4]))
        b = BlockSparseMatrix(Tiling.from_sizes([5]), Tiling.from_sizes([6]))
        with pytest.raises(ValueError):
            block_gemm_reference(a, b)

    def test_wrong_c_grid_raises(self):
        t = Tiling.from_sizes([3])
        a = random_block_sparse(t, t, 1.0, seed=0)
        b = random_block_sparse(t, t, 1.0, seed=1)
        bad_c = BlockSparseMatrix(Tiling.from_sizes([4]), Tiling.from_sizes([4]))
        with pytest.raises(ValueError):
            block_gemm_reference(a, b, c=bad_c)

    def test_empty_operands(self):
        t = Tiling.from_sizes([3, 4])
        a = BlockSparseMatrix(t, t)
        b = random_block_sparse(t, t, 1.0, seed=0)
        c = block_gemm_reference(a, b)
        assert c.nnz_tiles == 0

    def test_result_occupancy_is_product_shape(self):
        rows = random_tiling(300, 30, 90, seed=10)
        a = random_block_sparse(rows, rows, 0.3, seed=11)
        b = random_block_sparse(rows, rows, 0.3, seed=12)
        from repro.sparse import product_shape

        c = block_gemm_reference(a, b)
        expect = product_shape(a.sparse_shape(), b.sparse_shape())
        got = c.sparse_shape()
        assert got == expect

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.1, max_value=1.0))
    def test_property_gemm_matches_dense(self, seed, density):
        rng = np.random.default_rng(seed)
        sizes = lambda: rng.integers(1, 9, size=rng.integers(1, 5)).tolist()  # noqa: E731
        m, k, n = Tiling.from_sizes(sizes()), Tiling.from_sizes(sizes()), Tiling.from_sizes(sizes())
        a = random_block_sparse(m, k, density, seed=rng)
        b = random_block_sparse(k, n, density, seed=rng)
        c = block_gemm_reference(a, b)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b))
