"""Tests for BlockSparseMatrix and its constructors."""

import numpy as np
import pytest

from repro.sparse import (
    BlockSparseMatrix,
    from_dense,
    random_block_sparse,
    zeros,
)
from repro.sparse.construct import from_shape
from repro.sparse.shape import SparseShape
from repro.tiling import Tiling


def grids():
    return Tiling.from_sizes([2, 3]), Tiling.from_sizes([4, 1, 2])


class TestBlockSparseMatrix:
    def test_shape_and_grid(self):
        r, c = grids()
        m = BlockSparseMatrix(r, c)
        assert m.shape == (5, 7)
        assert m.tile_grid == (2, 3)
        assert m.tile_shape(1, 0) == (3, 4)

    def test_set_get_validation(self):
        r, c = grids()
        m = BlockSparseMatrix(r, c)
        m.set_tile(0, 0, np.ones((2, 4)))
        assert m.has_tile(0, 0)
        assert m.nnz_tiles == 1
        with pytest.raises(ValueError):
            m.set_tile(0, 1, np.ones((2, 4)))  # wrong shape
        with pytest.raises(KeyError):
            m.get_tile(1, 1)

    def test_tile_or_zeros(self):
        r, c = grids()
        m = BlockSparseMatrix(r, c)
        z = m.tile_or_zeros(1, 2)
        assert z.shape == (3, 2) and not z.any()

    def test_accumulate(self):
        r, c = grids()
        m = BlockSparseMatrix(r, c)
        m.accumulate_tile(0, 0, np.ones((2, 4)))
        m.accumulate_tile(0, 0, 2 * np.ones((2, 4)))
        assert np.allclose(m.get_tile(0, 0), 3.0)

    def test_to_dense_from_dense_roundtrip(self):
        r, c = grids()
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((5, 7))
        m = from_dense(dense, r, c)
        assert np.allclose(m.to_dense(), dense)

    def test_from_dense_drops_zero_tiles(self):
        r, c = grids()
        dense = np.zeros((5, 7))
        dense[0:2, 0:4] = 1.0
        m = from_dense(dense, r, c)
        assert m.nnz_tiles == 1
        m_all = from_dense(dense, r, c, drop_tol=None)
        assert m_all.nnz_tiles == 6

    def test_from_dense_shape_mismatch(self):
        r, c = grids()
        with pytest.raises(ValueError):
            from_dense(np.zeros((4, 7)), r, c)

    def test_transpose(self):
        r, c = grids()
        m = random_block_sparse(r, c, 1.0, seed=1)
        t = m.transpose()
        assert np.allclose(t.to_dense(), m.to_dense().T)

    def test_scale_axpy(self):
        r, c = grids()
        m1 = random_block_sparse(r, c, 1.0, seed=2)
        m2 = random_block_sparse(r, c, 1.0, seed=3)
        d = 2.0 * m1.to_dense() + 0.5 * m2.to_dense()
        out = m1.copy().scale(2.0).axpy(0.5, m2)
        assert np.allclose(out.to_dense(), d)

    def test_axpy_grid_mismatch(self):
        r, c = grids()
        m1 = BlockSparseMatrix(r, c)
        m2 = BlockSparseMatrix(c, r)
        with pytest.raises(ValueError):
            m1.axpy(1.0, m2)

    def test_norm_fro(self):
        r, c = grids()
        m = random_block_sparse(r, c, 1.0, seed=4)
        assert m.norm_fro() == pytest.approx(np.linalg.norm(m.to_dense()))

    def test_allclose_treats_missing_as_zero(self):
        r, c = grids()
        m1 = BlockSparseMatrix(r, c)
        m2 = BlockSparseMatrix(r, c)
        m2.set_tile(0, 0, np.zeros((2, 4)))
        assert m1.allclose(m2)
        m2.set_tile(0, 0, np.ones((2, 4)))
        assert not m1.allclose(m2)

    def test_prune(self):
        r, c = grids()
        m = BlockSparseMatrix(r, c)
        m.set_tile(0, 0, np.zeros((2, 4)))
        m.set_tile(0, 1, np.ones((2, 1)))
        m.prune()
        assert m.nnz_tiles == 1 and m.has_tile(0, 1)

    def test_copy_independent(self):
        r, c = grids()
        m = random_block_sparse(r, c, 1.0, seed=5)
        cp = m.copy()
        cp.get_tile(0, 0)[:] = 0
        assert not np.allclose(m.get_tile(0, 0), 0)

    def test_nbytes(self):
        r, c = grids()
        m = BlockSparseMatrix(r, c)
        m.set_tile(0, 0, np.ones((2, 4)))
        assert m.nbytes == 2 * 4 * 8

    def test_sparse_shape_with_norms(self):
        r, c = grids()
        m = BlockSparseMatrix(r, c)
        m.set_tile(1, 1, 3.0 * np.ones((3, 1)))
        s = m.sparse_shape(with_norms=True)
        assert s.nnz_tiles == 1
        assert s.csr[1, 1] == pytest.approx(np.sqrt(9.0 * 3))

    def test_drop_tile(self):
        r, c = grids()
        m = random_block_sparse(r, c, 1.0, seed=6)
        m.drop_tile(0, 0)
        m.drop_tile(0, 0)  # idempotent
        assert not m.has_tile(0, 0)


class TestConstructors:
    def test_zeros(self):
        r, c = grids()
        assert zeros(r, c).nnz_tiles == 0

    def test_random_full_deterministic(self):
        r, c = grids()
        m1 = random_block_sparse(r, c, 1.0, seed=7)
        m2 = random_block_sparse(r, c, 1.0, seed=7)
        assert m1.allclose(m2)

    def test_from_shape_fills(self):
        r, c = grids()
        s = SparseShape.from_coo(r, c, np.array([0]), np.array([2]))
        ones = from_shape(s, fill="ones")
        assert ones.nnz_tiles == 1 and np.allclose(ones.get_tile(0, 2), 1.0)
        zz = from_shape(s, fill="zeros")
        assert np.allclose(zz.get_tile(0, 2), 0.0)
        with pytest.raises(ValueError):
            from_shape(s, fill="bogus")

    def test_from_shape_order_independent_values(self):
        # Tile values depend only on (seed, tile id), not instantiation order.
        r, c = grids()
        s_full = SparseShape.full(r, c)
        m_full = from_shape(s_full, seed=11)
        s_one = SparseShape.from_coo(r, c, np.array([1]), np.array([2]))
        m_one = from_shape(s_one, seed=11)
        assert np.allclose(m_full.get_tile(1, 2), m_one.get_tile(1, 2))

    def test_random_block_sparse_density(self):
        r = Tiling.uniform(400, 40)
        c = Tiling.uniform(400, 40)
        m = random_block_sparse(r, c, 0.5, seed=8)
        d = m.sparse_shape().element_density
        assert 0.5 <= d <= 0.55
