"""Tests for SparseShape and the random-sparsity generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import SparseShape, random_shape_with_density
from repro.tiling import Tiling, random_tiling


def small_grid():
    return Tiling.from_sizes([2, 3, 4]), Tiling.from_sizes([5, 1, 2, 3])


class TestSparseShape:
    def test_full_and_empty(self):
        r, c = small_grid()
        full = SparseShape.full(r, c)
        empty = SparseShape.empty(r, c)
        assert full.nnz_tiles == 12
        assert full.element_density == 1.0
        assert full.element_nnz == r.extent * c.extent
        assert empty.nnz_tiles == 0 and empty.element_density == 0.0

    def test_from_coo_and_has_tile(self):
        r, c = small_grid()
        s = SparseShape.from_coo(r, c, np.array([0, 2]), np.array([1, 3]))
        assert s.nnz_tiles == 2
        assert s.has_tile(0, 1) and s.has_tile(2, 3)
        assert not s.has_tile(1, 1)
        assert s.element_nnz == 2 * 1 + 4 * 3

    def test_mask_shape_validated(self):
        r, c = small_grid()
        with pytest.raises(ValueError):
            SparseShape(r, c, np.ones((2, 2)))

    def test_nonzero_tiles_row_major(self):
        r, c = small_grid()
        s = SparseShape.from_coo(r, c, np.array([2, 0, 0]), np.array([0, 3, 1]))
        ii, jj = s.nonzero_tiles()
        assert ii.tolist() == [0, 0, 2]
        assert jj.tolist() == [1, 3, 0]

    def test_intersect_union(self):
        r, c = small_grid()
        s1 = SparseShape.from_coo(r, c, np.array([0, 1]), np.array([0, 1]))
        s2 = SparseShape.from_coo(r, c, np.array([1, 2]), np.array([1, 2]))
        either = s1.union(s2)
        assert either.nnz_tiles == 3 and either.has_tile(1, 1)

    def test_restrict_rows_cols(self):
        r, c = small_grid()
        s = SparseShape.full(r, c)
        sub = s.restrict_rows(np.array([0, 2]))
        assert sub.ntile_rows == 2 and sub.rows.extent == 6

    def test_tile_bytes(self):
        r, c = small_grid()
        s = SparseShape.from_coo(r, c, np.array([2]), np.array([0]))
        tb = s.tile_bytes()
        assert tb[2, 0] == 4 * 5 * 8

    def test_eq(self):
        r, c = small_grid()
        a = SparseShape.from_coo(r, c, np.array([0]), np.array([0]))
        b = SparseShape.from_coo(r, c, np.array([0]), np.array([0]), norms=np.array([9.0]))
        assert a == b  # equality is occupancy-only
        assert a != SparseShape.empty(r, c)

    def test_pattern_strips_norms(self):
        r, c = small_grid()
        s = SparseShape.from_coo(r, c, np.array([0]), np.array([0]), norms=np.array([3.0]))
        assert s.pattern()[0, 0] == 1.0


class TestRandomSparsity:
    def test_density_close_above_target(self):
        rows = random_tiling(20_000, 200, 800, seed=0)
        cols = random_tiling(20_000, 200, 800, seed=1)
        for target in (0.75, 0.5, 0.25, 0.1):
            s = random_shape_with_density(rows, cols, target, seed=2)
            d = s.element_density
            assert d >= target - 1e-12
            # Within one max-tile of the target.
            max_tile_frac = (800 * 800) / (rows.extent * cols.extent)
            assert d <= target + max_tile_frac + 1e-12

    def test_full_density(self):
        r, c = small_grid()
        s = random_shape_with_density(r, c, 1.0, seed=0)
        assert s.nnz_tiles == s.ntile_rows * s.ntile_cols

    def test_deterministic(self):
        rows = random_tiling(5_000, 100, 400, seed=3)
        cols = random_tiling(5_000, 100, 400, seed=4)
        s1 = random_shape_with_density(rows, cols, 0.3, seed=9)
        s2 = random_shape_with_density(rows, cols, 0.3, seed=9)
        assert s1 == s2

    def test_invalid_density(self):
        r, c = small_grid()
        with pytest.raises(ValueError):
            random_shape_with_density(r, c, 0.0)
        with pytest.raises(ValueError):
            random_shape_with_density(r, c, 1.5)

    def test_never_empty(self):
        # Even with a density so low every tile would be removed.
        r = Tiling.from_sizes([10])
        c = Tiling.from_sizes([10])
        s = random_shape_with_density(r, c, 0.001, seed=0)
        assert s.nnz_tiles >= 1

    @settings(max_examples=20)
    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_property_density_above_target(self, target, seed):
        rows = Tiling.uniform(1000, 100)
        cols = Tiling.uniform(1000, 100)
        s = random_shape_with_density(rows, cols, target, seed=seed)
        assert s.element_density >= target - 1e-12
