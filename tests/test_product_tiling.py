"""Tests for fused-index (matricized) tilings."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.tiling import Tiling, fuse
from repro.tiling.product import fuse_centers, fuse_radii
from repro.tiling.stats import TileSizeStats


class TestFuse:
    def test_sizes_outer_product(self):
        a = Tiling.from_sizes([2, 3])
        b = Tiling.from_sizes([5, 7, 11])
        f = fuse(a, b)
        assert f.ntiles == 6
        assert list(f.tiling.sizes) == [10, 14, 22, 15, 21, 33]
        assert f.tiling.extent == a.extent * b.extent

    def test_fused_pair_roundtrip(self):
        a = Tiling.from_sizes([2, 3, 4])
        b = Tiling.from_sizes([5, 7])
        f = fuse(a, b)
        for t1 in range(3):
            for t2 in range(2):
                t = f.fused_index(t1, t2)
                assert f.pair_index(t) == (t1, t2)
                assert f.tiling.tile_size(t) == a.tile_size(t1) * b.tile_size(t2)

    def test_vectorized_index_maps(self):
        f = fuse(Tiling.from_sizes([1, 2]), Tiling.from_sizes([3, 4, 5]))
        t1 = np.array([0, 1, 1])
        t2 = np.array([2, 0, 1])
        t = f.fused_index(t1, t2)
        back1, back2 = f.pair_index(t)
        assert np.array_equal(back1, t1)
        assert np.array_equal(back2, t2)

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=6),
        st.lists(st.integers(1, 9), min_size=1, max_size=6),
    )
    def test_property_extent_product(self, s1, s2):
        f = fuse(Tiling.from_sizes(s1), Tiling.from_sizes(s2))
        assert f.tiling.extent == sum(s1) * sum(s2)
        assert f.ntiles == len(s1) * len(s2)


class TestFusedGeometry:
    def test_fuse_centers_midpoints(self):
        c1 = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        c2 = np.array([[0.0, 2, 0]])
        out = fuse_centers(c1, c2)
        assert out.shape == (2, 3)
        assert np.allclose(out[0], [0, 1, 0])
        assert np.allclose(out[1], [1, 1, 0])

    def test_fuse_radii_covers_both(self):
        c1 = np.array([[0.0, 0, 0]])
        c2 = np.array([[4.0, 0, 0]])
        r = fuse_radii(c1, np.array([1.0]), c2, np.array([0.5]))
        # midpoint at x=2; cluster 1 extends to x=-1 -> radius >= 3
        assert r[0] >= 3.0


class TestStats:
    def test_tile_size_stats(self):
        t = Tiling.from_sizes([10, 20, 30])
        s = TileSizeStats.from_sample(t.sizes)
        assert s.count == 3
        assert s.mean == 20
        assert s.minimum == 10 and s.maximum == 30
        assert s.median == 20

    def test_stats_row_formatting(self):
        s = TileSizeStats.from_sample(np.array([1.0, 2.0, 3.0]))
        assert "n=" in s.row() and "med=" in s.row()
