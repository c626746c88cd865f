"""Unit + property tests for repro.tiling.Tiling and random tilings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tiling import Tiling, random_tiling


class TestTiling:
    def test_from_sizes(self):
        t = Tiling.from_sizes([3, 5, 2])
        assert t.extent == 10
        assert t.ntiles == 3
        assert list(t.sizes) == [3, 5, 2]
        assert t.tile_size(1) == 5
        assert t.tile_slice(1) == slice(3, 8)

    def test_uniform(self):
        t = Tiling.uniform(10, 4)
        assert list(t.sizes) == [4, 4, 2]
        assert t.extent == 10

    def test_uniform_exact(self):
        t = Tiling.uniform(12, 4)
        assert list(t.sizes) == [4, 4, 4]

    def test_single(self):
        t = Tiling.from_sizes([100])
        assert t.ntiles == 1 and t.extent == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            Tiling([1, 2])  # must start at 0
        with pytest.raises(ValueError):
            Tiling([0, 2, 2])  # empty tile
        with pytest.raises(ValueError):
            Tiling([0])  # too short

    def test_restrict(self):
        t = Tiling.from_sizes([3, 5, 2, 7])
        r = t.restrict([1, 3])
        assert list(r.sizes) == [5, 7]

    def test_eq_hash(self):
        a = Tiling.from_sizes([3, 5])
        b = Tiling.from_sizes([3, 5])
        c = Tiling.from_sizes([5, 3])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_iter_covers_range(self):
        t = Tiling.from_sizes([3, 5, 2])
        covered = np.zeros(10, dtype=bool)
        for sl in t:
            covered[sl] = True
        assert covered.all()

    def test_offsets_readonly(self):
        t = Tiling.from_sizes([3, 5])
        with pytest.raises(ValueError):
            t.offsets[0] = 1

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30))
    def test_property_sizes_roundtrip(self, sizes):
        t = Tiling.from_sizes(sizes)
        assert list(t.sizes) == sizes
        assert t.extent == sum(sizes)


class TestRandomTiling:
    def test_extent_and_bounds(self):
        t = random_tiling(48_000, 512, 2048, seed=0)
        assert t.extent == 48_000
        # Every tile within [lo, lo + hi) after the sliver merge.
        assert t.sizes.min() >= 512
        assert t.sizes.max() < 512 + 2048

    def test_deterministic(self):
        t1 = random_tiling(10_000, 100, 400, seed=5)
        t2 = random_tiling(10_000, 100, 400, seed=5)
        assert t1 == t2

    def test_small_extent(self):
        t = random_tiling(600, 512, 2048, seed=1)
        assert t.extent == 600
        assert t.ntiles == 1

    def test_rejects_tiny_extent(self):
        with pytest.raises(ValueError):
            random_tiling(100, 512, 2048)

    @settings(max_examples=25)
    @given(
        st.integers(min_value=1_000, max_value=100_000),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_covers_extent(self, extent, seed):
        t = random_tiling(extent, 100, 400, seed=seed)
        assert t.extent == extent
        assert (t.sizes >= 100).all()
