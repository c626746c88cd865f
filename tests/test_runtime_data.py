"""Tests for tile sources and the GPU memory manager."""

import numpy as np
import pytest

from repro.runtime import GeneratedCollection, GpuMemory, GpuMemoryError, MatrixSource
from repro.sparse import SparseShape, random_block_sparse
from repro.sparse.construct import from_shape
from repro.tiling import Tiling


def shape():
    r = Tiling.from_sizes([2, 3])
    c = Tiling.from_sizes([4, 1, 2])
    return SparseShape.from_coo(r, c, np.array([0, 1, 1]), np.array([0, 1, 2]))


class TestGeneratedCollection:
    def test_structural_zero_raises(self):
        g = GeneratedCollection(shape(), seed=0)
        assert g.has_tile(0, 0)
        assert not g.has_tile(0, 1)
        with pytest.raises(KeyError):
            g.tile(0, 0, 1)

    def test_instantiated_at_most_once_per_proc(self):
        g = GeneratedCollection(shape(), seed=0)
        t1 = g.tile(0, 0, 0)
        t2 = g.tile(0, 0, 0)
        assert t1 is t2
        assert g.max_instantiations_per_proc_tile() == 1
        g.tile(1, 0, 0)  # another process: its own instantiation
        assert g.generated_tiles() == 2
        assert g.generated_tiles(proc=0) == 1

    def test_eviction_then_regeneration_same_values(self):
        g = GeneratedCollection(shape(), seed=3)
        before = g.tile(0, 1, 2).copy()
        g.evict(0, 1, 2)
        after = g.tile(0, 1, 2)
        assert np.allclose(before, after)

    def test_values_order_independent(self):
        g1 = GeneratedCollection(shape(), seed=7)
        g2 = GeneratedCollection(shape(), seed=7)
        a1 = g1.tile(0, 0, 0)
        g2.tile(0, 1, 1)  # different first touch
        a2 = g2.tile(0, 0, 0)
        assert np.allclose(a1, a2)

    def test_matches_from_shape_materialization(self):
        s = shape()
        g = GeneratedCollection(s, seed=11)
        mat = from_shape(s, fill="random", seed=11)
        assert np.allclose(g.tile(0, 1, 1), mat.get_tile(1, 1))
        assert g.as_matrix().allclose(mat)

    def test_ones_fill_and_bytes(self):
        g = GeneratedCollection(shape(), fill="ones")
        assert np.all(g.tile(0, 0, 0) == 1.0)
        assert g.tile_shape(1, 2) == (3, 2)


class TestMatrixSource:
    def test_counts_accesses(self):
        m = random_block_sparse(Tiling.uniform(40, 10), Tiling.uniform(40, 10), 1.0, seed=0)
        src = MatrixSource(m)
        src.tile(0, 1, 1)
        src.tile(0, 1, 1)
        assert src.access_counts[(0, 1, 1)] == 2
        assert src.has_tile(1, 1)


class TestGpuMemory:
    def test_reserve_release_cycle(self):
        mem = GpuMemory(100)
        mem.reserve("block", 60)
        assert mem.free == 40
        mem.reserve("chunk", 40)
        assert mem.peak == 100
        mem.release("chunk")
        assert mem.free == 40
        mem.release("block")
        assert mem.free == 100 and mem.peak == 100

    def test_overflow_raises(self):
        mem = GpuMemory(100)
        mem.reserve("a", 80)
        with pytest.raises(GpuMemoryError):
            mem.reserve("b", 30)
        # Failed reservation leaves state unchanged.
        assert mem.free == 20

    def test_duplicate_name_raises(self):
        mem = GpuMemory(100)
        mem.reserve("a", 10)
        with pytest.raises(GpuMemoryError):
            mem.reserve("a", 10)

    def test_release_unknown_raises(self):
        mem = GpuMemory(100)
        with pytest.raises(GpuMemoryError):
            mem.release("nope")

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            GpuMemory(0)
        mem = GpuMemory(10)
        with pytest.raises(ValueError):
            mem.reserve("neg", -1)
