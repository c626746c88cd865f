"""Tests for tile sources and the GPU memory manager."""

import numpy as np
import pytest

from repro.runtime import BService, ConcreteBSource, GeneratedCollection, GpuMemory, GpuMemoryError
from repro.serve import WarmTileCache
from repro.sparse import SparseShape, random_block_sparse
from repro.sparse.construct import from_shape
from repro.store import TileStore
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
            g.generate_tile(0, 1)

    def test_instantiated_at_most_once_per_proc(self):
        g = GeneratedCollection(shape(), seed=0)
        rank0 = BService(g, budget_bytes=1 << 20)
        t1 = rank0.tile(0, 0, 0)
        t2 = rank0.tile(0, 0, 0)
        assert t1 is t2
        assert rank0.max_instantiations() == 1 and rank0.generated_tiles() == 1
        rank1 = BService(g, budget_bytes=1 << 20)  # another process: its own
        assert np.array_equal(rank1.tile(1, 0, 0), t1) and rank1.tile(1, 0, 0) is not t1
        assert rank0.generated_tiles() + rank1.generated_tiles() == 2

    def test_eviction_then_regeneration_same_values(self):
        svc = BService(GeneratedCollection(shape(), seed=3), budget_bytes=1 << 20)
        before = svc.tile(0, 1, 2)
        svc.evict(0, 1, 2)
        after = svc.tile(0, 1, 2)
        assert after is not before and np.array_equal(before, after)
        assert svc.generated_tiles() == 2

    def test_values_order_independent(self):
        g1 = GeneratedCollection(shape(), seed=7)
        g2 = GeneratedCollection(shape(), seed=7)
        a1 = g1.generate_tile(0, 0)
        g2.generate_tile(1, 1)  # different first touch
        a2 = g2.generate_tile(0, 0)
        assert np.array_equal(a1, a2)

    def test_matches_from_shape_materialization(self):
        s = shape()
        g = GeneratedCollection(s, seed=11)
        mat = from_shape(s, fill="random", seed=11)
        assert np.allclose(g.generate_tile(1, 1), mat.get_tile(1, 1))
        assert g.as_matrix().allclose(mat)

    def test_ones_fill_and_bytes(self):
        g = GeneratedCollection(shape(), fill="ones")
        assert np.all(g.generate_tile(0, 0) == 1.0)
        assert g.tile_shape(1, 2) == (3, 2)


class TestBServiceTiers:
    """The one copy rule: generated tiles are shared, disk hits copied once."""

    def test_generated_tile_is_shared_with_the_warm_cache(self):
        warm = WarmTileCache(1 << 20)
        svc = BService(GeneratedCollection(shape(), seed=5), 1 << 20, warm=warm, ns="b:x")
        tile = svc.tile(0, 1, 2)
        assert warm.get("b:x", (1, 2)) is tile
        assert not tile.flags.writeable
        # The next job's service over the same operand is served from memory.
        again = BService(GeneratedCollection(shape(), seed=5), 1 << 20, warm=warm, ns="b:x")
        assert again.tile(0, 1, 2) is tile
        assert (again.store_hits, again.generated_tiles()) == (1, 1)

    def test_disk_hit_is_promoted_as_a_private_copy(self, tmp_path):
        g = GeneratedCollection(shape(), seed=5)
        expect = g.generate_tile(1, 2)
        store = TileStore(str(tmp_path))
        BService(g, 1 << 20, store=store, ns="b:x").tile(0, 1, 2)  # writes it back
        warm = WarmTileCache(1 << 20)
        svc = BService(g, 1 << 20, warm=warm, store=store, ns="b:x")
        tile = svc.tile(0, 1, 2)
        assert svc.store_hits == 1 and warm.get("b:x", (1, 2)) is tile
        assert tile.flags.owndata and not tile.flags.writeable
        store.close()
        assert np.array_equal(tile, expect)


class TestConcreteBSource:
    def test_counts_distinct_pulls(self):
        m = random_block_sparse(Tiling.uniform(40, 10), Tiling.uniform(40, 10), 1.0, seed=0)
        src = ConcreteBSource(m)
        assert src.tile(0, 1, 1) is m.get_tile(1, 1)  # read in place
        src.tile(0, 1, 1)
        src.evict(0, 1, 1)
        assert (src.generated_tiles(), src.hits, src.max_instantiations()) == (1, 1, 1)


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
