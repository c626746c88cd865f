"""Edge-case and error-path tests across modules."""

import numpy as np
import pytest

from repro.runtime import BService, GeneratedCollection
from repro.sparse import SparseShape
from repro.tiling import Tiling


class TestTilingEdges:
    def test_single_element_range(self):
        t = Tiling.from_sizes([1])
        assert t.extent == 1 and t.tile_slice(0) == slice(0, 1)

    def test_restrict_empty_selection(self):
        t = Tiling.from_sizes([2, 3])
        with pytest.raises(ValueError):
            t.restrict([])

    def test_restrict_out_of_bounds(self):
        t = Tiling.from_sizes([2, 3])
        with pytest.raises(IndexError):
            t.restrict([5])


class TestShapeEdges:
    def test_single_tile_shape(self):
        t = Tiling.from_sizes([7])
        s = SparseShape.full(t, t)
        assert s.nnz_tiles == 1
        assert s.element_nnz == 49

    def test_empty_shape_queries(self):
        t = Tiling.from_sizes([3, 4])
        s = SparseShape.empty(t, t)
        ii, jj = s.nonzero_tiles()
        assert ii.size == jj.size == 0
        assert s.element_nnz == 0

    def test_shape_not_hashable(self):
        t = Tiling.from_sizes([2])
        with pytest.raises(TypeError):
            hash(SparseShape.full(t, t))

    def test_intersect_grid_mismatch(self):
        a = SparseShape.full(Tiling.from_sizes([2]), Tiling.from_sizes([2]))
        b = SparseShape.full(Tiling.from_sizes([3]), Tiling.from_sizes([3]))
        with pytest.raises(ValueError):
            a.union(b)


class TestGeneratedCollectionEdges:
    def test_unknown_fill_rejected(self):
        t = Tiling.from_sizes([2])
        shape = SparseShape.full(t, t)
        with pytest.raises(ValueError, match="fill"):
            GeneratedCollection(shape, fill="bogus")

    def test_evict_unknown_is_noop(self):
        t = Tiling.from_sizes([2])
        svc = BService(GeneratedCollection(SparseShape.full(t, t), seed=0), 1 << 10)
        svc.evict(0, 0, 0)  # never materialized; must not raise


class TestFormattingEdges:
    def test_fmt_negative_bytes(self):
        from repro.util import fmt_bytes

        assert "MiB" in fmt_bytes(-3 * 2**20)

    def test_fmt_zero(self):
        from repro.util import fmt_count, fmt_flops, fmt_rate

        assert fmt_count(0) == "0"
        assert fmt_flops(0) == "0 flop"
        assert fmt_rate(0) == "0 flop/s"
