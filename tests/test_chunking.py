"""Tests for chunk segmentation (3.2.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunking import cyclic_tile_order, split_by_budget


class TestCyclicOrder:
    def test_one_per_row_rounds(self):
        # Rows: 0 has tiles a,b ; 1 has c ; 2 has d,e,f.
        rows = np.array([0, 0, 1, 2, 2, 2])
        cols = np.array([5, 9, 1, 2, 4, 8])
        order = cyclic_tile_order(rows, cols)
        emitted = list(zip(rows[order], cols[order]))
        # Round 0: first tile of each row (by column); round 1: second ...
        assert emitted == [(0, 5), (1, 1), (2, 2), (0, 9), (2, 4), (2, 8)]

    def test_permutation(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 20, 200)
        cols = rng.integers(0, 50, 200)
        order = cyclic_tile_order(rows, cols)
        assert sorted(order.tolist()) == list(range(200))

    def test_empty(self):
        assert cyclic_tile_order(np.array([]), np.array([])).size == 0

    def test_single_row_keeps_column_order(self):
        rows = np.zeros(5, dtype=int)
        cols = np.array([4, 2, 0, 3, 1])
        order = cyclic_tile_order(rows, cols)
        assert cols[order].tolist() == [0, 1, 2, 3, 4]

    @settings(max_examples=30)
    @given(st.integers(1, 10), st.integers(1, 40), st.integers(0, 1000))
    def test_property_round_structure(self, nrows, ntiles, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, nrows, ntiles)
        cols = rng.integers(0, 1000, ntiles)
        order = cyclic_tile_order(rows, cols)
        r_emit = rows[order]
        # Within the emission, occurrences of each row appear in strictly
        # increasing column order.
        c_emit = cols[order]
        for r in range(nrows):
            cs = c_emit[r_emit == r]
            assert np.all(np.diff(np.sort(cs)) >= 0)
        # Round-robin structure: the k-th visit of any row happens before
        # the (k+1)-th visit of every row, i.e. per-tile visit ranks are
        # non-decreasing along the emission order.
        seen: dict[int, int] = {}
        visit_rank = []
        for r in r_emit.tolist():
            seen[r] = seen.get(r, 0) + 1
            visit_rank.append(seen[r])
        assert visit_rank == sorted(visit_rank)


class TestSplitByBudget:
    def test_basic_split(self):
        sizes = np.array([4, 4, 4, 4])
        segs = split_by_budget(sizes, 8)
        assert segs == [slice(0, 2), slice(2, 4)]

    def test_oversized_single_item(self):
        sizes = np.array([3, 20, 3])
        segs = split_by_budget(sizes, 8)
        assert segs == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_everything_fits(self):
        segs = split_by_budget(np.array([1, 2, 3]), 100)
        assert segs == [slice(0, 3)]

    def test_empty(self):
        assert split_by_budget(np.array([], dtype=int), 10) == []

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            split_by_budget(np.array([1]), 0)

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(min_value=1, max_value=100), min_size=0, max_size=100),
        st.integers(min_value=1, max_value=150),
    )
    def test_property_cover_and_budget(self, sizes, budget):
        sizes = np.array(sizes, dtype=int)
        segs = split_by_budget(sizes, budget)
        # Segments tile [0, n) contiguously.
        pos = 0
        for s in segs:
            assert s.start == pos
            pos = s.stop
            seg_sum = int(sizes[s].sum())
            assert seg_sum <= budget or (s.stop - s.start) == 1
        assert pos == sizes.size
        # Greedy maximality: a segment (except a final/oversized one) could
        # not absorb the next element.
        for i, s in enumerate(segs[:-1]):
            nxt = int(sizes[segs[i + 1].start])
            assert int(sizes[s].sum()) + nxt > budget
