"""Tests for process grids and data ownership."""

import numpy as np
import pytest

from repro.core import ProcessGrid, make_grid
from repro.machine import summit


class TestProcessGrid:
    def test_coords_rank_roundtrip(self):
        g = ProcessGrid(p=2, q=3, gpus_per_proc=6)
        assert g.nprocs == 6
        for r in range(6):
            row, col = g.coords(r)
            assert g.rank(row, col) == r

    def test_bounds_checked(self):
        g = ProcessGrid(p=2, q=3, gpus_per_proc=6)
        with pytest.raises(ValueError):
            g.coords(6)
        with pytest.raises(ValueError):
            g.rank(2, 0)

    def test_row_ranks(self):
        g = ProcessGrid(p=2, q=3, gpus_per_proc=1)
        # Row-major: grid row r holds ranks r*q ... r*q + q-1.
        assert [g.rank(0, l) for l in range(3)] == [0, 1, 2]
        assert [g.rank(1, l) for l in range(3)] == [3, 4, 5]

    def test_slice_tile_rows_partition(self):
        g = ProcessGrid(p=3, q=2, gpus_per_proc=1)
        rows = [g.slice_tile_rows(r, 10) for r in range(3)]
        merged = np.sort(np.concatenate(rows))
        assert np.array_equal(merged, np.arange(10))
        # Each slice is i mod p == r.
        for r, sl in enumerate(rows):
            assert np.all(sl % 3 == r)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessGrid(p=0, q=1, gpus_per_proc=1)
        with pytest.raises(ValueError):
            ProcessGrid(p=1, q=1, gpus_per_proc=0)


class TestMakeGrid:
    def test_default_one_proc_per_node(self):
        g = make_grid(summit(4))
        assert g.nprocs == 4 and g.gpus_per_proc == 6
        assert g.p == 1 and g.q == 4
        assert g.procs_per_node == 1

    def test_three_gpu_procs(self):
        g = make_grid(summit(16), gpus_per_proc=3)
        assert g.nprocs == 32 and g.procs_per_node == 2

    def test_grid_rows(self):
        g = make_grid(summit(8), p=2)
        assert (g.p, g.q) == (2, 4)

    def test_q_floor(self):
        # 6 processes, p = 4 -> q = 1 (pq <= P as the paper specifies).
        g = make_grid(summit(6), p=4)
        assert (g.p, g.q) == (4, 1)

    def test_p_too_large(self):
        with pytest.raises(ValueError):
            make_grid(summit(2), p=3)

    def test_gpus_per_proc_must_divide(self):
        with pytest.raises(ValueError):
            make_grid(summit(2), gpus_per_proc=4)
