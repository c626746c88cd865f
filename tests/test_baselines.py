"""Tests for the libDBCSR and CPU baselines."""

import pytest

from repro.baselines import dbcsr_simulate, mpqc_cpu_time
from repro.baselines.cpu_mpqc import PAPER_MEASURED
from repro.baselines.dbcsr import _factor_grids
from repro.core import psgemm_simulate
from repro.machine import summit
from repro.sparse import random_shape_with_density
from repro.tiling import random_tiling


def instance(nk, density=1.0, m=48_000, seed=0):
    rows = random_tiling(m, 512, 2048, seed=seed)
    inner = random_tiling(nk, 512, 2048, seed=seed + 1)
    a = random_shape_with_density(rows, inner, density, seed=seed + 2)
    b = random_shape_with_density(inner, inner, density, seed=seed + 3)
    return a, b


class TestDbcsr:
    def test_factor_grids(self):
        grids = _factor_grids(12)
        assert (3, 4) in grids and (1, 12) in grids and (12, 1) in grids
        assert all(pr * pc == 12 for pr, pc in grids)

    def test_feasible_small_dense(self):
        a, b = instance(48_000)
        rep = dbcsr_simulate(a, b, summit(16))
        assert rep.feasible
        assert rep.perf > 0
        assert rep.grid[0] * rep.grid[1] == 96
        assert "Tflop/s" in rep.summary() or "Gflop/s" in rep.summary()

    def test_oom_large_dense(self):
        # The paper: dense (48k, >=192k, >=192k) fails to allocate.
        a, b = instance(240_000)
        rep = dbcsr_simulate(a, b, summit(16))
        assert not rep.feasible
        assert rep.working_set_bytes > 0
        assert "OOM" in rep.summary()

    def test_sparsity_restores_feasibility(self):
        a, b = instance(240_000, density=0.1, seed=5)
        rep = dbcsr_simulate(a, b, summit(16))
        assert rep.feasible

    def test_fixed_grid(self):
        a, b = instance(48_000)
        rep = dbcsr_simulate(a, b, summit(16), grid=(4, 24))
        assert rep.grid == (4, 24)

    def test_parsec_wins(self):
        # The paper's headline comparison, at the square dense anchor.
        a, b = instance(48_000)
        machine = summit(16)
        db = dbcsr_simulate(a, b, machine)
        _, rep = psgemm_simulate(a, b, machine, p=2, gpus_per_proc=3)
        assert rep.perf > db.perf

    def test_square_dense_anchor_band(self):
        # Paper: libDBCSR reaches 109 Tflop/s on dense 48k^3.
        a, b = instance(48_000)
        rep = dbcsr_simulate(a, b, summit(16))
        assert 50e12 < rep.perf < 200e12

    def test_nonconforming(self):
        a, _ = instance(48_000)
        _, b = instance(96_000, seed=9)
        with pytest.raises(ValueError):
            dbcsr_simulate(a, b, summit(1))


class TestCpuBaseline:
    def test_anchor_times(self):
        flops = 877e12  # the paper's v1 count
        for nodes, measured in PAPER_MEASURED.items():
            assert mpqc_cpu_time(flops, nodes) == pytest.approx(measured, rel=0.25)

    def test_scaling(self):
        assert mpqc_cpu_time(1e15, 16) < mpqc_cpu_time(1e15, 8)
