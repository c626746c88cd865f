"""Tests for the grid-rows autotuner and the communication model."""

import pytest

from repro.core import (
    communication_volumes,
    inspect,
    tune_grid_rows,
)
from repro.core.autotune import replication_feasible
from repro.machine import summit
from repro.machine.spec import MachineSpec, NodeSpec
from repro.sparse import random_shape_with_density
from repro.tiling import random_tiling


def instance(seed=0, m=900, nk=6000, density=0.5):
    rows = random_tiling(m, 50, 200, seed=seed)
    inner = random_tiling(nk, 50, 200, seed=seed + 1)
    a = random_shape_with_density(rows, inner, density, seed=seed + 2)
    b = random_shape_with_density(inner, inner, density, seed=seed + 3)
    return a, b


class TestAutotune:
    def test_returns_best_feasible(self):
        a, b = instance()
        result = tune_grid_rows(a, b, summit(4), candidates=[1, 2, 4])
        assert result.best_p in (1, 2, 4)
        best = result.best_report.makespan
        assert all(best <= r.makespan for r in result.reports.values())

    def test_infeasible_p_reported(self):
        a, b = instance()
        result = tune_grid_rows(a, b, summit(2), candidates=[1, 64])
        assert 64 in result.infeasible
        assert 1 in result.reports

    def test_p_capped_by_tile_rows(self):
        a, b = instance(m=200)  # very few tile rows
        nrows = a.ntile_rows
        result = tune_grid_rows(a, b, summit(4), candidates=[1, nrows + 1])
        assert nrows + 1 in result.infeasible

    def test_all_infeasible_raises(self):
        a, b = instance()
        with pytest.raises(ValueError):
            tune_grid_rows(a, b, summit(2), candidates=[1000])

    def test_replication_feasibility(self):
        a, b = instance()
        tiny = MachineSpec(nnodes=1, node=NodeSpec(host_memory_bytes=b.nbytes // 2))
        assert not replication_feasible(b, tiny, p=1)
        assert replication_feasible(b, summit(1), p=4)


class TestCommModel:
    def test_report_totals(self):
        a, b = instance(seed=5)
        plan = inspect(a, b, summit(4), p=1)
        rep = communication_volumes(plan)
        assert rep.total_a == sum(p.a_recv_bytes for p in plan.procs)
        assert rep.total_b_generated == b.nbytes
        assert "A moved" in rep.summary()

    def test_single_proc_no_network(self):
        a, b = instance(seed=7)
        plan = inspect(a, b, summit(1), p=1)
        rep = communication_volumes(plan)
        assert rep.total_a == 0
        assert rep.total_c == 0

    def test_send_injection_bounded_by_owned(self):
        # Broadcast-injection semantics: an owner sends each tile once, so
        # its send volume is at most A's total bytes.
        a, b = instance(seed=8)
        plan = inspect(a, b, summit(4), p=1)
        for p in plan.procs:
            assert p.a_send_bytes <= a.nbytes
