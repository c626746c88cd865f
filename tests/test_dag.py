"""Tests for the plan -> two-DAG task-graph expansion."""

import numpy as np
import pytest

from repro.core import inspect
from repro.core.analytic import simulate
from repro.machine import summit
from repro.runtime.dag import build_task_graph, simulate_des
from repro.sparse import gemm_task_count, random_shape_with_density
from repro.tiling import random_tiling


def instance(seed=0, m=600, nk=3000, density=0.5):
    rows = random_tiling(m, 40, 160, seed=seed)
    inner = random_tiling(nk, 40, 160, seed=seed + 1)
    a = random_shape_with_density(rows, inner, density, seed=seed + 2)
    b = random_shape_with_density(inner, inner, density, seed=seed + 3)
    return a, b


class TestBuildTaskGraph:
    def test_chunk_granularity_counts(self):
        # Shrink the GPU so the plan has many blocks and chunks (and thus
        # control edges) at test scale.
        from dataclasses import replace

        a, b = instance()
        mach = summit(1)
        mach = replace(mach, gpu=replace(mach.gpu, memory_bytes=4 * 2**20))
        plan = inspect(a, b, mach)
        assert plan.total_blocks > plan.grid.nprocs * plan.grid.gpus_per_proc  # multiple per GPU
        graph = build_task_graph(plan, mach, granularity="chunk")
        # Tasks: recv per proc + (gen + load_bc + store_c) per block +
        # (load_a + gemm) per chunk.
        expect = (
            plan.grid.nprocs
            + 3 * plan.total_blocks
            + 2 * plan.total_chunks
        )
        assert graph.ntasks == expect
        assert graph.control_edges > 0
        assert graph.dataflow_edges > graph.control_edges

    def test_task_granularity_emits_every_gemm(self):
        a, b = instance(m=300, nk=900)
        plan = inspect(a, b, summit(1), gpus_per_proc=3)
        graph = build_task_graph(plan, summit(1), granularity="task")
        n_gemms = gemm_task_count(a, b)
        non_gemm = plan.grid.nprocs + 3 * plan.total_blocks + plan.total_chunks
        assert graph.ntasks == non_gemm + n_gemms

    def test_graph_runs_acyclically(self):
        a, b = instance(seed=5)
        plan = inspect(a, b, summit(2), p=2, gpus_per_proc=3)
        trace, makespan = simulate_des(plan, summit(2))
        assert makespan > 0
        assert len(trace.events) == build_task_graph(plan, summit(2)).ntasks

    def test_invalid_granularity(self):
        a, b = instance()
        plan = inspect(a, b, summit(1))
        with pytest.raises(ValueError):
            build_task_graph(plan, summit(1), granularity="nope")


class TestCrossValidation:
    """The DES and the coarse model are two executors of the same plan;
    they must agree within the fidelity gap of the coarse model."""

    @pytest.mark.parametrize("seed,density", [(1, 1.0), (2, 0.5), (3, 0.2)])
    def test_des_vs_analytic_band(self, seed, density):
        a, b = instance(seed=seed, density=density, m=800, nk=5000)
        plan = inspect(a, b, summit(2), p=1, gpus_per_proc=3)
        _, des_time = simulate_des(plan, summit(2))
        coarse = simulate(plan, summit(2), overlap_rho=0.25).makespan
        assert 0.4 < des_time / coarse < 2.5, (des_time, coarse)

    def test_des_task_vs_chunk_granularity_agree(self):
        a, b = instance(seed=4, m=300, nk=1200)
        plan = inspect(a, b, summit(1), gpus_per_proc=2)
        _, t_chunk = simulate_des(plan, summit(1), granularity="chunk")
        _, t_task = simulate_des(plan, summit(1), granularity="task")
        # Same work, different aggregation; per-task launch overheads are
        # identical so the two should track closely.
        assert 0.5 < t_task / t_chunk < 2.0

    def test_des_monotone_in_nodes(self):
        a, b = instance(seed=6, m=1200, nk=8000)
        times = []
        for n in (1, 2):
            plan = inspect(a, b, summit(n), p=1)
            _, t = simulate_des(plan, summit(n))
            times.append(t)
        assert times[1] < times[0]

    def test_makespan_bounded_below_by_link_serialization(self):
        # The control chain serializes each GPU's link activity, so the
        # makespan is at least the busiest link's total transfer time.
        a, b = instance(seed=7)
        plan = inspect(a, b, summit(1), gpus_per_proc=1)
        graph = build_task_graph(plan, summit(1))
        trace = graph.engine.run()
        link_resources = {
            ev.resource for ev in trace.events if ev.resource.endswith(".link")
        }
        util = trace.utilization()
        assert max(util[r] for r in link_resources) <= 1.0 + 1e-12
