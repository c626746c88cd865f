"""Tests for the coarse performance model."""

import numpy as np
import pytest

from repro.core import inspect, psgemm_simulate
from repro.core.analytic import SimReport, _gpu_time, _overlap, simulate
from repro.core.plan import Block, Chunk
from repro.machine import summit
from repro.machine.links import LinkModel
from repro.sparse import random_shape_with_density
from repro.tiling import random_tiling


def instance(density=0.5, seed=0, m=900, nk=6000):
    rows = random_tiling(m, 50, 200, seed=seed)
    inner = random_tiling(nk, 50, 200, seed=seed + 1)
    a = random_shape_with_density(rows, inner, density, seed=seed + 2)
    b = random_shape_with_density(inner, inner, density, seed=seed + 3)
    return a, b


class TestOverlap:
    def test_perfect_overlap(self):
        assert _overlap([3.0, 1.0, 2.0], 0.0) == 3.0

    def test_full_serialization(self):
        assert _overlap([3.0, 1.0, 2.0], 1.0) == 6.0

    def test_partial(self):
        assert _overlap([4.0, 2.0], 0.25) == pytest.approx(4.5)

    def test_empty(self):
        assert _overlap([], 0.5) == 0.0


class TestGpuTime:
    def _chunk(self, nbytes, dev_s, ntasks=1, ntiles=1):
        return Chunk(
            a_rows=np.zeros(ntiles, dtype=np.int64),
            a_cols=np.arange(ntiles, dtype=np.int64),
            a_bytes=nbytes,
            ntasks=ntasks,
            flops=1.0,
            device_seconds=dev_s,
        )

    def _block(self, chunks, b_bytes=0, c_bytes=0):
        return Block(
            gpu=0,
            columns=np.array([0]),
            b_bytes=b_bytes,
            c_bytes=c_bytes,
            b_tile_count=1 if b_bytes else 0,
            c_tile_count=1 if c_bytes else 0,
            k_tiles=np.array([0]),
            chunks=chunks,
        )

    def test_double_buffer_pipeline(self):
        # Two chunks, compute 1 s each, loads 0.5 s each: pipeline is
        # load0 + max(comp0, load1) + comp1 = 0.5 + 1 + 1 = 2.5 s.
        link = LinkModel(bandwidth=10e9, latency=0.0)
        chunks = [self._chunk(int(5e9), 1.0), self._chunk(int(5e9), 1.0)]
        t = _gpu_time([self._block(chunks)], link, launch_s=0.0)
        assert t == pytest.approx(2.5)

    def test_transfer_bound_pipeline(self):
        # Loads 2 s, compute 0.1 s: t = 2 + max(0.1, 2) + 0.1 = 4.1 s.
        link = LinkModel(bandwidth=1e9, latency=0.0)
        chunks = [self._chunk(int(2e9), 0.1), self._chunk(int(2e9), 0.1)]
        t = _gpu_time([self._block(chunks)], link, launch_s=0.0)
        assert t == pytest.approx(4.1)

    def test_block_load_and_writeback_serialize(self):
        link = LinkModel(bandwidth=1e9, latency=0.0)
        blk = self._block([self._chunk(int(1e9), 0.0)], b_bytes=int(1e9), c_bytes=int(1e9))
        t = _gpu_time([blk], link, launch_s=0.0)
        assert t == pytest.approx(3.0)

    def test_empty_blocks(self):
        link = LinkModel(bandwidth=1e9)
        assert _gpu_time([], link, 0.0) == 0.0


class TestSimulate:
    def test_report_fields(self):
        a, b = instance()
        plan, rep = psgemm_simulate(a, b, summit(2), p=1)
        assert isinstance(rep, SimReport)
        assert rep.makespan > 0
        assert rep.perf == pytest.approx(rep.flops / rep.makespan)
        assert len(rep.nodes) == 2
        assert "Tflop/s" in rep.summary() or "Gflop/s" in rep.summary()

    def test_more_nodes_never_slower(self):
        a, b = instance(seed=5, m=2000, nk=20_000)
        t = []
        for n in (1, 2, 4):
            _, rep = psgemm_simulate(a, b, summit(n), p=1)
            t.append(rep.makespan)
        assert t[0] > t[1] > t[2]

    def test_perfect_overlap_lower_bound(self):
        a, b = instance(seed=6)
        plan = inspect(a, b, summit(2), p=1)
        lo = simulate(plan, summit(2), overlap_rho=0.0).makespan
        hi = simulate(plan, summit(2), overlap_rho=1.0).makespan
        mid = simulate(plan, summit(2), overlap_rho=0.25).makespan
        assert lo <= mid <= hi

    def test_denser_problem_more_flops_and_time(self):
        a1, b1 = instance(density=0.25, seed=7)
        a2, b2 = instance(density=1.0, seed=7)
        _, r1 = psgemm_simulate(a1, b1, summit(2), p=1)
        _, r2 = psgemm_simulate(a2, b2, summit(2), p=1)
        assert r2.flops > r1.flops
        assert r2.makespan > r1.makespan

    def test_perf_per_gpu_and_efficiency_helpers(self):
        a, b = instance(seed=8)
        _, r1 = psgemm_simulate(a, b, summit(1), p=1)
        _, r2 = psgemm_simulate(a, b, summit(2), p=1)
        assert r1.perf_per_gpu(6) == pytest.approx(r1.perf / 6)
        eff = r1.makespan / (r2.makespan * 2.0)  # strong scaling, 1 -> 2 nodes (Fig. 7)
        assert 0 < eff <= 1.2

    def test_gen_time_deduped_at_node_level(self):
        # Two processes per node in the same grid row have disjoint
        # columns; with p = 2 the two grid rows replicate columns, but
        # co-located procs of different rows share the node's B cache.
        a, b = instance(seed=9)
        plan = inspect(a, b, summit(2), p=2, gpus_per_proc=3)
        rep = simulate(plan, summit(2))
        # Generation per node can never exceed generating all of B.
        from repro.machine.kernels import GenerationModel

        gen_all = GenerationModel(summit(2).node).time(b.nbytes)
        for nt in rep.nodes:
            assert nt.gen <= gen_all * 1.0001
