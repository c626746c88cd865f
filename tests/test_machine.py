"""Tests for the hardware models."""

import numpy as np
import pytest

from repro.machine import (
    CpuModel,
    GemmKernelModel,
    GenerationModel,
    LinkModel,
    MPQC_CPU,
    NetworkModel,
    effective_stream_bandwidth,
    summit,
)
from repro.machine.spec import GpuSpec, MachineSpec, NodeSpec


class TestGemmKernelModel:
    def setup_method(self):
        self.gpu = GpuSpec()
        self.kernel = GemmKernelModel(self.gpu)

    def test_efficiency_bounds_and_monotonicity(self):
        dims = [16, 64, 256, 1024, 4096]
        effs = [float(self.kernel.efficiency(d, d, d)) for d in dims]
        assert all(0 < e < 1 for e in effs)
        assert all(a < b for a, b in zip(effs, effs[1:]))

    def test_efficiency_calibration_points(self):
        # h = 128: ~50 % at 512^3, ~85 % at 2048^3 (V100 DGEMM behaviour).
        assert float(self.kernel.efficiency(512, 512, 512)) == pytest.approx(0.51, abs=0.05)
        assert float(self.kernel.efficiency(2048, 2048, 2048)) == pytest.approx(0.85, abs=0.05)

    def test_device_seconds_identity(self):
        # device_seconds == flops / (peak * efficiency), the separability
        # the coarse model relies on.
        m, n, k = 300, 700, 450
        flops = 2.0 * m * n * k
        expect = flops / (self.gpu.gemm_peak * float(self.kernel.efficiency(m, n, k)))
        assert float(self.kernel.device_seconds(m, n, k)) == pytest.approx(expect)

    def test_time_includes_launch(self):
        t = float(self.kernel.time(1, 1, 1))
        assert t > self.gpu.kernel_launch_s

    def test_vectorized(self):
        m = np.array([100, 200])
        out = self.kernel.time(m, m, m)
        assert out.shape == (2,)
        assert out[1] > out[0]

    def test_throughput_below_peak(self):
        assert float(self.kernel.throughput(2048, 2048, 2048)) < self.gpu.gemm_peak

    def test_large_tiles_approach_peak(self):
        thr = float(self.kernel.throughput(20_000, 20_000, 20_000))
        assert thr > 0.9 * self.gpu.gemm_peak


class TestGenerationModel:
    def test_node_time(self):
        node = NodeSpec()
        gen = GenerationModel(node)
        assert gen.time(node.gen_bandwidth) == pytest.approx(1.0)


class TestLinks:
    def test_link_time(self):
        link = LinkModel(bandwidth=10e9, latency=1e-5)
        assert link.time(10e9) == pytest.approx(1.0 + 1e-5)
        assert link.time(10e9, nmessages=100) == pytest.approx(1.0 + 1e-3)

    def test_zero_transfer(self):
        link = LinkModel(bandwidth=10e9)
        assert link.time(0, 0) == 0.0

    def test_effective_stream_bandwidth(self):
        # 6 GPUs sharing an 80 GB/s aggregate: 13.3 GB/s each.
        bw = effective_stream_bandwidth(45e9, 80e9, 6)
        assert bw == pytest.approx(80e9 / 6)
        # A single stream keeps its brick cap.
        assert effective_stream_bandwidth(45e9, 80e9, 1) == 45e9

    def test_invalid(self):
        with pytest.raises(ValueError):
            LinkModel(bandwidth=0)
        with pytest.raises(ValueError):
            effective_stream_bandwidth(1, 1, 0)


class TestNetwork:
    def setup_method(self):
        self.net = NetworkModel(bandwidth=20e9, latency=2e-6)

    def test_exchange_full_duplex(self):
        t = self.net.exchange_time(20e9, 10e9)
        assert t == pytest.approx(1.0 + 2e-6)  # max of the two directions


class TestCpuModel:
    def test_paper_anchor_times(self):
        # Paper: C65H132 ABCD ~ 0.9-1.2 Pflop on {8, 16} nodes took
        # {308, 158} s; the default model reproduces that within ~40 %
        # using the paper's 877 Tflop count exactly.
        flops = 877e12
        t8 = MPQC_CPU.time(flops, 8)
        t16 = MPQC_CPU.time(flops, 16)
        assert t8 == pytest.approx(308, rel=0.25)
        assert t16 == pytest.approx(158, rel=0.25)

    def test_strong_scaling_step(self):
        m = CpuModel()
        assert m.time(1e15, 16) < m.time(1e15, 8)
        # Slightly sublinear (efficiency decay per doubling).
        assert m.time(1e15, 16) > m.time(1e15, 8) / 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            CpuModel(peak_per_node=0)
        with pytest.raises(ValueError):
            MPQC_CPU.throughput(0)


class TestMachineSpec:
    def test_summit_defaults(self):
        m = summit(16)
        assert m.total_gpus == 96
        assert m.aggregate_gemm_peak == pytest.approx(96 * 7.2e12)

    def test_partial_node(self):
        m = summit(1, gpus_per_node=3)
        assert m.total_gpus == 3
        # Host link share scales with the resource set.
        assert m.node.host_link_aggregate == pytest.approx(
            NodeSpec().host_link_aggregate / 2
        )

    def test_partial_node_bounds(self):
        with pytest.raises(ValueError):
            summit(1, gpus_per_node=7)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            MachineSpec(nnodes=0)
        with pytest.raises(ValueError):
            GpuSpec(memory_bytes=0)


class TestFrontier:
    def test_spec(self):
        from repro.machine import frontier

        m = frontier(4)
        assert m.name == "frontier"
        assert m.node.ngpus == 4
        assert m.total_gpus == 16
        assert m.gpu.gemm_peak > SUMMIT_PEAK_PER_GPU

    def test_runs_a_plan(self):
        from repro.core import psgemm_simulate
        from repro.machine import frontier, summit
        from repro.sparse import random_shape_with_density
        from repro.tiling import random_tiling

        rows = random_tiling(600, 40, 160, seed=0)
        inner = random_tiling(3000, 40, 160, seed=1)
        a = random_shape_with_density(rows, inner, 0.5, seed=2)
        b = random_shape_with_density(inner, inner, 0.5, seed=3)
        # Matched GPU counts: 2 Summit nodes (12 GPUs) vs 3 Frontier nodes.
        _, rs = psgemm_simulate(a, b, summit(2), p=1)
        _, rf = psgemm_simulate(a, b, frontier(3), p=1)
        assert rf.makespan > 0
        assert rf.flops == rs.flops


SUMMIT_PEAK_PER_GPU = 7.2e12
