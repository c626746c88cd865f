"""GPU GEMM kernel and CPU tile-generation time models.

The kernel model is the single most important calibration in the
reproduction: every figure's Tflop/s derives from it.  Its form is

    time(m, n, k) = launch + 2*m*n*k / (peak * eff(m, n, k))
    eff(m, n, k)  = m/(m+h) * n/(n+h) * k/(k+h)

which encodes the two facts the paper reports: (i) a practical peak of
7.2 Tflop/s for large resident tiles, and (ii) peak is effectively reached
at ~728^3 tiles while tiny DBCSR-style blocks run far below it.  The
*separable* efficiency is deliberate: the per-task "device seconds"
``flops / (peak * eff) = (2/peak) * (m+h)(n+h)(k+h)`` factorizes over the
three tile dimensions, so the coarse model in :mod:`repro.core.analytic`
can sum it over millions of tasks with the same shifted-size sparse
products it uses for flop counts.
"""

from __future__ import annotations

import numpy as np

from repro.machine.spec import GpuSpec, NodeSpec


class GemmKernelModel:
    """Execution-time model of dense tile GEMMs on one GPU."""

    def __init__(self, gpu: GpuSpec):
        self.gpu = gpu

    def efficiency(self, m, n, k):
        """Fraction of :attr:`GpuSpec.gemm_peak` attained (vectorized)."""
        h = self.gpu.eff_half_dim
        m = np.asarray(m, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        return (m / (m + h)) * (n / (n + h)) * (k / (k + h))

    def device_seconds(self, m, n, k):
        """Pure compute time excluding launch overhead (vectorized).

        Equal to ``(2/peak) * (m+h)(n+h)(k+h)`` — see the module docstring.
        """
        h = self.gpu.eff_half_dim
        m = np.asarray(m, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        return (2.0 / self.gpu.gemm_peak) * (m + h) * (n + h) * (k + h)

    def time(self, m, n, k):
        """Total kernel time including launch overhead (vectorized)."""
        return self.gpu.kernel_launch_s + self.device_seconds(m, n, k)

    def throughput(self, m, n, k):
        """Attained flop/s of one ``m x n x k`` kernel (vectorized)."""
        flops = 2.0 * np.asarray(m, dtype=np.float64) * np.asarray(n) * np.asarray(k)
        return flops / self.time(m, n, k)


class GenerationModel:
    """CPU-side on-demand B-tile generation cost.

    The paper's B tiles are synthesized on the host cores ("the generation
    routine does not have a CUDA implementation, these tasks are always
    executed on the CPUs") and each tile is instantiated at most once per
    node.  Generation throughput is modelled as memory-bandwidth-bound work
    spread over the node's cores.
    """

    def __init__(self, node: NodeSpec):
        self.node = node

    def time(self, nbytes: float) -> float:
        """Seconds the node's cores need to generate ``nbytes`` of tiles."""
        return float(nbytes) / self.node.gen_bandwidth
