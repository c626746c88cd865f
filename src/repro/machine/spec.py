"""Machine specifications (Summit defaults).

All bandwidths are bytes/second (decimal GB/s as vendors quote them);
memory capacities are bytes (binary GiB).  The default constants reflect
the paper's platform description (Section 5) and standard published Summit
characteristics; *effective* values are deliberately below nominal peaks to
account for protocol overheads and contention, and are the calibration
knobs recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.util.units import GIB
from repro.util.validation import require, require_positive


@dataclass(frozen=True)
class GpuSpec:
    """One NVIDIA V100 as the paper measured it.

    Attributes
    ----------
    memory_bytes:
        Device memory (16 GiB on Summit's V100s).
    gemm_peak:
        Practical DGEMM peak: 7.2 Tflop/s measured by the authors with
        cuBLAS on large resident matrices.
    kernel_launch_s:
        Per-kernel fixed overhead (launch + cuBLAS dispatch).
    eff_half_dim:
        Per-axis efficiency parameter ``h``: a GEMM of shape ``m x n x k``
        runs at ``peak * m/(m+h) * n/(n+h) * k/(k+h)``.  ``h = 128``
        matches measured V100 cuBLAS DGEMM behaviour: ~50 % of peak at
        512^3, ~65 % at 768^3, ~85 % at 2048^3 — the effect behind the
        paper's Fig. 8 gap between fine (v1) and coarse (v3) tilings.
    h2d_bandwidth:
        Host->device bandwidth of the GPU's dedicated dual-NVLink bricks
        (50 GB/s nominal; 45 GB/s effective).
    d2d_bandwidth:
        Device->device NVLink bandwidth within a socket group.
    """

    memory_bytes: int = 16 * GIB
    gemm_peak: float = 7.2e12
    kernel_launch_s: float = 7.0e-6
    eff_half_dim: float = 128.0
    h2d_bandwidth: float = 45.0e9
    d2d_bandwidth: float = 45.0e9

    def __post_init__(self) -> None:
        require_positive(self.memory_bytes, "memory_bytes")
        require_positive(self.gemm_peak, "gemm_peak")
        require_positive(self.eff_half_dim, "eff_half_dim")


@dataclass(frozen=True)
class NodeSpec:
    """One Summit node (IBM AC922).

    Attributes
    ----------
    ngpus:
        GPUs per node (6).
    cores:
        Cores available to the application (42 of 44).
    host_memory_bytes:
        Node DRAM (512 GiB).
    host_link_aggregate:
        Effective aggregate host<->device streaming bandwidth when all
        GPUs pull concurrently — bounded by host memory bandwidth shared
        with the CPU-side tile generation, not by the NVLink bricks.
        This is the dominant calibration knob: the paper's block-sparse
        runs are GPU-I/O bound ("GPU I/O dominates the execution time").
    gen_bandwidth_per_core:
        Bytes/s of B-tile generation per core (on-demand tile synthesis
        is memory-bandwidth-ish work on the POWER9).
    h2d_latency_s:
        Fixed per-tile host->device transfer overhead: cudaMemcpyAsync
        setup plus the runtime's per-tile data-management work (PaRSEC
        tracks each tile's life-cycle individually).  At fine tilings the
        plan moves millions of tiles, so this term — not bandwidth — is
        what separates the paper's v1 from v3 timings.
    """

    ngpus: int = 6
    cores: int = 42
    host_memory_bytes: int = 512 * GIB
    host_link_aggregate: float = 80.0e9
    gen_bandwidth_per_core: float = 0.40e9
    h2d_latency_s: float = 120.0e-6

    def __post_init__(self) -> None:
        require_positive(self.ngpus, "ngpus")
        require_positive(self.cores, "cores")

    @property
    def gen_bandwidth(self) -> float:
        """Aggregate CPU tile-generation bandwidth of the node."""
        return self.cores * self.gen_bandwidth_per_core


@dataclass(frozen=True)
class MachineSpec:
    """A distributed machine: ``nnodes`` identical multi-GPU nodes.

    Attributes
    ----------
    net_bandwidth:
        Effective per-node injection bandwidth (Summit: dual-rail EDR,
        25 GB/s nominal, ~21 GB/s effective for large messages).
    net_latency:
        Wire latency of one message.
    net_message_overhead:
        Per-*tile* software cost of the runtime's background broadcasts
        (PaRSEC activation, rendezvous, completion tracking).  Fine
        tilings move orders of magnitude more tiles, which is one of the
        scaling limits the paper observes for tiling v1.
    inspection_rate:
        Inspector throughput in tiles/second — the O(N^t log N^t + nnzB)
        phase of Section 3.2.4, charged once at startup.
    """

    name: str = "summit"
    nnodes: int = 1
    node: NodeSpec = field(default_factory=NodeSpec)
    gpu: GpuSpec = field(default_factory=GpuSpec)
    net_bandwidth: float = 21.0e9
    net_latency: float = 1.5e-6
    net_message_overhead: float = 40.0e-6
    inspection_rate: float = 25.0e6

    def __post_init__(self) -> None:
        require_positive(self.nnodes, "nnodes")

    @property
    def total_gpus(self) -> int:
        return self.nnodes * self.node.ngpus

    @property
    def aggregate_gemm_peak(self) -> float:
        """The paper's yardstick: ``#GPUs x 7.2 Tflop/s``."""
        return self.total_gpus * self.gpu.gemm_peak


SUMMIT_GPU = GpuSpec()
SUMMIT_NODE = NodeSpec()

#: A Frontier-like exascale node, as the paper's introduction anticipates
#: ("the forthcoming Frontier exascale system is announced with four AMD
#: Radeon GPUs per node").  Constants are public MI250X figures: ~45
#: Tflop/s FP64 (dual-GCD) of which ~24 attainable in DGEMM per package,
#: 128 GB HBM per package, Slingshot-11 at 4 x 25 GB/s per node.
FRONTIER_GPU = GpuSpec(
    memory_bytes=128 * GIB,
    gemm_peak=24.0e12,
    kernel_launch_s=6.0e-6,
    eff_half_dim=192.0,  # wider tiles needed to saturate the MI250X
    h2d_bandwidth=64.0e9,
    d2d_bandwidth=50.0e9,
)
FRONTIER_NODE = NodeSpec(
    ngpus=4,
    cores=56,
    host_memory_bytes=512 * GIB,
    host_link_aggregate=144.0e9,
    gen_bandwidth_per_core=0.45e9,
    h2d_latency_s=100.0e-6,
)


def frontier(nnodes: int = 16) -> MachineSpec:
    """A Frontier-like partition (the paper's exascale outlook).

    Four big-memory GPUs per node and ~3x Summit's per-node DGEMM rate;
    used by the cross-machine projection benchmark to ask how the paper's
    algorithm behaves when compute grows faster than bandwidth.
    """
    return MachineSpec(
        name="frontier",
        nnodes=nnodes,
        node=FRONTIER_NODE,
        gpu=FRONTIER_GPU,
        net_bandwidth=90.0e9,
        net_latency=1.5e-6,
        net_message_overhead=30.0e-6,
    )


def summit(nnodes: int = 16, gpus_per_node: int | None = None) -> MachineSpec:
    """A Summit partition with ``nnodes`` nodes.

    ``gpus_per_node`` (default 6) supports the paper's partial-node scaling
    points: the 3-GPU run of Fig. 7 is ``summit(1, gpus_per_node=3)``.
    The host-link aggregate scales with the GPU count so that a half-node
    keeps the per-GPU share of host bandwidth it would have on Summit
    (resource-set behaviour of ``jsrun``).
    """
    node = SUMMIT_NODE
    if gpus_per_node is not None:
        require(1 <= gpus_per_node <= 6, "gpus_per_node must be in [1, 6]")
        scale = gpus_per_node / node.ngpus
        node = replace(
            node,
            ngpus=gpus_per_node,
            cores=max(1, int(node.cores * scale)),
            host_link_aggregate=node.host_link_aggregate * scale,
        )
    return MachineSpec(name="summit", nnodes=nnodes, node=node, gpu=SUMMIT_GPU)
