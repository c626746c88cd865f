"""Execution-plan datastructures.

The inspector (Section 4 of the paper: "an inspector phase computes first
what tasks exist, and how the data must flow between them") produces an
:class:`ExecutionPlan`: per process, per GPU, the ordered blocks of B
columns, each block's chunks of A tiles, and the aggregate task/flop/byte
counts of every chunk.  The same plan is consumed by three executors:

* :func:`repro.runtime.numeric.execute_plan` — real data, exact numerics;
* :mod:`repro.runtime.engine` — fine-grained discrete-event simulation;
* :func:`repro.core.analytic.simulate` — vectorized coarse timing.

Plans never enumerate individual GEMM tasks (C65H132 tiling v1 has 1.9 M);
chunks carry the tile-coordinate arrays plus per-inner-tile aggregates from
which any executor can reconstruct what it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.grid import ProcessGrid
from repro.sparse.shape import SparseShape


@dataclass(frozen=True)
class PlanOptions:
    """Inspector knobs (paper defaults; ablations vary them).

    Attributes
    ----------
    block_fraction:
        Fraction of GPU memory a resident B/C block may use (50 %).
    chunk_fraction:
        Fraction of GPU memory one A chunk may use (25 %; the mirror 25 %
        is the prefetch buffer).
    assignment_policy:
        Column dealing policy; see
        :func:`repro.core.column_assignment.assign_columns`.
    screen_threshold:
        Optional norm-product screening threshold producing the "opt"
        plans of Table 1; ``None`` disables screening.
    """

    block_fraction: float = 0.5
    chunk_fraction: float = 0.25
    assignment_policy: str = "mirrored"
    screen_threshold: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.block_fraction <= 1.0:
            raise ValueError(
                f"block_fraction must be in (0, 1], got "
                f"{self.block_fraction!r}; the paper default is 0.5"
            )
        if not 0.0 < self.chunk_fraction <= 0.5:
            raise ValueError(
                f"chunk_fraction must be in (0, 0.5], got "
                f"{self.chunk_fraction!r}; the paper default is 0.25 "
                f"(the mirror 25% is the prefetch buffer)"
            )
        if self.block_fraction + 2 * self.chunk_fraction > 1.0 + 1e-12:
            raise ValueError(
                f"block_fraction + 2*chunk_fraction must not exceed GPU "
                f"memory: {self.block_fraction} + 2*{self.chunk_fraction} = "
                f"{self.block_fraction + 2 * self.chunk_fraction:.3f} > 1; "
                f"shrink one so a resident block plus a double-buffered "
                f"chunk pair fits the device"
            )
        if self.screen_threshold is not None and self.screen_threshold <= 0:
            raise ValueError(
                f"screen_threshold must be positive (or None to disable "
                f"screening), got {self.screen_threshold!r}"
            )


@dataclass
class Chunk:
    """One chunk of A tiles streamed to the GPU for the enclosing block.

    Attributes
    ----------
    a_rows, a_cols:
        Global tile coordinates of the A tiles, in transfer order.
    a_bytes:
        Total bytes of those tiles.
    ntasks:
        GEMM tasks this chunk executes against the enclosing block.
    flops:
        Their total flop count.
    device_seconds:
        Kernel-model compute time of those tasks (excluding launch
        overhead), priced with the machine the plan was inspected for.
    """

    a_rows: np.ndarray
    a_cols: np.ndarray
    a_bytes: int
    ntasks: int
    flops: float
    device_seconds: float

    @property
    def ntiles(self) -> int:
        return int(self.a_rows.size)


@dataclass
class Block:
    """One resident set of B columns (and their C tiles) on one GPU.

    Attributes
    ----------
    gpu:
        Local GPU index within the process.
    columns:
        Global B tile-column indices, packing order.
    b_bytes, c_bytes:
        Footprints of the B column tiles and the local C tiles.
    b_tile_count, c_tile_count:
        Tile message counts (transfer-latency accounting).
    k_tiles:
        Sorted global inner tile indices with at least one B tile in the
        block.
    chunks:
        The A-tile chunks, in execution order.
    """

    gpu: int
    columns: np.ndarray
    b_bytes: int
    c_bytes: int
    b_tile_count: int
    c_tile_count: int
    k_tiles: np.ndarray
    chunks: list[Chunk] = field(default_factory=list)

    @property
    def ntasks(self) -> int:
        return sum(c.ntasks for c in self.chunks)

    @property
    def flops(self) -> float:
        return sum(c.flops for c in self.chunks)

    @property
    def a_bytes(self) -> int:
        """A traffic of the block (every needed A tile loaded once)."""
        return sum(c.a_bytes for c in self.chunks)


@dataclass
class ProcPlan:
    """Everything one process executes and communicates.

    Attributes
    ----------
    rank, row, col:
        Grid placement.
    columns:
        All B tile columns assigned to this process.
    blocks:
        Column blocks in creation order (each GPU runs its own subsequence
        in order).
    a_slice_rows:
        Global A tile rows of this grid row's slice.
    a_needed_rows / a_needed_cols / a_needed_bytes:
        Deduplicated A tiles this process touches (union over blocks) and
        their total bytes.
    a_recv_bytes, a_send_bytes:
        Internode A traffic under 2D-cyclic initial placement.
    c_send_bytes, c_recv_bytes:
        Internode C writeback traffic to the final 2D-cyclic placement.
    b_gen_bytes, b_gen_tiles:
        On-demand B generation work (each tile at most once per process).
    c_bytes:
        C tiles this process produces (bytes).
    """

    rank: int
    row: int
    col: int
    columns: np.ndarray
    blocks: list[Block]
    a_slice_rows: np.ndarray
    a_needed_rows: np.ndarray
    a_needed_cols: np.ndarray
    a_needed_bytes: int
    a_recv_bytes: int = 0
    a_send_bytes: int = 0
    c_send_bytes: int = 0
    c_recv_bytes: int = 0
    b_gen_bytes: int = 0
    b_gen_tiles: int = 0
    c_bytes: int = 0

    @property
    def ntasks(self) -> int:
        return sum(b.ntasks for b in self.blocks)

    @property
    def flops(self) -> float:
        return sum(b.flops for b in self.blocks)

    def gpu_blocks(self, gpu: int) -> list[Block]:
        """This process's blocks for local GPU ``gpu``, in order."""
        return [b for b in self.blocks if b.gpu == gpu]


@dataclass
class ExecutionPlan:
    """The full inspector output for one contraction on one machine."""

    grid: ProcessGrid
    options: PlanOptions
    a_shape: SparseShape
    b_shape: SparseShape
    c_shape: SparseShape
    procs: list[ProcPlan]
    gpu_memory_bytes: int

    @property
    def total_flops(self) -> float:
        return sum(p.flops for p in self.procs)

    @property
    def total_tasks(self) -> int:
        return sum(p.ntasks for p in self.procs)

    @property
    def total_blocks(self) -> int:
        return sum(len(p.blocks) for p in self.procs)

    @property
    def total_chunks(self) -> int:
        return sum(len(b.chunks) for p in self.procs for b in p.blocks)

    def summary(self) -> str:
        """A short human-readable description of the plan."""
        from repro.util.units import fmt_bytes, fmt_count, fmt_flops

        return (
            f"ExecutionPlan: grid {self.grid.p}x{self.grid.q} "
            f"({self.grid.gpus_per_proc} GPU/proc), "
            f"{fmt_count(self.total_tasks)} GEMM tasks, "
            f"{fmt_flops(self.total_flops)}, "
            f"{self.total_blocks} blocks / {self.total_chunks} chunks, "
            f"A traffic {fmt_bytes(sum(p.a_needed_bytes for p in self.procs))}"
        )
