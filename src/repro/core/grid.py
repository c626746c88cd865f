"""Process grids and data ownership.

The algorithm runs on a ``p x q`` grid of *processes* (MPI ranks in the
paper), each driving ``g`` GPUs.  Matrix ``A`` is distributed 2D-cyclic at
tile granularity over the grid; grid row ``r`` works on the slice ``A^(r)``
(tile rows ``i`` with ``i mod p == r``) against the full, replicated ``B``.
On Summit the paper ran one process per node (6 GPUs) for the application
case and two processes per node (3 GPUs each) for the synthetic comparison
against single-GPU-per-process libDBCSR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.spec import MachineSpec
from repro.util.validation import require


@dataclass(frozen=True)
class ProcessGrid:
    """A ``p x q`` logical process grid with ``gpus_per_proc`` GPUs each.

    Ranks are row-major: rank = ``r * q + l`` for grid coordinates
    ``(r, l)``.
    """

    p: int
    q: int
    gpus_per_proc: int
    procs_per_node: int = 1

    def __post_init__(self) -> None:
        require(self.p >= 1 and self.q >= 1, "grid dimensions must be >= 1")
        require(self.gpus_per_proc >= 1, "gpus_per_proc must be >= 1")
        require(self.procs_per_node >= 1, "procs_per_node must be >= 1")

    @property
    def nprocs(self) -> int:
        return self.p * self.q

    def coords(self, rank: int) -> tuple[int, int]:
        """Grid coordinates ``(row, col)`` of ``rank``."""
        require(0 <= rank < self.nprocs, f"rank {rank} out of grid")
        return rank // self.q, rank % self.q

    def rank(self, row: int, col: int) -> int:
        """Rank at grid coordinates ``(row, col)``."""
        require(0 <= row < self.p and 0 <= col < self.q, "coords out of grid")
        return row * self.q + col

    def slice_tile_rows(self, row: int, ntile_rows: int) -> np.ndarray:
        """Global A tile-row indices belonging to slice ``A^(row)``."""
        return np.arange(row, ntile_rows, self.p, dtype=np.int64)


def make_grid(
    machine: MachineSpec,
    p: int = 1,
    gpus_per_proc: int | None = None,
) -> ProcessGrid:
    """Build the largest ``p x q`` grid the machine supports.

    ``q = floor(P / p)`` where ``P`` is the number of processes the machine
    hosts (one per ``gpus_per_proc`` GPUs), exactly the paper's
    ``q = floor(P / p)`` with ``pq <= P``.
    """
    g = machine.node.ngpus if gpus_per_proc is None else gpus_per_proc
    require(1 <= g <= machine.node.ngpus, "gpus_per_proc exceeds the node")
    require(machine.node.ngpus % g == 0, "gpus_per_proc must divide node GPUs")
    nprocs_total = machine.nnodes * (machine.node.ngpus // g)
    require(p <= nprocs_total, f"p={p} exceeds {nprocs_total} processes")
    q = nprocs_total // p
    return ProcessGrid(
        p=p, q=q, gpus_per_proc=g, procs_per_node=machine.node.ngpus // g
    )
