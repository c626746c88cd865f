"""Block partitioning: worst-fit packing into GPU-memory blocks (3.2.2).

On each processor, its assigned B columns are sorted by non-increasing
memory footprint (B tiles of the column plus the local C tiles it
produces) and packed with a *worst-fit* heuristic into blocks whose total
footprint fits in ``block_fraction`` (default 50 %) of one GPU's memory.
Each GPU starts with one empty block; when a column fits in no existing
block, a new block is created and assigned to a GPU round-robin, so no GPU
ever holds more than one block more than any other.

Blocks are streamed to their GPU one at a time, blocking: a block's B and
C tiles are transferred exactly once and never flushed mid-block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.units import fmt_bytes
from repro.util.validation import require


class InfeasiblePartitionError(ValueError):
    """A single column exceeds the per-block GPU memory budget."""


@dataclass
class ColumnBlock:
    """A set of B columns resident together on one GPU.

    Attributes
    ----------
    gpu:
        Local GPU index within the processor.
    columns:
        Global tile-column indices, in packing order.
    bytes_used:
        Total footprint (B column tiles + local C tiles).
    """

    gpu: int
    columns: list[int] = field(default_factory=list)
    bytes_used: int = 0

    def remaining(self, budget: int) -> int:
        return budget - self.bytes_used


def partition_columns_into_blocks(
    columns: np.ndarray,
    column_bytes: np.ndarray,
    gpu_memory_bytes: int,
    ngpus: int,
    block_fraction: float = 0.5,
    allow_oversized: bool = True,
) -> list[ColumnBlock]:
    """Pack ``columns`` into per-GPU blocks with the paper's worst-fit rule.

    Parameters
    ----------
    columns:
        Global tile-column indices assigned to this processor.
    column_bytes:
        Footprint of each of those columns (same length/order), i.e. the
        B-column bytes plus the local C tiles it produces.
    gpu_memory_bytes, ngpus:
        The processor's GPU size and count.
    block_fraction:
        Fraction of one GPU's memory a block may occupy (paper: 50 %).
    allow_oversized:
        The paper's largest dense instances (``N = K = 750k`` with tiles up
        to 2048 wide) sit exactly at the edge where one B column plus its C
        tiles can exceed half a 16 GiB GPU.  With ``allow_oversized`` (the
        default) such a column becomes a *singleton* block — still resident
        alone, with the chunk budget shrunk by the executor to whatever
        memory remains.  With ``False`` the strict rule applies and the
        partition fails.

    Returns
    -------
    Blocks in creation order; ``block.gpu`` is round-robin, and every GPU
    processes its blocks in this order, one at a time.

    Raises
    ------
    InfeasiblePartitionError
        If a column can never be resident: larger than the block budget
        when ``allow_oversized=False``, or larger than ~the whole GPU
        (leaving no room to stream any A tile) regardless.
    """
    require(ngpus >= 1, "ngpus must be >= 1")
    require(0 < block_fraction <= 1.0, "block_fraction must be in (0, 1]")
    cols = np.asarray(columns, dtype=np.int64)
    cbytes = np.asarray(column_bytes, dtype=np.int64)
    require(cols.shape == cbytes.shape, "columns/bytes length mismatch")
    budget = int(gpu_memory_bytes * block_fraction)

    oversized = cbytes > budget
    hopeless = cbytes > int(gpu_memory_bytes * 0.95)
    if hopeless.any() or (oversized.any() and not allow_oversized):
        worst = int(cbytes.max())
        raise InfeasiblePartitionError(
            f"{int(oversized.sum())} column(s) exceed the block budget "
            f"({fmt_bytes(worst)} > {fmt_bytes(budget)}); refine the tiling "
            f"or increase GPU memory"
        )

    # One empty block per GPU to start, as the paper specifies.
    blocks: list[ColumnBlock] = [ColumnBlock(gpu=g) for g in range(ngpus)]
    next_gpu = 0  # round-robin cursor for newly created blocks

    # Non-increasing footprint; ties broken by column index for determinism.
    order = np.lexsort((cols, -cbytes))
    for idx in order:
        col = int(cols[idx])
        size = int(cbytes[idx])
        if size > budget:  # singleton block (allow_oversized fast path)
            blk = ColumnBlock(gpu=next_gpu)
            next_gpu = (next_gpu + 1) % ngpus
            blk.columns.append(col)
            blk.bytes_used = size
            blocks.append(blk)
            continue
        # Worst fit: the block with the most remaining space that fits.
        best = None
        best_remaining = -1
        for blk in blocks:
            rem = blk.remaining(budget)
            if rem >= size and rem > best_remaining:
                best = blk
                best_remaining = rem
        if best is None:
            best = ColumnBlock(gpu=next_gpu)
            next_gpu = (next_gpu + 1) % ngpus
            blocks.append(best)
        best.columns.append(col)
        best.bytes_used += size

    # Drop GPUs' initial blocks that stayed empty (fewer columns than GPUs).
    return [b for b in blocks if b.columns]
