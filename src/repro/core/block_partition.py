"""Block partitioning: worst-fit packing into GPU-memory blocks (3.2.2).

On each processor, its assigned B columns are sorted by non-increasing
memory footprint (B tiles of the column plus the local C tiles it
produces) and packed with a *worst-fit* heuristic into blocks whose total
footprint fits in :data:`~repro.core.plan.BLOCK_FRACTION` (50 %) of one GPU's
memory.
Each GPU starts with one empty block; when a column fits in no existing
block, a new block is created and assigned to a GPU round-robin, so no GPU
ever holds more than one block more than any other.

The paper's largest dense instances (``N = K = 750k`` with tiles up to 2048
wide) sit exactly at the edge where one B column plus its C tiles can exceed
half a 16 GiB GPU.  Such a column becomes a *singleton* block — still
resident alone, with the chunk budget shrunk by the inspector to whatever
memory remains.

Blocks are streamed to their GPU one at a time, blocking: a block's B and
C tiles are transferred exactly once and never flushed mid-block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import BLOCK_FRACTION
from repro.util.units import fmt_bytes
from repro.util.validation import require


class InfeasiblePartitionError(ValueError):
    """A single column exceeds 95 % of one GPU's memory."""


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

    Returns
    -------
    Blocks in creation order; ``block.gpu`` is round-robin, and every GPU
    processes its blocks in this order, one at a time.

    Raises
    ------
    InfeasiblePartitionError
        If a column can never be resident: larger than ~the whole GPU,
        leaving no room to stream any A tile.
    """
    require(ngpus >= 1, "ngpus must be >= 1")
    cols = np.asarray(columns, dtype=np.int64)
    cbytes = np.asarray(column_bytes, dtype=np.int64)
    require(cols.shape == cbytes.shape, "columns/bytes length mismatch")
    budget = int(gpu_memory_bytes * BLOCK_FRACTION)

    limit = int(gpu_memory_bytes * 0.95)
    hopeless = cbytes > limit
    if hopeless.any():
        raise InfeasiblePartitionError(
            f"{int(hopeless.sum())} column(s) exceed 95% of GPU memory "
            f"({fmt_bytes(int(cbytes.max()))} > {fmt_bytes(limit)}); refine the tiling "
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
        if size > budget:  # oversized: a singleton block
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
