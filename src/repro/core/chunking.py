"""Chunk segmentation of A tiles within a block (paper 3.2.3).

Within one resident column block, the GPU streams the needed A tiles in
*chunks*: tiles are taken "one per tile-row of A in a cyclic fashion"
(round-robin over the rows, so several GEMM chains progress in parallel)
until the chunk budget — 25 % of GPU memory — is exhausted; the remaining
25 % prefetches the next chunk, so A transfers overlap compute with double
buffering.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import require


def cyclic_tile_order(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Permutation putting A tiles in one-per-row cyclic order.

    Tiles are first ordered within each tile row by column, then emitted in
    rounds: round ``r`` contains the ``r``-th tile of every row (rows in
    ascending order).  Returns indices into the input arrays.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    require(rows.shape == cols.shape, "rows/cols length mismatch")
    n = rows.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    by_row = np.lexsort((cols, rows))
    r_sorted = rows[by_row]
    # Rank of each tile within its row (0, 1, 2, ... per row).
    new_row = np.r_[True, r_sorted[1:] != r_sorted[:-1]]
    row_start = np.maximum.accumulate(np.where(new_row, np.arange(n), 0))
    rank = np.arange(n) - row_start
    # Emit by (rank, row).
    return by_row[np.lexsort((r_sorted, rank))]


def split_by_budget(sizes: np.ndarray, budget: int) -> list[slice]:
    """Greedy prefix splitting: consecutive segments whose byte sum stays
    within ``budget``; a single item larger than the budget gets its own
    segment (its transfer simply serializes).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    require(budget > 0, "budget must be positive")
    n = sizes.size
    if n == 0:
        return []
    cum = np.concatenate(([0], np.cumsum(sizes)))
    out: list[slice] = []
    start = 0
    while start < n:
        # Largest end with cum[end] - cum[start] <= budget.
        end = int(np.searchsorted(cum, cum[start] + budget, side="right")) - 1
        if end <= start:  # oversized single tile
            end = start + 1
        out.append(slice(start, end))
        start = end
    return out
