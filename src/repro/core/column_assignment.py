"""Column assignment: flop-sorted mirrored-cyclic dealing (paper 3.2.1).

The ``N^(t)`` tile columns of B are sorted by non-decreasing flop weight
``f_k`` and dealt to the ``q`` processors of a grid row in a *mirrored
cyclic* (boustrophedon) order: the first ``q`` columns forward, the next
``q`` in reverse, repeating every ``2q`` columns — the reverse pass
compensates the imbalance of the forward pass.

Two alternative policies (plain cyclic, greedy LPT) are provided for the
A2 ablation benchmark.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.util.validation import require, require_in


@dataclass(frozen=True)
class ColumnAssignment:
    """Result of dealing columns to ``q`` processors.

    Attributes
    ----------
    columns:
        Per-processor arrays of global tile-column indices (sorted
        ascending within each processor for reproducibility).
    flops:
        Per-processor total flop weight.
    """

    columns: list[np.ndarray]
    flops: np.ndarray

    @property
    def q(self) -> int:
        return len(self.columns)


def assign_columns(
    col_flops: np.ndarray, q: int, policy: str = "mirrored"
) -> ColumnAssignment:
    """Deal tile columns to ``q`` processors balancing flop weight.

    Parameters
    ----------
    col_flops:
        Flop weight of every tile column (from
        :func:`repro.sparse.per_column_flops`).  Zero-weight columns are
        dealt too (they may still own C tiles) but cost nothing.
    q:
        Number of processors in the grid row.
    policy:
        ``"mirrored"`` (the paper's), ``"cyclic"`` (plain forward dealing)
        or ``"lpt"`` (greedy longest-processing-time) for ablations.
    """
    require(q >= 1, "q must be >= 1")
    require_in(policy, {"mirrored", "cyclic", "lpt"}, "policy")
    f = np.asarray(col_flops, dtype=np.float64)
    n = f.size
    require(n >= 1, "no columns to assign")

    order = np.argsort(f, kind="stable")  # non-decreasing, ties by index
    owner = np.empty(n, dtype=np.int64)

    if policy == "mirrored":
        pos = np.arange(n)
        within = pos % q
        block = pos // q
        owner_sorted = np.where(block % 2 == 0, within, q - 1 - within)
        owner[order] = owner_sorted
    elif policy == "cyclic":
        owner[order] = np.arange(n) % q
    else:  # lpt: heaviest first onto the least-loaded processor
        heap = [(0.0, proc) for proc in range(q)]
        heapq.heapify(heap)
        for col in order[::-1]:
            load, proc = heapq.heappop(heap)
            owner[col] = proc
            heapq.heappush(heap, (load + f[col], proc))

    columns = [np.flatnonzero(owner == proc) for proc in range(q)]
    flops = np.array([f[c].sum() for c in columns])
    return ColumnAssignment(columns=columns, flops=flops)
