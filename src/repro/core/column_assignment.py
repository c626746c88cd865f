"""Column assignment: flop-sorted mirrored-cyclic dealing (paper 3.2.1).

The ``N^(t)`` tile columns of B are sorted by non-decreasing flop weight
``f_k`` and dealt to the ``q`` processors of a grid row in a *mirrored
cyclic* (boustrophedon) order: the first ``q`` columns forward, the next
``q`` in reverse, repeating every ``2q`` columns — the reverse pass
compensates the imbalance of the forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require


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


def assign_columns(col_flops: np.ndarray, q: int) -> ColumnAssignment:
    """Deal tile columns to ``q`` processors balancing flop weight.

    Parameters
    ----------
    col_flops:
        Flop weight of every tile column (from
        :func:`repro.sparse.per_column_flops`).  Zero-weight columns are
        dealt too (they may still own C tiles) but cost nothing.
    q:
        Number of processors in the grid row.
    """
    require(q >= 1, "q must be >= 1")
    f = np.asarray(col_flops, dtype=np.float64)
    n = f.size
    require(n >= 1, "no columns to assign")

    order = np.argsort(f, kind="stable")  # non-decreasing, ties by index
    pos = np.arange(n)
    within = pos % q
    owner = np.empty(n, dtype=np.int64)
    owner[order] = np.where((pos // q) % 2 == 0, within, q - 1 - within)

    columns = [np.flatnonzero(owner == proc) for proc in range(q)]
    flops = np.array([f[c].sum() for c in columns])
    return ColumnAssignment(columns=columns, flops=flops)
