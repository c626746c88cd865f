"""Vectorized shape algebra: product shapes, task counts, flop counts.

These are the quantities Section 3.2.4 of the paper calls the *inspection
phase* outputs and what Table 1 reports: given the shapes of ``A`` (M x K
tiles) and ``B`` (K x N tiles),

* the shape of ``C = A @ B`` is the boolean product of the occupancies,
* the number of GEMM tasks is ``sum_{i,j} |{k : A[i,k] and B[k,j]}|``,
* the flop count is ``2 * sum_{i,k,j} m_i * k_k * n_j`` over present pairs,
* the per-column flop weights ``f_j`` drive the load balancer (3.2.1).

Everything is a weighted sparse matrix product, so paper-scale instances
(1.9 M GEMM tasks for C65H132 tiling v1) cost milliseconds.

The ``screened_*`` variants implement norm-based screening ("opt" rows of
Table 1): a tile product contributes only when ``||A_ik|| * ||B_kj|| > tau``
[Calvin, Lewis, Valeev 2015].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.sparse.shape import SparseShape
from repro.util.validation import require


def _check_conformable(a: SparseShape, b: SparseShape) -> None:
    require(
        a.cols == b.rows,
        f"inner tilings differ: A has {a.cols.ntiles} tile cols over extent "
        f"{a.cols.extent}, B has {b.rows.ntiles} tile rows over extent {b.rows.extent}",
    )


def product_shape(a: SparseShape, b: SparseShape) -> SparseShape:
    """Occupancy of ``C = A @ B`` (a tile is present when any k contributes)."""
    _check_conformable(a, b)
    c = (a.pattern() @ b.pattern()).tocsr()
    c.data = np.ones_like(c.data)
    return SparseShape(a.rows, b.cols, c)


def pair_count_matrix(a: SparseShape, b: SparseShape) -> sp.csr_matrix:
    """CSR whose entry ``(i, j)`` is the number of contributing ``k`` tiles."""
    _check_conformable(a, b)
    return (a.pattern() @ b.pattern()).tocsr()


def gemm_task_count(a: SparseShape, b: SparseShape) -> int:
    """Total number of tile-level GEMM tasks in ``C = A @ B``."""
    return int(pair_count_matrix(a, b).sum())


def flop_matrix(a: SparseShape, b: SparseShape) -> sp.csr_matrix:
    """CSR whose entry ``(i, j)`` is the flop count of C tile ``(i, j)``.

    ``flops[i,j] = 2 * m_i * n_j * sum_k [A_ik][B_kj] * k_k`` — computed as
    one sparse product with the inner tile sizes folded into A's values.
    """
    _check_conformable(a, b)
    k_sizes = a.cols.sizes.astype(np.float64)
    a_scaled = a.pattern().multiply(k_sizes[None, :]).tocsr()
    inner = (a_scaled @ b.pattern()).tocsr()  # (i,j) -> sum_k k_k
    coo = inner.tocoo()
    m = a.rows.sizes.astype(np.float64)
    n = b.cols.sizes.astype(np.float64)
    vals = 2.0 * m[coo.row] * coo.data * n[coo.col]
    return sp.csr_matrix((vals, (coo.row, coo.col)), shape=inner.shape)


def gemm_flops(a: SparseShape, b: SparseShape) -> float:
    """Total flop count of the block-sparse product."""
    return float(flop_matrix(a, b).sum())


def per_column_flops(a: SparseShape, b: SparseShape) -> np.ndarray:
    """Flop weight ``f_j`` of every tile column of B (length ``N^(t)``).

    This is the quantity the column-assignment phase (3.2.1) sorts and deals
    out to the ``q`` processors of a grid row.
    """
    fm = flop_matrix(a, b)
    return np.asarray(fm.sum(axis=0)).ravel()


# -- screened ("opt") variants ------------------------------------------------


@dataclass(frozen=True)
class ScreenedProduct:
    """Outputs of a norm-screened contraction plan.

    Attributes
    ----------
    shape:
        Occupancy of the screened ``C`` (tiles with at least one surviving
        contribution).
    task_count:
        Number of surviving tile GEMMs.
    flops:
        Flop count of the surviving tile GEMMs.
    dropped_tasks:
        Number of tile GEMMs removed by screening.
    """

    shape: SparseShape
    task_count: int
    flops: float
    dropped_tasks: int


def screened_product(
    a: SparseShape, b: SparseShape, threshold: float = 0.0
) -> ScreenedProduct:
    """Norm-screened product: keep triple ``(i,k,j)`` iff
    ``||A_ik|| * ||B_kj|| > threshold``.

    Runs one pass over the inner tile index ``k``; each pass is a vectorized
    outer combination of A's column-k nonzeros with B's row-k nonzeros, so
    the total work is proportional to the number of surviving + screened
    triples (1.9 M for C65H132 v1), all in NumPy.
    """
    _check_conformable(a, b)
    a_csc = a.csr.tocsc()
    b_csr = b.csr
    m = a.rows.sizes.astype(np.float64)
    n = b.cols.sizes.astype(np.float64)
    k_sz = a.cols.sizes.astype(np.float64)

    nK = a.cols.ntiles
    total_tasks = 0
    dropped = 0
    flops = 0.0
    # Accumulate surviving C occupancy as per-k contributions.
    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []

    for k in range(nK):
        ai = a_csc.indices[a_csc.indptr[k] : a_csc.indptr[k + 1]]
        if ai.size == 0:
            continue
        bj = b_csr.indices[b_csr.indptr[k] : b_csr.indptr[k + 1]]
        if bj.size == 0:
            continue
        an = a_csc.data[a_csc.indptr[k] : a_csc.indptr[k + 1]]
        bn = b_csr.data[b_csr.indptr[k] : b_csr.indptr[k + 1]]
        prod = an[:, None] * bn[None, :]
        keep = prod > threshold
        nkeep = int(keep.sum())
        total_tasks += nkeep
        dropped += prod.size - nkeep
        if nkeep == 0:
            continue
        ii, jj = np.nonzero(keep)
        rows_out.append(ai[ii])
        cols_out.append(bj[jj])
        flops += float(2.0 * k_sz[k] * np.sum(m[ai[ii]] * n[bj[jj]]))

    if rows_out:
        rr = np.concatenate(rows_out)
        cc = np.concatenate(cols_out)
        occ = sp.coo_matrix(
            (np.ones(rr.size), (rr, cc)), shape=(a.rows.ntiles, b.cols.ntiles)
        ).tocsr()
        occ.data = np.ones_like(occ.data)
        shape = SparseShape(a.rows, b.cols, occ)
    else:
        shape = SparseShape.empty(a.rows, b.cols)

    return ScreenedProduct(
        shape=shape, task_count=total_tasks, flops=flops, dropped_tasks=dropped
    )


def arithmetic_intensity(
    a: SparseShape, b: SparseShape, c: SparseShape | None = None, dtype_bytes: int = 8
) -> float:
    """Maximum arithmetic intensity (flop/byte) of the contraction.

    Paper Fig. 3: total flops divided by the aggregate size of A, B and C —
    an upper bound realized only if every matrix were loaded to device
    memory exactly once.
    """
    if c is None:
        c = product_shape(a, b)
    flops = gemm_flops(a, b)
    size = (a.element_nnz + b.element_nnz + c.element_nnz) * dtype_bytes
    return flops / size if size else 0.0
