"""The inspector: shapes -> :class:`~repro.core.plan.ExecutionPlan`.

This is the inspection phase of Section 4: given the occupancy shapes of A
and B and a machine, it runs the three planning stages of Section 3.2 —
column assignment, block partitioning, chunk segmentation — for every
process of the grid, and records every aggregate the executors need.
Cost is ``O(N^t log N^t + nnz(B))`` per grid row, exactly the bound of
Section 3.2.4, and fully vectorized.

The inspector has no knobs: a block may use :data:`~repro.core.plan.BLOCK_FRACTION`
of a GPU, a chunk :data:`~repro.core.plan.CHUNK_FRACTION`, and columns are
dealt mirrored-cyclic.  Every structurally nonzero tile product is planned;
the norm-screened "opt" counts of Table 1 come from
:func:`~repro.sparse.shape_algebra.screened_product` on the shapes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.block_partition import partition_columns_into_blocks
from repro.core.chunking import cyclic_tile_order, split_by_budget
from repro.core.column_assignment import assign_columns
from repro.core.grid import make_grid
from repro.core.plan import (
    BLOCK_FRACTION,
    CHUNK_FRACTION,
    Block,
    Chunk,
    ExecutionPlan,
    ProcPlan,
)
from repro.machine.spec import MachineSpec
from repro.sparse.shape import SparseShape
from repro.sparse.shape_algebra import per_column_flops, product_shape
from repro.util.validation import require

DTYPE_BYTES = 8  # double precision throughout, as in the paper


def _take_columns(csc: sp.csc_matrix, cols: np.ndarray):
    """Gather the nonzeros of the selected columns of a CSC matrix.

    Returns ``(row_idx, col_pos)`` where ``col_pos`` indexes into ``cols``
    (not global column ids).  O(output) with no Python loop.
    """
    cols = np.asarray(cols, dtype=np.int64)
    counts = np.diff(csc.indptr)[cols]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    col_pos = np.repeat(np.arange(cols.size), counts)
    seg_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    within = np.arange(total) - np.repeat(seg_starts, counts)
    src = csc.indptr[cols][col_pos] + within
    return csc.indices[src].astype(np.int64), col_pos


def inspect(
    a_shape: SparseShape,
    b_shape: SparseShape,
    machine: MachineSpec,
    p: int = 1,
    gpus_per_proc: int | None = None,
) -> ExecutionPlan:
    """Plan ``C <- C + A @ B`` on ``machine`` with ``p`` grid rows.

    Parameters
    ----------
    a_shape, b_shape:
        Occupancy shapes of the operands (norms, if any, are ignored).
    machine:
        Target machine; its GPU memory drives block/chunk budgets, its
        kernel model prices the chunks.
    p:
        Number of grid rows (the B-replication trade-off parameter).
    gpus_per_proc:
        GPUs each process drives (default: a whole node).
    """
    require(a_shape.cols == b_shape.rows, "A and B inner tilings differ")
    grid = make_grid(machine, p=p, gpus_per_proc=gpus_per_proc)
    c_shape = product_shape(a_shape, b_shape)

    mt = a_shape.ntile_rows
    m_sizes = a_shape.rows.sizes.astype(np.int64)
    k_sizes = a_shape.cols.sizes.astype(np.int64)
    n_sizes = b_shape.cols.sizes.astype(np.int64)

    b_csc = b_shape.csr.tocsc()
    c_csr = c_shape.csr

    gpu = machine.gpu
    h = gpu.eff_half_dim
    peak = gpu.gemm_peak
    block_budget = int(gpu.memory_bytes * BLOCK_FRACTION)
    chunk_budget = int(gpu.memory_bytes * CHUNK_FRACTION)

    procs: list[ProcPlan] = []
    for r in range(grid.p):
        slice_rows = grid.slice_tile_rows(r, mt)
        a_slice = a_shape.restrict_rows(slice_rows)
        a_slice_csc = a_slice.csr.tocsc()
        m_slice = m_sizes[slice_rows]

        # ---- 3.2.1: column assignment on this slice ----------------------
        col_flops = per_column_flops(a_slice, b_shape)
        assignment = assign_columns(col_flops, grid.q)

        # Per-column footprints: B tiles and local C.
        b_col_bytes = _column_bytes_b(b_csc, k_sizes, n_sizes)
        c_slice = c_shape.restrict_rows(slice_rows)
        c_col_bytes = _column_bytes_c(c_slice, n_sizes)

        for l in range(grid.q):
            cols_l = assignment.columns[l]
            proc = _plan_process(
                rank=grid.rank(r, l),
                row=r,
                col=l,
                cols=cols_l,
                slice_rows=slice_rows,
                a_slice_csc=a_slice_csc,
                b_csc=b_csc,
                c_csr=c_csr,
                m_slice=m_slice,
                k_sizes=k_sizes,
                n_sizes=n_sizes,
                b_col_bytes=b_col_bytes,
                c_col_bytes=c_col_bytes,
                grid=grid,
                gpu_memory=gpu.memory_bytes,
                block_budget=block_budget,
                chunk_budget=chunk_budget,
                h=h,
                peak=peak,
            )
            procs.append(proc)

    plan = ExecutionPlan(
        grid=grid,
        a_shape=a_shape,
        b_shape=b_shape,
        c_shape=c_shape,
        procs=procs,
        gpu_memory_bytes=gpu.memory_bytes,
    )
    _fill_comm_volumes(plan)
    return plan


def _column_bytes_b(b_csc, k_sizes, n_sizes) -> np.ndarray:
    """Per-column B footprint in bytes."""
    ntc = b_csc.shape[1]
    out = np.zeros(ntc, dtype=np.int64)
    kk = b_csc.indices
    col = np.repeat(np.arange(ntc), np.diff(b_csc.indptr))
    np.add.at(out, col, k_sizes[kk] * n_sizes[col] * DTYPE_BYTES)
    return out


def _column_bytes_c(c_slice: SparseShape, n_sizes) -> np.ndarray:
    """Per-column local C footprint in bytes for one grid-row slice."""
    pat = c_slice.pattern()
    rows_per_col = pat.T @ c_slice.rows.sizes.astype(np.float64)
    return (rows_per_col * n_sizes * DTYPE_BYTES).astype(np.int64)


def _plan_process(
    rank,
    row,
    col,
    cols,
    slice_rows,
    a_slice_csc,
    b_csc,
    c_csr,
    m_slice,
    k_sizes,
    n_sizes,
    b_col_bytes,
    c_col_bytes,
    grid,
    gpu_memory,
    block_budget,
    chunk_budget,
    h,
    peak,
) -> ProcPlan:
    """Build one process's blocks and chunks."""
    nK = b_csc.shape[0]

    # ---- 3.2.2: worst-fit block partition --------------------------------
    col_bytes = b_col_bytes[cols] + c_col_bytes[cols]
    col_blocks = partition_columns_into_blocks(
        cols, col_bytes, gpu_memory, grid.gpus_per_proc
    )

    blocks: list[Block] = []
    needed_keys: list[np.ndarray] = []
    b_gen_tiles = 0
    b_gen_bytes = 0
    c_bytes_total = 0

    # C occupancy of the slice, as CSC for fast per-column-set row queries.
    c_slice_csc = c_csr[slice_rows].tocsc()

    for cb in col_blocks:
        bcols = np.asarray(cb.columns, dtype=np.int64)

        # B tiles of the block.
        kk, col_pos = _take_columns(b_csc, bcols)
        b_tile_count = kk.size
        b_bytes = int(np.sum(k_sizes[kk] * n_sizes[bcols[col_pos]]) * DTYPE_BYTES)

        # Per-inner-tile aggregates over the block's columns.
        cnt_k = np.zeros(nK, dtype=np.int64)
        nsum_k = np.zeros(nK, dtype=np.int64)
        np.add.at(cnt_k, kk, 1)
        np.add.at(nsum_k, kk, n_sizes[bcols[col_pos]])
        k_tiles = np.unique(kk)

        # C tiles of the block (local slice rows x block columns).
        crows, _ = _take_columns(c_slice_csc, bcols)
        c_tile_count = crows.size
        ccol_counts = np.diff(c_slice_csc.indptr)[bcols]
        ccols_rep = np.repeat(bcols, ccol_counts)
        c_bytes = int(np.sum(m_slice[crows] * n_sizes[ccols_rep]) * DTYPE_BYTES)
        c_bytes_total += c_bytes

        # Oversized singleton blocks (largest dense instances) shrink the
        # chunk budget to half of whatever device memory remains.
        resident = b_bytes + c_bytes
        block_chunk_budget = chunk_budget
        if resident > block_budget:
            block_chunk_budget = max((gpu_memory - resident) // 2, 1)

        # A tiles needed by the block: slice rows crossed with k_tiles.
        ai_local, k_pos = _take_columns(a_slice_csc, k_tiles)
        ak = k_tiles[k_pos]
        ai_global = slice_rows[ai_local]
        a_tile_bytes = (m_slice[ai_local] * k_sizes[ak] * DTYPE_BYTES).astype(np.int64)

        # Per-A-tile task aggregates.
        t_cnt = cnt_k[ak]
        t_nsum = nsum_k[ak]
        t_flops = 2.0 * m_slice[ai_local] * k_sizes[ak] * t_nsum
        t_dev = (
            (2.0 / peak)
            * (m_slice[ai_local] + h)
            * (k_sizes[ak] + h)
            * (t_nsum + h * t_cnt)
        )

        # ---- 3.2.3: chunk segmentation ------------------------------------
        order = cyclic_tile_order(ai_global, ak)
        chunks: list[Chunk] = []
        if order.size:
            rows_o = ai_global[order]
            cols_o = ak[order]
            bytes_o = a_tile_bytes[order]
            flops_o = t_flops[order]
            dev_o = t_dev[order]
            cnt_o = t_cnt[order]
            for seg in split_by_budget(bytes_o, block_chunk_budget):
                chunks.append(
                    Chunk(
                        a_rows=rows_o[seg],
                        a_cols=cols_o[seg],
                        a_bytes=int(bytes_o[seg].sum()),
                        ntasks=int(cnt_o[seg].sum()),
                        flops=float(flops_o[seg].sum()),
                        device_seconds=float(dev_o[seg].sum()),
                    )
                )

        blocks.append(
            Block(
                gpu=cb.gpu,
                columns=bcols,
                b_bytes=b_bytes,
                c_bytes=c_bytes,
                b_tile_count=int(b_tile_count),
                c_tile_count=int(c_tile_count),
                k_tiles=k_tiles,
                chunks=chunks,
            )
        )
        b_gen_tiles += int(b_tile_count)
        b_gen_bytes += b_bytes
        if ai_global.size:
            needed_keys.append(ai_global * nK + ak)

    # Deduplicated A tiles this process touches.
    if needed_keys:
        uniq = np.unique(np.concatenate(needed_keys))
        a_rows_u = uniq // nK
        a_cols_u = uniq % nK
        a_needed_bytes = int(
            np.sum(
                m_slice[np.searchsorted(slice_rows, a_rows_u)]
                * k_sizes[a_cols_u]
                * DTYPE_BYTES
            )
        )
    else:
        a_rows_u = np.empty(0, dtype=np.int64)
        a_cols_u = np.empty(0, dtype=np.int64)
        a_needed_bytes = 0

    return ProcPlan(
        rank=rank,
        row=row,
        col=col,
        columns=np.sort(np.asarray(cols, dtype=np.int64)),
        blocks=blocks,
        a_slice_rows=slice_rows,
        a_needed_rows=a_rows_u,
        a_needed_cols=a_cols_u,
        a_needed_bytes=a_needed_bytes,
        b_gen_bytes=b_gen_bytes,
        b_gen_tiles=b_gen_tiles,
        c_bytes=c_bytes_total,
    )


def expected_comm_volumes(plan: ExecutionPlan) -> dict[int, dict[str, int]]:
    """Internode A/C traffic per rank implied by the plan (Section 3.2.4).

    Pure recomputation from the plan's needed-tile sets and shapes; the
    inspector assigns these onto the :class:`ProcPlan` s, and the plan
    verifier (:mod:`repro.analysis.plan_checks`) compares them against the
    stored values to detect aggregate drift.
    """
    grid = plan.grid
    nK = plan.a_shape.ntile_cols
    m = plan.a_shape.rows.sizes.astype(np.int64)
    k = plan.a_shape.cols.sizes.astype(np.int64)
    n = plan.b_shape.cols.sizes.astype(np.int64)

    out = {
        pp.rank: {"a_recv_bytes": 0, "a_send_bytes": 0,
                  "c_send_bytes": 0, "c_recv_bytes": 0}
        for pp in plan.procs
    }
    for r in range(grid.p):
        row_procs = [pp for pp in plan.procs if pp.row == r]
        # A: tiles needed but owned elsewhere in the grid row.
        for pp in row_procs:
            owner_col = pp.a_needed_cols % grid.q
            bytes_each = m[pp.a_needed_rows] * k[pp.a_needed_cols] * DTYPE_BYTES
            remote = owner_col != pp.col
            out[pp.rank]["a_recv_bytes"] = int(bytes_each[remote].sum())
        # Senders inject each owned tile into the broadcast *once* if any
        # remote process needs it (PaRSEC disseminates along a pipelined
        # tree, so forwarding is absorbed into the receivers' volumes).
        send = np.zeros(grid.q, dtype=np.int64)
        remote_keys: list[np.ndarray] = []
        for pp in row_procs:
            keys = pp.a_needed_rows * nK + pp.a_needed_cols
            owner_col = pp.a_needed_cols % grid.q
            remote_keys.append(keys[owner_col != pp.col])
        if remote_keys:
            uniq = np.unique(np.concatenate(remote_keys)) if any(
                rk.size for rk in remote_keys
            ) else np.empty(0, dtype=np.int64)
            if uniq.size:
                ui = uniq // nK
                uk = uniq % nK
                np.add.at(send, uk % grid.q, m[ui] * k[uk] * DTYPE_BYTES)
        for pp in row_procs:
            out[pp.rank]["a_send_bytes"] = int(send[pp.col])

        # C: produced at (r, l); final home is 2D-cyclic at (j mod q).
        recv_c = np.zeros(grid.q, dtype=np.int64)
        for pp in row_procs:
            c_sub = plan.c_shape.csr[pp.a_slice_rows][:, pp.columns].tocoo()
            if c_sub.nnz == 0:
                continue
            gi = pp.a_slice_rows[c_sub.row]
            gj = pp.columns[c_sub.col]
            bytes_each = m[gi] * n[gj] * DTYPE_BYTES
            home = gj % grid.q
            moved = home != pp.col
            out[pp.rank]["c_send_bytes"] = int(bytes_each[moved].sum())
            np.add.at(recv_c, home[moved], bytes_each[moved])
        for pp in row_procs:
            out[pp.rank]["c_recv_bytes"] = int(recv_c[pp.col])
    return out


def _fill_comm_volumes(plan: ExecutionPlan) -> None:
    """Assign the Section 3.2.4 traffic volumes onto every process plan."""
    volumes = expected_comm_volumes(plan)
    for pp in plan.procs:
        vols = volumes[pp.rank]
        pp.a_recv_bytes = vols["a_recv_bytes"]
        pp.a_send_bytes = vols["a_send_bytes"]
        pp.c_send_bytes = vols["c_send_bytes"]
        pp.c_recv_bytes = vols["c_recv_bytes"]
