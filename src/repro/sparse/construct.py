"""Constructors for :class:`~repro.sparse.matrix.BlockSparseMatrix`."""

from __future__ import annotations

import numpy as np

from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.random_sparsity import random_shape_with_density
from repro.sparse.shape import SparseShape
from repro.tiling.tiling import Tiling
from repro.util.rng import resolve_rng, spawn_rng


def zeros(rows: Tiling, cols: Tiling) -> BlockSparseMatrix:
    """A matrix with no stored tiles (identically zero)."""
    return BlockSparseMatrix(rows, cols)


def from_dense(
    dense: np.ndarray,
    rows: Tiling,
    cols: Tiling,
    drop_tol: float | None = 0.0,
) -> BlockSparseMatrix:
    """Tile a dense array; tiles with max-abs ``<= drop_tol`` are omitted.

    Pass ``drop_tol=None`` to keep every tile including all-zero ones.
    """
    if dense.shape != (rows.extent, cols.extent):
        raise ValueError(f"dense shape {dense.shape} != ({rows.extent}, {cols.extent})")
    out = BlockSparseMatrix(rows, cols)
    for i in range(rows.ntiles):
        ri = rows.tile_slice(i)
        for j in range(cols.ntiles):
            tile = dense[ri, cols.tile_slice(j)]
            if drop_tol is None or np.max(np.abs(tile), initial=0.0) > drop_tol:
                out.set_tile(i, j, tile)
    return out


def from_shape(
    shape: SparseShape,
    fill: str = "random",
    seed: int | None | np.random.Generator = None,
) -> BlockSparseMatrix:
    """Materialize numeric tiles for every present tile of ``shape``.

    ``fill`` is ``"random"`` (standard normal entries), ``"ones"``, or
    ``"zeros"``.  Tile data is derived from a per-tile child RNG keyed by the
    tile id, so the same seed produces the same matrix regardless of
    instantiation order — the property the paper's on-demand B generator
    relies on.
    """
    rng = resolve_rng(seed)
    out = BlockSparseMatrix(shape.rows, shape.cols)
    ii, jj = shape.nonzero_tiles()
    ntc = shape.ntile_cols
    for i, j in zip(ii.tolist(), jj.tolist()):
        tshape = (shape.rows.tile_size(i), shape.cols.tile_size(j))
        if fill == "random":
            child = spawn_rng(rng, i * ntc + j)
            out.set_tile(i, j, child.standard_normal(tshape))
        elif fill == "ones":
            out.set_tile(i, j, np.ones(tshape))
        elif fill == "zeros":
            out.set_tile(i, j, np.zeros(tshape))
        else:
            raise ValueError(f"unknown fill {fill!r}")
    return out


def random_block_sparse(
    rows: Tiling,
    cols: Tiling,
    density: float,
    seed: int | None | np.random.Generator = None,
) -> BlockSparseMatrix:
    """A random matrix with the paper's synthetic sparsity at ``density``.

    The occupancy comes from the iterative elimination generator
    (:func:`~repro.sparse.random_sparsity.random_shape_with_density`);
    tile values are standard normal.
    """
    rng = resolve_rng(seed)
    shape = random_shape_with_density(rows, cols, density, seed=rng)
    return from_shape(shape, fill="random", seed=rng)
