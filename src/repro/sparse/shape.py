"""Tile-level sparsity shapes.

A :class:`SparseShape` records *which* tiles of an irregularly tiled matrix
are present, independent of their data.  Everything the inspector and the
performance models need — flop counts, per-column weights, communication
volumes, densities for Table 1 — is computed from shapes with vectorized
:mod:`scipy.sparse` algebra, so paper-scale instances (the C65H132 ``V``
matrix has 17.8 M potential tiles, ~430 k present) are handled in
milliseconds without materializing any numeric data.

Shapes may optionally carry per-tile Frobenius norms, which the screened
("opt") variants of the contraction use to drop numerically negligible
products, as in [Calvin, Lewis, Valeev 2015].
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.tiling.tiling import Tiling
from repro.util.validation import require


class SparseShape:
    """Occupancy (and optional norms) of a block-sparse matrix.

    Parameters
    ----------
    rows, cols:
        Tilings of the row and column index ranges.
    mask:
        ``(ntile_rows, ntile_cols)`` occupancy, any scipy-sparse or dense
        boolean-like array.  Stored canonically as CSR ``float64`` whose
        values are the per-tile norms (1.0 when no norms are supplied);
        explicit zeros are pruned.
    """

    __slots__ = ("rows", "cols", "_csr")

    def __init__(self, rows: Tiling, cols: Tiling, mask) -> None:
        self.rows = rows
        self.cols = cols
        csr = sp.csr_matrix(mask, dtype=np.float64, copy=True)
        require(
            csr.shape == (rows.ntiles, cols.ntiles),
            f"mask shape {csr.shape} != tile grid ({rows.ntiles}, {cols.ntiles})",
        )
        csr.eliminate_zeros()
        csr.sum_duplicates()
        self._csr = csr

    # -- constructors ------------------------------------------------------

    @classmethod
    def full(cls, rows: Tiling, cols: Tiling) -> "SparseShape":
        """A fully dense shape (every tile present, norm 1)."""
        return cls(rows, cols, np.ones((rows.ntiles, cols.ntiles)))

    @classmethod
    def empty(cls, rows: Tiling, cols: Tiling) -> "SparseShape":
        """A shape with no tiles present."""
        return cls(rows, cols, sp.csr_matrix((rows.ntiles, cols.ntiles)))

    @classmethod
    def from_coo(
        cls,
        rows: Tiling,
        cols: Tiling,
        tile_rows: np.ndarray,
        tile_cols: np.ndarray,
        norms: np.ndarray | None = None,
    ) -> "SparseShape":
        """Shape from coordinate lists of present tiles."""
        vals = np.ones(len(tile_rows)) if norms is None else np.asarray(norms, dtype=np.float64)
        mat = sp.coo_matrix(
            (vals, (tile_rows, tile_cols)), shape=(rows.ntiles, cols.ntiles)
        )
        return cls(rows, cols, mat)

    # -- basic queries -----------------------------------------------------

    @property
    def csr(self) -> sp.csr_matrix:
        """The canonical CSR (values = per-tile norms, 1.0 by default)."""
        return self._csr

    @property
    def ntile_rows(self) -> int:
        return self.rows.ntiles

    @property
    def ntile_cols(self) -> int:
        return self.cols.ntiles

    @property
    def nnz_tiles(self) -> int:
        """Number of present tiles."""
        return int(self._csr.nnz)

    @property
    def element_nnz(self) -> int:
        """Total element count of all present tiles."""
        i, j = self.nonzero_tiles()
        return int(np.sum(self.rows.sizes[i] * self.cols.sizes[j]))

    @property
    def element_density(self) -> float:
        """Element-wise fill fraction (what the paper calls *density*)."""
        return self.element_nnz / (self.rows.extent * self.cols.extent)

    @property
    def nbytes(self) -> int:
        """Bytes of tile data a double-precision matrix of this shape holds."""
        return self.element_nnz * 8

    def nonzero_tiles(self) -> tuple[np.ndarray, np.ndarray]:
        """``(i, j)`` arrays of present tile coordinates (row-major order)."""
        coo = self._csr.tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64)

    def max_tile_nbytes(self, dtype_bytes: int = 8) -> int:
        """Bytes of the largest *present* tile (0 for an empty shape)."""
        i, j = self.nonzero_tiles()
        if i.size == 0:
            return 0
        return int((self.rows.sizes[i] * self.cols.sizes[j]).max()) * dtype_bytes

    def has_tile(self, i: int, j: int) -> bool:
        """Whether tile ``(i, j)`` is present."""
        return bool(self._csr[i, j] != 0)

    def tile_bytes(self, dtype_bytes: int = 8) -> sp.csr_matrix:
        """CSR whose values are per-tile byte sizes of the present tiles."""
        i, j = self.nonzero_tiles()
        vals = (self.rows.sizes[i] * self.cols.sizes[j] * dtype_bytes).astype(np.float64)
        return sp.csr_matrix((vals, (i, j)), shape=self._csr.shape)

    def pattern(self) -> sp.csr_matrix:
        """0/1 CSR occupancy (norms stripped)."""
        pat = self._csr.copy()
        pat.data = np.ones_like(pat.data)
        return pat

    # -- algebra -----------------------------------------------------------

    def union(self, other: "SparseShape") -> "SparseShape":
        """Tiles present in either (norms added — used for accumulation)."""
        self._check_same_grid(other)
        return SparseShape(self.rows, self.cols, self._csr + other._csr)

    def restrict_rows(self, tile_rows: np.ndarray) -> "SparseShape":
        """Shape of the horizontal slice made of the given tile rows."""
        sel = np.asarray(tile_rows, dtype=np.int64)
        sub = self._csr[sel, :]
        return SparseShape(self.rows.restrict(sel), self.cols, sub)

    def _check_same_grid(self, other: "SparseShape") -> None:
        require(
            self.rows == other.rows and self.cols == other.cols,
            "shapes live on different tile grids",
        )

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseShape):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return (self.pattern() != other.pattern()).nnz == 0

    def __hash__(self) -> int:  # pragma: no cover - shapes used as values
        raise TypeError("SparseShape is not hashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseShape({self.rows.extent}x{self.cols.extent} elements, "
            f"{self.ntile_rows}x{self.ntile_cols} tiles, nnz={self.nnz_tiles}, "
            f"density={self.element_density:.3f})"
        )
