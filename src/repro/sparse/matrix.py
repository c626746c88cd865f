"""Block-sparse matrices with dense NumPy tiles.

:class:`BlockSparseMatrix` is the numeric twin of
:class:`~repro.sparse.shape.SparseShape`: a dictionary of dense tiles keyed
by tile coordinates.  It exists so that the *same* execution plans the
inspector produces for the performance models can also be run numerically
(see :mod:`repro.runtime.numeric`) and checked against a dense reference.

Tile data is always C-contiguous ``float64`` (the paper's runs are double
precision); tile shapes are validated against the tilings on insertion so a
mis-shaped tile can never silently corrupt a contraction.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.sparse.shape import SparseShape
from repro.tiling.tiling import Tiling
from repro.util.validation import require

TileKey = Tuple[int, int]


class BlockSparseMatrix:
    """An irregularly tiled block-sparse matrix with dense tiles.

    Parameters
    ----------
    rows, cols:
        Tilings of the two index ranges.
    tiles:
        Optional initial ``{(i, j): ndarray}`` mapping; arrays are validated
        and converted to C-contiguous float64.
    """

    __slots__ = ("rows", "cols", "_tiles")

    def __init__(
        self,
        rows: Tiling,
        cols: Tiling,
        tiles: Dict[TileKey, np.ndarray] | None = None,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self._tiles: Dict[TileKey, np.ndarray] = {}
        if tiles:
            for (i, j), data in tiles.items():
                self.set_tile(i, j, data)

    # -- element-level geometry ---------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Element-level shape ``(M, N)``."""
        return (self.rows.extent, self.cols.extent)

    @property
    def tile_grid(self) -> tuple[int, int]:
        """Tile-level shape ``(ntile_rows, ntile_cols)``."""
        return (self.rows.ntiles, self.cols.ntiles)

    def tile_shape(self, i: int, j: int) -> tuple[int, int]:
        """Element shape of tile ``(i, j)`` whether present or not."""
        return (self.rows.tile_size(i), self.cols.tile_size(j))

    # -- tile access ---------------------------------------------------------

    @property
    def nnz_tiles(self) -> int:
        """Number of stored tiles."""
        return len(self._tiles)

    @property
    def nbytes(self) -> int:
        """Bytes of stored tile data."""
        return sum(t.nbytes for t in self._tiles.values())

    def has_tile(self, i: int, j: int) -> bool:
        return (i, j) in self._tiles

    def get_tile(self, i: int, j: int) -> np.ndarray:
        """The stored tile ``(i, j)``; raises :class:`KeyError` if absent."""
        return self._tiles[(i, j)]

    def get(self, key: TileKey) -> np.ndarray:
        """The stored tile under ``key = (i, j)`` — the key-addressed read
        a :class:`~repro.dist.TileArena` also offers, so one B source can
        serve a resident matrix and a shared-memory arena alike."""
        return self._tiles[key]

    def __contains__(self, key: TileKey) -> bool:
        return key in self._tiles

    def set_tile(self, i: int, j: int, data: np.ndarray) -> None:
        """Insert/overwrite tile ``(i, j)`` after shape validation."""
        expected = self.tile_shape(i, j)
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.shape != expected:  # formatted only on failure: once per tile
            raise ValueError(f"tile ({i},{j}) has shape {arr.shape}, expected {expected}")
        self._tiles[(i, j)] = arr

    def accumulate_tile(self, i: int, j: int, data: np.ndarray) -> None:
        """``tile += data``, creating the tile if absent."""
        cur = self._tiles.get((i, j))
        if cur is None:
            self.set_tile(i, j, data)
        else:
            cur += data

    def items(self) -> Iterator[tuple[TileKey, np.ndarray]]:
        """Iterate over stored ``((i, j), tile)`` pairs."""
        return iter(self._tiles.items())

    def keys(self) -> Iterator[TileKey]:
        return iter(self._tiles.keys())

    # -- conversions ----------------------------------------------------------

    def sparse_shape(self) -> SparseShape:
        """The tile-occupancy shape of this matrix."""
        if not self._tiles:
            return SparseShape.empty(self.rows, self.cols)
        ii = np.fromiter((k[0] for k in self._tiles), dtype=np.int64, count=len(self._tiles))
        jj = np.fromiter((k[1] for k in self._tiles), dtype=np.int64, count=len(self._tiles))
        return SparseShape.from_coo(self.rows, self.cols, ii, jj)

    def to_dense(self) -> np.ndarray:
        """Materialize the full dense matrix (tests / small problems only)."""
        out = np.zeros(self.shape)
        for (i, j), tile in self._tiles.items():
            out[self.rows.tile_slice(i), self.cols.tile_slice(j)] = tile
        return out

    # -- algebra ---------------------------------------------------------------

    def copy(self) -> "BlockSparseMatrix":
        """Deep copy."""
        out = BlockSparseMatrix(self.rows, self.cols)
        for (i, j), tile in self._tiles.items():
            out._tiles[(i, j)] = tile.copy()
        return out

    def scale(self, alpha: float) -> "BlockSparseMatrix":
        """In-place scaling by ``alpha``; returns self for chaining."""
        for tile in self._tiles.values():
            tile *= alpha
        return self

    def axpy(self, alpha: float, other: "BlockSparseMatrix") -> "BlockSparseMatrix":
        """In-place ``self += alpha * other`` (union of occupancies)."""
        require(
            self.rows == other.rows and self.cols == other.cols,
            "axpy operands live on different tile grids",
        )
        for (i, j), tile in other._tiles.items():
            cur = self._tiles.get((i, j))
            if cur is None:
                self.set_tile(i, j, alpha * tile)
            else:
                cur += alpha * tile
        return self

    def norm_fro(self) -> float:
        """Frobenius norm of the whole matrix."""
        return float(np.sqrt(sum(float(np.vdot(t, t)) for t in self._tiles.values())))

    def allclose(self, other: "BlockSparseMatrix", rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Numerical equality treating absent tiles as zeros."""
        if self.rows != other.rows or self.cols != other.cols:
            return False
        for key in set(self._tiles) | set(other._tiles):
            a = self._tiles.get(key)
            b = other._tiles.get(key)
            if a is None:
                a = np.zeros_like(b)
            if b is None:
                b = np.zeros_like(a)
            if not np.allclose(a, b, rtol=rtol, atol=atol):
                return False
        return True

    def prune(self, tol: float = 0.0) -> "BlockSparseMatrix":
        """Drop tiles whose max-abs entry is ``<= tol`` (in place)."""
        dead = [k for k, t in self._tiles.items() if (t.size == 0 or np.max(np.abs(t)) <= tol)]
        for k in dead:
            del self._tiles[k]
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockSparseMatrix({self.shape[0]}x{self.shape[1]} elements, "
            f"{self.tile_grid[0]}x{self.tile_grid[1]} tiles, nnz={self.nnz_tiles})"
        )
