"""Fused-index (matricized) tilings.

Matricizing the order-4 tensor ``T[i,j,c,d]`` into the matrix ``A[(ij),(cd)]``
fuses index pairs.  If ``i`` is tiled with ``n1`` tiles and ``j`` with ``n2``,
the fused range ``ij`` has ``n1*n2`` tiles whose sizes are the outer product
of the constituent tile sizes, ordered with ``i`` outermost (row-major pair
order) — exactly the layout the paper's Fig. 5 renders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tiling.tiling import Tiling


@dataclass(frozen=True)
class FusedTiling:
    """A tiling of a fused index pair, with pair-coordinate bookkeeping.

    Attributes
    ----------
    tiling:
        The fused :class:`Tiling` with ``n1 * n2`` tiles.
    n1, n2:
        Tile counts of the outer and inner constituent tilings.
    """

    tiling: Tiling
    n1: int
    n2: int

    @property
    def ntiles(self) -> int:
        return self.tiling.ntiles


def fuse(outer: Tiling, inner: Tiling) -> FusedTiling:
    """Fuse two tilings into the tiling of the row-major index pair.

    The fused tile ``(t1, t2)`` has size ``outer.sizes[t1] * inner.sizes[t2]``
    and appears at position ``t1 * inner.ntiles + t2``.

    Note: the fused tiles are *not* contiguous sub-ranges of the fused index
    space in general (a pair tile is a strided 2-D patch), but for block
    algebra only tile *sizes* and identities matter, which this preserves.
    """
    sizes = np.multiply.outer(outer.sizes, inner.sizes).reshape(-1)
    return FusedTiling(tiling=Tiling.from_sizes(sizes), n1=outer.ntiles, n2=inner.ntiles)


def fuse_centers(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Pair centroids for fused tiles: midpoint of the constituent centroids.

    Used by the screening model: the "position" of a product function
    ``phi_c * phi_d`` is approximated by the midpoint of the two cluster
    centers, standard practice for Schwarz-type screening at tile granularity.
    """
    c1 = np.atleast_2d(c1)
    c2 = np.atleast_2d(c2)
    n1, d = c1.shape
    n2 = c2.shape[0]
    out = 0.5 * (c1[:, None, :] + c2[None, :, :])
    return out.reshape(n1 * n2, d)


def fuse_radii(c1: np.ndarray, r1: np.ndarray, c2: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Pair radii for fused tiles.

    A pair cluster spans from one constituent cluster to the other, so its
    radius from the midpoint is ``|c1 - c2|/2`` plus the larger member radius.
    """
    c1 = np.atleast_2d(c1)
    c2 = np.atleast_2d(c2)
    sep = np.linalg.norm(c1[:, None, :] - c2[None, :, :], axis=2) / 2.0
    rad = sep + np.maximum(np.asarray(r1)[:, None], np.asarray(r2)[None, :])
    return rad.reshape(-1)
