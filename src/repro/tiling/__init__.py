"""Irregular index tilings.

Block-sparse tensors in the paper are tiled *nonuniformly*: the tile
boundaries come from a spatial clustering of basis functions, so tile sizes
vary widely (512–2048 in the synthetic runs; heavy-tailed in the chemistry
runs).  This package provides:

* :class:`~repro.tiling.tiling.Tiling` — an immutable partition of
  ``range(extent)`` into contiguous tiles;
* :func:`~repro.tiling.random.random_tiling` — the paper's synthetic tilings
  (uniform tile sizes in ``[lo, hi]``);
* :mod:`~repro.tiling.kmeans` and
  :class:`~repro.tiling.clustered.ClusteredRange` — the k-means-based
  clustering used for the chemistry problems [Lewis et al. 2016];
* :func:`~repro.tiling.product.fuse` — fused-index (matricized) tilings;
* :mod:`~repro.tiling.stats` — tile-size distributions (paper Fig. 6).
"""

from repro.tiling.tiling import Tiling
from repro.tiling.random import random_tiling
from repro.tiling.product import FusedTiling, fuse
from repro.tiling.clustered import ClusteredRange, cluster_points
from repro.tiling.kmeans import kmeans
from repro.tiling.stats import TileSizeStats

__all__ = [
    "Tiling",
    "random_tiling",
    "FusedTiling",
    "fuse",
    "ClusteredRange",
    "cluster_points",
    "kmeans",
    "TileSizeStats",
]
