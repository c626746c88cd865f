"""Irregular tilings of an index range.

A :class:`Tiling` partitions ``range(extent)`` into contiguous tiles of
(generally) unequal sizes.  It is stored as the monotone offsets array
``[0, s0, s0+s1, ..., extent]`` so that tile lookups are O(log n) via
``searchsorted`` and size queries are vectorized NumPy operations — no
Python loops on the hot paths (tilings with hundreds of thousands of tiles
appear in the paper-scale runs).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.util.validation import require


class Tiling:
    """An immutable partition of ``[0, extent)`` into contiguous tiles.

    Parameters
    ----------
    offsets:
        Strictly increasing integer sequence starting at 0; ``offsets[-1]``
        is the extent and ``offsets[t]:offsets[t+1]`` is tile ``t``.
    """

    __slots__ = ("_offsets",)

    def __init__(self, offsets: Sequence[int] | np.ndarray):
        arr = np.asarray(offsets, dtype=np.int64)
        require(arr.ndim == 1 and arr.size >= 2, "offsets must be a 1-D sequence with >= 2 entries")
        require(arr[0] == 0, "offsets must start at 0")
        require(bool(np.all(np.diff(arr) > 0)), "offsets must be strictly increasing (no empty tiles)")
        arr.setflags(write=False)
        self._offsets = arr

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "Tiling":
        """Build a tiling from per-tile sizes."""
        sizes_arr = np.fromiter(sizes, dtype=np.int64)
        require(sizes_arr.size > 0, "need at least one tile")
        offsets = np.concatenate(([0], np.cumsum(sizes_arr)))
        return cls(offsets)

    @classmethod
    def uniform(cls, extent: int, tile: int) -> "Tiling":
        """Uniform tiling with tiles of size ``tile`` (last tile may be short)."""
        require(extent > 0 and tile > 0, "extent and tile must be positive")
        offsets = np.arange(0, extent, tile, dtype=np.int64)
        return cls(np.concatenate((offsets, [extent])))

    # -- basic queries -----------------------------------------------------

    @property
    def offsets(self) -> np.ndarray:
        """The (read-only) offsets array of length ``ntiles + 1``."""
        return self._offsets

    @property
    def extent(self) -> int:
        """Total number of indices covered."""
        return int(self._offsets[-1])

    @property
    def ntiles(self) -> int:
        """Number of tiles."""
        return self._offsets.size - 1

    @property
    def sizes(self) -> np.ndarray:
        """Per-tile sizes as an ``int64`` array of length ``ntiles``."""
        return np.diff(self._offsets)

    def tile_size(self, t: int) -> int:
        """Size of tile ``t``."""
        return int(self._offsets[t + 1] - self._offsets[t])

    def tile_slice(self, t: int) -> slice:
        """Element slice ``offsets[t]:offsets[t+1]`` of tile ``t``."""
        return slice(int(self._offsets[t]), int(self._offsets[t + 1]))

    # -- derived tilings ---------------------------------------------------

    def restrict(self, tiles: Sequence[int] | np.ndarray) -> "Tiling":
        """A new tiling made of the selected tiles' sizes (re-packed from 0)."""
        sel = np.asarray(tiles, dtype=np.int64)
        return Tiling.from_sizes(self.sizes[sel])

    # -- dunder protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self.ntiles

    def __iter__(self) -> Iterator[slice]:
        for t in range(self.ntiles):
            yield self.tile_slice(t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tiling):
            return NotImplemented
        return self._offsets.shape == other._offsets.shape and bool(
            np.all(self._offsets == other._offsets)
        )

    def __hash__(self) -> int:
        return hash(self._offsets.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.sizes
        return (
            f"Tiling(extent={self.extent}, ntiles={self.ntiles}, "
            f"sizes[min/mean/max]={s.min()}/{s.mean():.0f}/{s.max()})"
        )
