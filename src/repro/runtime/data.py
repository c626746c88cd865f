"""Tile sources: concrete matrices and on-demand generated collections.

The paper's B is never stored: "generation functions allow to instantiate
any tile when needed", with the runtime caching each tile "as long as [it
is] needed by any task, and discarded after this", and the algorithm
guaranteeing each tile is "instantiated at most once per node".

:class:`GeneratedCollection` reproduces that life-cycle, *including* the
reproducibility property: tile values depend only on ``(seed, tile id)``
(per-tile child RNGs), never on instantiation order, so the numeric result
of a run is schedule-independent.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Protocol

import numpy as np

from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.shape import SparseShape
from repro.util.rng import resolve_rng, spawn_rng


class TileSource(Protocol):
    """Anything the numeric executor can pull B tiles from."""

    def has_tile(self, k: int, j: int) -> bool:
        """Whether tile ``(k, j)`` exists (is structurally nonzero)."""
        ...

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        """The tile's data, materialized for process ``proc``."""
        ...


class MatrixSource:
    """Adapter exposing a concrete :class:`BlockSparseMatrix` as a source."""

    def __init__(self, matrix: BlockSparseMatrix):
        self.matrix = matrix
        self.access_counts: Counter = Counter()

    def has_tile(self, k: int, j: int) -> bool:
        return self.matrix.has_tile(k, j)

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        self.access_counts[(proc, k, j)] += 1
        return self.matrix.get_tile(k, j)

    def sparse_shape(self) -> SparseShape:
        return self.matrix.sparse_shape()


class GeneratedCollection:
    """An on-demand tile collection with per-process caching.

    Parameters
    ----------
    shape:
        The occupancy of the virtual matrix.
    fill:
        ``"random"`` (standard normal) or ``"ones"``.
    seed:
        Determines all tile values, independent of instantiation order.
    """

    def __init__(self, shape: SparseShape, fill: str = "random", seed=None):
        if fill not in ("random", "ones"):
            raise ValueError(f"unknown fill {fill!r}; use 'random' or 'ones'")
        self.shape = shape
        self.fill = fill
        self._rng = resolve_rng(seed)
        self._cache: dict[tuple[int, int, int], np.ndarray] = {}
        self.instantiations: Counter = Counter()

    def has_tile(self, k: int, j: int) -> bool:
        return self.shape.has_tile(k, j)

    def tile_shape(self, k: int, j: int) -> tuple[int, int]:
        return (self.shape.rows.tile_size(k), self.shape.cols.tile_size(j))

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        """Materialize tile ``(k, j)`` on process ``proc`` (cached)."""
        if not self.has_tile(k, j):
            raise KeyError(f"tile ({k},{j}) is structurally zero")
        key = (proc, k, j)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        data = self._generate(k, j)
        self._cache[key] = data
        self.instantiations[key] += 1
        return data

    def generate_tile(self, k: int, j: int) -> np.ndarray:
        """A fresh copy of tile ``(k, j)``'s values, bypassing the cache.

        Deterministic in ``(seed, tile id)`` only, so any process holding an
        equal-state collection (e.g. a distributed worker that received one
        by pickling) produces bit-identical tiles.
        """
        if not self.has_tile(k, j):
            raise KeyError(f"tile ({k},{j}) is structurally zero")
        return self._generate(k, j)

    def _generate(self, k: int, j: int) -> np.ndarray:
        tshape = self.tile_shape(k, j)
        if self.fill == "ones":
            return np.ones(tshape)
        child = spawn_rng(self._rng, k * self.shape.ntile_cols + j)
        return child.standard_normal(tshape)

    def evict(self, proc: int, k: int, j: int) -> None:
        """Discard the cached tile (the end of its PaRSEC life-cycle)."""
        self._cache.pop((proc, k, j), None)

    def generated_tiles(self, proc: int | None = None) -> int:
        """Number of tiles instantiated (optionally for one process)."""
        if proc is None:
            return sum(self.instantiations.values())
        return sum(v for (p, _, _), v in self.instantiations.items() if p == proc)

    def max_instantiations_per_proc_tile(self) -> int:
        """The paper's invariant: must be 1 after any run."""
        return max(self.instantiations.values(), default=0)

    def empty_clone(self) -> "GeneratedCollection":
        """An equal-state collection with an empty cache.

        Shares the parent's generator state (generation never advances it),
        so clones — including ones pickled to worker processes — hand out
        bit-identical tiles in any order.  This is what the distributed
        executor scatters to each rank.
        """
        return GeneratedCollection(self.shape, fill=self.fill, seed=self._rng)

    def as_matrix(self) -> BlockSparseMatrix:
        """Materialize the whole collection (tests / small shapes only).

        Values match what :meth:`tile` hands out, because both derive from
        the same per-tile child RNGs.
        """
        out = BlockSparseMatrix(self.shape.rows, self.shape.cols)
        ii, jj = self.shape.nonzero_tiles()
        for k, j in zip(ii.tolist(), jj.tolist()):
            out.set_tile(k, j, self._generate(k, j))
        return out


class DelayedGeneratedCollection(GeneratedCollection):
    """A :class:`GeneratedCollection` whose generation costs wall time.

    Each :meth:`_generate` sleeps ``gen_delay_s`` before producing the
    tile, standing in for the expensive integral/tensor evaluation the
    paper's generation functions perform.  Values are bit-identical to a
    plain collection with the same seed — only the cost differs — so the
    operand fingerprint (and therefore every warm-cache key) matches the
    undelayed twin.  Benchmarks use this to measure cache effectiveness
    with a host-stable, sleep-dominated signal: a warm run skips the
    sleeps, a cold one pays them.
    """

    def __init__(self, shape: SparseShape, fill: str = "random", seed=None,
                 gen_delay_s: float = 0.0):
        super().__init__(shape, fill=fill, seed=seed)
        self.gen_delay_s = gen_delay_s

    def _generate(self, k: int, j: int) -> np.ndarray:
        if self.gen_delay_s > 0.0:
            time.sleep(self.gen_delay_s)
        return super()._generate(k, j)

    def empty_clone(self) -> "DelayedGeneratedCollection":
        return DelayedGeneratedCollection(
            self.shape, fill=self.fill, seed=self._rng,
            gen_delay_s=self.gen_delay_s,
        )
