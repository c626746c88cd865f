"""B tile sources: the on-demand generated collection, and the per-rank
sources the one block body pulls B from.

The paper's B is never stored: "generation functions allow to instantiate
any tile when needed", with the runtime caching each tile "as long as [it
is] needed by any task, and discarded after this", and the algorithm
guaranteeing each tile is "instantiated at most once per node".

:class:`GeneratedCollection` is the generator: tile values depend only on
``(seed, tile id)`` (per-tile child RNGs), never on instantiation order, so
the numeric result of a run is schedule-independent and any equal-state
copy — one pickled to a worker — hands out bit-identical tiles.

Every executor of a rank's blocks — the serial oracle
(:func:`repro.runtime.numeric.execute_plan`), a distributed worker, the
inline spare — pulls B through one source per rank:

* :class:`BService` for a generated B: the life-cycle above, under an LRU
  byte budget enforced through :class:`~repro.runtime.gpu_memory.GpuMemory`
  reservations.  A miss looks in a serving pool's process-lifetime warm
  tier (``warm``, a :class:`repro.serve.WarmTileCache`), then in the
  persistent disk tier (``store``, a :class:`repro.store.TileStore`), and
  only then generates.  Both tiers are keyed ``(b:<operand fingerprint>,
  (k, j))``, so whichever answered, the tile is bit-identical to what the
  generator would produce;
* :class:`ConcreteBSource` for a concrete B: read in place — the matrix
  the oracle or a forked worker holds, or a shared-memory arena a pooled or
  spawned worker attached — with nothing to cache or evict.

Both count what the body's stats report (``b_tiles_generated`` and the
per-tile instantiation bound), so serial and distributed stats are equal
by construction.  The body evicts a block's tiles at the end of the
block's life-cycle, and the plan needs each tile in one block per rank, so
the LRU never sheds a tile that is needed again: the "instantiated at most
once per rank" invariant holds (:meth:`BService.max_instantiations`).

One copy rule: a disk-tier hit is a read-only mmap view that dies with its
store, so it is copied once, when it is promoted into the warm tier; a
generated tile enters the warm tier as the generator's own array, made
read-only.  Nothing else is copied.

Budget validation: a tile larger than the whole budget would make
:meth:`BService.tile` empty the entire LRU and still fail inside a worker,
so :func:`validate_b_budget` rejects that configuration up front — at
:class:`BService` construction, in the coordinator before any worker
spawns, and statically in the plan verifier (rule ``P114``).

Observability: pass a :class:`~repro.runtime.tracing.SpanRecorder` and the
service records one ``gen.<k>.<j>`` span per generation on the rank's
``cpu.<rank>`` resource (the simulator's B-generation vocabulary).  Hits,
tier hits and LRU evictions are plain attributes a rank's report carries
home.
"""

from __future__ import annotations

import time
from collections import Counter, OrderedDict
from typing import Protocol

import numpy as np

from repro.runtime.gpu_memory import GpuMemory
from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.shape import SparseShape
from repro.util.rng import resolve_rng, spawn_rng


class TileSource(Protocol):
    """What the block body pulls one rank's B tiles from."""

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        """The tile's data, materialized for process ``proc``."""
        ...

    def evict(self, proc: int, k: int, j: int) -> None:
        """The end of the tile's life-cycle on ``proc``."""
        ...

    def generated_tiles(self) -> int:
        """Tiles materialized (``NumericStats.b_tiles_generated``)."""
        ...

    def max_instantiations(self) -> int:
        """The most times any one tile was materialized."""
        ...


class GeneratedCollection:
    """An on-demand tile collection: a pure, order-independent generator.

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

    def has_tile(self, k: int, j: int) -> bool:
        return self.shape.has_tile(k, j)

    def tile_shape(self, k: int, j: int) -> tuple[int, int]:
        return (self.shape.rows.tile_size(k), self.shape.cols.tile_size(j))

    def generate_tile(self, k: int, j: int) -> np.ndarray:
        """A fresh array of tile ``(k, j)``'s values.

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

    def empty_clone(self) -> "GeneratedCollection":
        """An equal-state collection.

        Shares the parent's generator state (generation never advances it),
        so clones — including ones pickled to worker processes — hand out
        bit-identical tiles in any order.
        """
        return GeneratedCollection(self.shape, fill=self.fill, seed=self._rng)

    def as_matrix(self) -> BlockSparseMatrix:
        """Materialize the whole collection (tests / small shapes only)."""
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


def validate_b_budget(shape, budget_bytes: int) -> None:
    """Reject a B-service budget that cannot hold the largest B tile.

    Raises a :class:`ValueError` with an actionable message — this runs in
    the coordinator (and at :class:`BService` construction) *before* any
    worker starts, instead of letting the LRU empty itself and die with a
    bare ``GpuMemoryError`` deep inside a worker process.
    """
    biggest = shape.max_tile_nbytes()
    if biggest > budget_bytes:
        raise ValueError(
            f"B-service budget ({budget_bytes} B) cannot hold the largest "
            f"B tile ({biggest} B): the LRU would evict its entire cache "
            f"and still fail mid-run; raise the machine's GPU memory or "
            f"retile B with smaller tiles"
        )


class BService:
    """One rank's generated B tiles, LRU-cached under a byte budget, in
    front of an optional warm tier and disk tier (both ``get(ns, key)`` /
    ``put(ns, key, arr)``, keyed in namespace ``ns``)."""

    def __init__(self, collection, budget_bytes: int, recorder=None, *,
                 warm=None, store=None, ns: str = ""):
        validate_b_budget(collection.shape, budget_bytes)
        self._col = collection
        self._mem = GpuMemory(budget_bytes)
        self._lru: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self.instantiations: Counter = Counter()
        self.hits = 0
        self.lru_evictions = 0
        self.store_hits = 0  # served by the warm or the disk tier
        self._warm, self._store, self._ns = warm, store, ns
        self._rec = recorder

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        key = (k, j)
        data = self._lru.get(key)
        if data is not None:
            self._lru.move_to_end(key)
            self.hits += 1
            return data
        warm, store, ns = self._warm, self._store, self._ns
        data = warm.get(ns, key) if warm is not None else None
        if data is None and store is not None:
            data = store.get(ns, key)
            if data is not None and warm is not None:
                data = np.array(data)  # the mmap view dies with its store
                data.flags.writeable = False
                warm.put(ns, key, data)
        if data is not None:
            self.store_hits += 1
        else:
            rec = self._rec
            timed = rec is not None and rec.enabled
            t_start = rec.now() if timed else 0.0
            data = self._col.generate_tile(k, j)
            data.flags.writeable = False
            if timed:
                rec.record(f"gen.{k}.{j}", f"cpu.{proc}", t_start, rec.now())
            if warm is not None:
                warm.put(ns, key, data)
            if store is not None:
                store.put(ns, key, data)
        # Whichever tier answered, the tile was materialized on this rank.
        self.instantiations[key] += 1
        # Make room: shed least-recently-used tiles until the budget fits.
        while self._lru and self._mem.free < data.nbytes:
            old, _ = self._lru.popitem(last=False)
            self._mem.release(f"b{old}")
            self.lru_evictions += 1
        self._mem.reserve(f"b{key}", data.nbytes)
        self._lru[key] = data
        return data

    def evict(self, proc: int, k: int, j: int) -> None:
        """End-of-block-life-cycle eviction; a tile not held is a no-op."""
        if self._lru.pop((k, j), None) is not None:
            self._mem.release(f"b{(k, j)}")

    def generated_tiles(self) -> int:
        """Total tile instantiations on this rank."""
        return sum(self.instantiations.values())

    def max_instantiations(self) -> int:
        """The paper's invariant: must be 1 after any fault-free run."""
        return max(self.instantiations.values(), default=0)


class ConcreteBSource:
    """A concrete B operand read in place, never copied or cached.

    ``tiles`` is anything with ``get(key)``: a
    :class:`~repro.sparse.matrix.BlockSparseMatrix` or a
    :class:`~repro.dist.tile_store.TileArena`.  Counts distinct tile pulls
    as the tiles it materialized; repeat pulls count as hits (the operand
    *is* the cache), so the tallies read like a :class:`BService`'s.
    """

    store_hits = 0
    lru_evictions = 0

    def __init__(self, tiles):
        self._tiles = tiles
        self._pulled: set[tuple[int, int]] = set()
        self.hits = 0

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        if (k, j) in self._pulled:
            self.hits += 1
        else:
            self._pulled.add((k, j))
        return self._tiles.get((k, j))

    def evict(self, proc: int, k: int, j: int) -> None:
        """Nothing to evict: the operand outlives every block."""

    def generated_tiles(self) -> int:
        return len(self._pulled)

    def max_instantiations(self) -> int:
        return 1 if self._pulled else 0
