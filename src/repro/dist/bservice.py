"""Per-rank B tile service: on-demand generation under an LRU byte budget.

The paper's B is never stored globally — "generation functions allow to
instantiate any tile when needed", each tile "at most once per node".  In
the multi-process executor every worker owns a :class:`BService` for its
rank.  Two backings exist:

* **generated** — tiles are produced by a
  :class:`~repro.runtime.data.GeneratedCollection` equal-state copy the
  coordinator shipped in the scatter (values depend only on
  ``(seed, tile id)``, so every attempt of every rank sees identical
  bytes), and cached under an LRU byte budget enforced through
  :class:`~repro.runtime.gpu_memory.GpuMemory` reservations — the same
  accounting discipline the block/chunk residency uses;
* **concrete** — a materialised B is read where it lives, the matrix a
  forked worker inherited or the shared-memory arena a pooled or spawned
  one attached (nothing to cache or evict, but distinct-tile pulls are
  still counted so stats match the serial
  :class:`~repro.runtime.data.MatrixSource` accounting).

The generated backing optionally gains a **persistent second tier**: a
:class:`~repro.store.TileStore` consulted on every LRU miss before the
generator runs.  Tiles land in the store keyed by
``(b:<operand fingerprint>, (k, j))``, so runs over identical operands —
and ranks sharing a filesystem — reuse each other's generation work across
process lifetimes.  Store reads count as instantiations (the tile *was*
materialized on the rank), keeping both the once-per-rank invariant and
the serial-vs-distributed stats parity intact.

The executor evicts a block's tiles at the end of the block's life-cycle,
and the plan guarantees each tile is needed by exactly one block per rank,
so the LRU never has to evict a tile that will be needed again: the
"instantiated at most once per rank" invariant survives (and is asserted in
the tests via :meth:`BService.max_instantiations`).

Budget validation: a tile larger than the whole budget would make
:meth:`BService.tile` empty the entire LRU and still fail inside a worker,
so :func:`validate_b_budget` rejects that configuration up front — at
:class:`BService` construction, in the coordinator before any worker
spawns, and statically in the plan verifier (rule ``P114``).

Observability: pass a :class:`~repro.runtime.tracing.SpanRecorder` and the
service records one ``gen.<k>.<j>`` span per instantiation on the rank's
``cpu.<rank>`` resource (the simulator's B-generation vocabulary).  Hits,
instantiations and evictions are plain attributes; the rank's report
carries them into :class:`~repro.dist.DistReport`, whose ``metrics`` is a
fold of those fields (:data:`repro.runtime.metrics.SERIES`).
"""

from __future__ import annotations

from collections import Counter, OrderedDict

import numpy as np

from repro.runtime.gpu_memory import GpuMemory


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
    """On-demand B tiles for one rank, LRU-cached under a byte budget.

    Implements the :class:`~repro.runtime.data.TileSource` protocol (plus
    ``evict``) so it drops into :func:`repro.runtime.numeric.execute_blocks`
    unchanged.
    """

    def __init__(self, collection, budget_bytes: int, recorder=None,
                 store=None, store_ns: str = ""):
        validate_b_budget(collection.shape, budget_bytes)
        self._col = collection
        self._mem = GpuMemory(budget_bytes)
        self._lru: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self.instantiations: Counter = Counter()
        self.hits = 0
        self.lru_evictions = 0
        self.store_hits = 0
        self._store = store
        self._store_ns = store_ns
        self._rec = recorder

    def has_tile(self, k: int, j: int) -> bool:
        return self._col.has_tile(k, j)

    def tile_nbytes(self, k: int, j: int) -> int:
        return self._col.tile_nbytes(k, j)

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        key = (k, j)
        hit = self._lru.get(key)
        if hit is not None:
            self._lru.move_to_end(key)
            self.hits += 1
            return hit
        rec = self._rec
        timed = rec is not None and rec.enabled
        t_start = rec.now() if timed else 0.0
        # The persistent tier: a tile generated by any earlier run (or any
        # other rank on this filesystem) is read back instead of
        # regenerated.  Content addressing folds the operand fingerprint
        # into the namespace, so a stored tile is bit-identical to what
        # ``generate_tile`` would produce — the numeric result cannot
        # depend on which tier served it.
        data = None
        if self._store is not None:
            data = self._store.get(self._store_ns, key)
            if data is not None:
                self.store_hits += 1
        if data is None:
            data = self._col.generate_tile(k, j)
            if timed:
                rec.record(f"gen.{k}.{j}", f"cpu.{proc}", t_start, rec.now())
            if self._store is not None:
                self._store.put(self._store_ns, key, data)
        # Either way the tile was materialized on this rank: both tiers
        # count toward the paper's once-per-rank instantiation invariant
        # and toward ``b_tiles_generated`` (keeping distributed stats
        # bit-comparable with the serial executor's).
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
        """End-of-block-life-cycle eviction (mirrors the serial executor)."""
        if self._lru.pop((k, j), None) is not None:
            self._mem.release(f"b{(k, j)}")

    def generated_tiles(self) -> int:
        """Total tile instantiations on this rank."""
        return sum(self.instantiations.values())

    def max_instantiations(self) -> int:
        """The paper's invariant: must be 1 after any fault-free run."""
        return max(self.instantiations.values(), default=0)

    @property
    def cached_bytes(self) -> int:
        return self._mem.used


class TieredBStore:
    """Chain two B-tile store tiers behind one ``get``/``put`` interface.

    ``front`` is a fast in-memory tier — a serving pool's process-lifetime
    warm cache (:class:`repro.serve.WarmTileCache`) — and ``back`` the
    persistent on-disk :class:`~repro.store.TileStore` (or ``None`` when
    the run has no disk tier).  Reads promote back-tier hits into the
    front so one disk read per process lifetime suffices; writes land in
    both tiers.  Both tiers are keyed by the operand-fingerprint
    namespace, so a tile served from either is bit-identical to what the
    generator would produce — which tier answered can never change the
    numeric result.
    """

    def __init__(self, front, back=None):
        self._front = front
        self._back = back

    def get(self, ns: str, key):
        arr = self._front.get(ns, key)
        if arr is not None:
            return arr
        if self._back is not None:
            arr = self._back.get(ns, key)
            if arr is not None:
                self._front.put(ns, key, arr)
        return arr

    def put(self, ns: str, key, arr) -> None:
        self._front.put(ns, key, arr)
        if self._back is not None:
            self._back.put(ns, key, arr)


class ConcreteBSource:
    """A concrete B operand read in place, never copied or cached.

    ``tiles`` is anything with ``get(key)`` and ``__contains__``: a
    :class:`~repro.sparse.matrix.BlockSparseMatrix` or a
    :class:`~repro.dist.tile_store.TileArena`.  Counts distinct tile pulls
    per rank so the merged
    ``b_tiles_generated`` statistic equals the serial executor's
    ``len(MatrixSource.access_counts)``; repeat pulls count as cache hits
    (the operand *is* the cache) so the B-service tallies stay comparable
    with the generated backing.
    """

    def __init__(self, tiles):
        self._tiles = tiles
        self._pulled: set[tuple[int, int]] = set()
        self.hits = 0
        self.lru_evictions = 0

    def has_tile(self, k: int, j: int) -> bool:
        return (k, j) in self._tiles

    def tile_nbytes(self, k: int, j: int) -> int:
        return self._tiles.get((k, j)).nbytes

    def tile(self, proc: int, k: int, j: int) -> np.ndarray:
        if (k, j) in self._pulled:
            self.hits += 1
        else:
            self._pulled.add((k, j))
        return self._tiles.get((k, j))

    def generated_tiles(self) -> int:
        return len(self._pulled)

    def max_instantiations(self) -> int:
        return 1 if self._pulled else 0
