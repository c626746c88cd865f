"""Process-lifetime warm B-tile cache for pooled workers.

A :class:`~repro.dist.pool.WorkerPool` hands each spawned worker one
:class:`WarmTileCache` (via ``tile_cache_factory``); the worker's
:class:`~repro.runtime.data.BService` consults it on an LRU miss, before
the run's persistent :class:`~repro.store.TileStore`.  Because the
*process* outlives the *run*, tiles generated during job N are still
resident when job N+1 arrives — the serving layer's "iteration N+1 starts
hot" property — with no disk read and no regeneration.

Keys are ``(namespace, tile id)`` where the namespace folds in the
operand fingerprint (``b:<fingerprint>``), so two jobs share cached
tiles exactly when their B operands are content-identical; a different
operand can never alias a stale tile.

Two sharp edges:

* **keeps what it is given** — ``put`` stores the caller's array, no
  copy: it must be read-only and own its memory.  ``BService`` hands it
  the generator's own array, and a private copy of a disk-tier hit (the
  store's mmap view dies with its run).
* **pickles empty** — the cache is created in the pool's owner process
  and crosses the spawn boundary; under the ``spawn`` start method it is
  pickled.  Shipping accumulated tiles (or a :class:`threading.Lock`)
  would be wrong and unpicklable respectively, so the pickle protocol
  transfers configuration only.  Each worker warms its own copy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024


class WarmTileCache:
    """A thread-safe byte-budgeted LRU of B tiles, keyed ``(ns, key)``.

    Implements the duck-typed tier interface
    (``get(ns, key) -> ndarray | None`` / ``put(ns, key, arr)``) that
    :class:`~repro.runtime.data.BService` expects from its warm tier.
    """

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES):
        if budget_bytes <= 0:
            raise ValueError(f"budget must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._lru: OrderedDict[tuple[str, object], np.ndarray] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, ns: str, key) -> np.ndarray | None:
        with self._lock:
            arr = self._lru.get((ns, key))
            if arr is None:
                self.misses += 1
                return None
            self._lru.move_to_end((ns, key))
            self.hits += 1
            return arr

    def put(self, ns: str, key, arr: np.ndarray) -> None:
        if arr.nbytes > self.budget_bytes:
            return  # would evict the whole cache and still not persist
        with self._lock:
            old = self._lru.pop((ns, key), None)
            if old is not None:
                self._bytes -= old.nbytes
            while self._lru and self._bytes + arr.nbytes > self.budget_bytes:
                _, dropped = self._lru.popitem(last=False)
                self._bytes -= dropped.nbytes
                self.evictions += 1
            self._lru[(ns, key)] = arr
            self._bytes += arr.nbytes

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "cached_bytes": self._bytes,
                "tiles": len(self._lru),
            }

    # -- pickling: configuration crosses the spawn boundary, content not ----

    def __getstate__(self):
        return {"budget_bytes": self.budget_bytes}

    def __setstate__(self, state):
        self.__init__(state["budget_bytes"])
