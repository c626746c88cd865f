"""Warm worker pool: what outlives a run, split out of the coordinator.

A :class:`WorkerPool` owns, for as long as the *caller* wants, the
:class:`~repro.dist.comm.CommLayer`, one
:func:`~repro.dist.worker.worker_main` process per rank (daemons, lint rule
L307: a crashed owner leaves no orphans), the operand arenas its runs
repack in place (:meth:`pack`) and the fingerprints of the plans it has run
(:meth:`plan_hash`).  The coordinator borrows all of it for one run
(``execute_plan_distributed(..., pool=...)``) and speaks the protocol over
the pool's endpoints; passing no pool keeps the one-shot behaviour (the
coordinator forks its own workers, born holding the operands, and reaps
them in its ``finally``).

This module handles lifecycle only — spawn, respawn after a failure,
liveness, terminate (which unlinks the arenas: a reset or closed pool
leaves ``/dev/shm`` empty) — and never sends or receives a message.  The
serving layer (:mod:`repro.serve`) keeps one pool warm across many jobs and
owns the cross-run concerns: the shutdown pill a pooled worker's dispatch
loop exits on, draining stale traffic between jobs, and the
process-lifetime warm B-tile cache it injects through
``tile_cache_factory``.
"""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing import resource_tracker

from repro.dist.comm import COORDINATOR, CommLayer
from repro.dist.tile_store import TileArena
from repro.dist.worker import worker_main
from repro.store import plan_fingerprint
from repro.util.memo import IdentityMemo
from repro.util.validation import require


def default_start_method() -> str:
    """Prefer fork (cheap, inherits the warm page cache) when available."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class WorkerPool:
    """One warm worker process per rank, reusable across runs.

    Parameters
    ----------
    nranks:
        Ranks the pool serves; a borrowed run's plan must match exactly
        (the coordinator enforces it).
    tile_cache_factory:
        Zero-argument callable producing the process-lifetime warm
        B-tile cache handed to each spawned worker (pickled empty across
        the spawn, populated inside the worker).  ``None`` spawns plain
        workers — pool reuse then amortizes process startup only.

    Spawning is lazy: construction allocates the comm layer but no
    processes; :meth:`ensure` (or :meth:`start`) brings ranks up on
    first use and transparently respawns ranks that died.  ``spawns``
    counts every process ever started — a serving test asserting "the
    second job reused the warm pool" checks it did not grow.
    """

    def __init__(self, nranks: int, *, tile_cache_factory=None):
        require(nranks >= 1, f"pool needs at least one rank, got {nranks}")
        self.nranks = nranks
        self.ctx = mp.get_context(default_start_method())
        self.comm = CommLayer(nranks, self.ctx)
        self._tile_cache_factory = tile_cache_factory
        self._workers: dict[int, mp.process.BaseProcess] = {}
        self._arenas: dict[str, TileArena] = {}
        self._plan_hashes = IdentityMemo()
        self.spawns = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bring every rank up (idempotent)."""
        for rank in range(self.nranks):
            self.ensure(rank)

    def ensure(self, rank: int):
        """The live worker process for ``rank``, (re)spawning if needed."""
        require(not self._closed, "worker pool is closed")
        require(0 <= rank < self.nranks, f"rank {rank} outside pool of {self.nranks}")
        proc = self._workers.get(rank)
        if proc is not None and proc.is_alive():
            return proc
        cache = (
            self._tile_cache_factory()
            if self._tile_cache_factory is not None else None
        )
        # Share the owner's resource tracker: a worker forked before it runs
        # starts its own, which at exit warns about (and re-unlinks) every
        # segment it attached.
        resource_tracker.ensure_running()
        proc = self.ctx.Process(
            target=worker_main,
            args=(rank, self.comm.endpoint(rank), cache, True),
            daemon=True,
        )
        proc.start()
        self._workers[rank] = proc
        self.spawns += 1
        return proc

    def alive_ranks(self) -> list[int]:
        return sorted(
            r for r, p in self._workers.items() if p is not None and p.is_alive()
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def pack(self, tag: str, tiles) -> TileArena:
        """The pool's ``tag`` operand arena, now holding ``tiles``: repacked in
        place while they fit, else replaced (one run at a time: no reader)."""
        tiles = list(tiles)
        arena = self._arenas.get(tag)
        if arena is not None and sum(t.nbytes for _, t in tiles) <= arena.size:
            arena.repack(tiles)
            return arena
        if arena is not None:
            self._arenas.pop(tag).unlink()
        arena = self._arenas[tag] = TileArena.pack(tag, tiles)
        return arena

    def plan_hash(self, plan) -> str:
        """``plan_fingerprint(plan)``, computed once per plan object."""
        return self._plan_hashes.get(plan, plan_fingerprint)

    # -- teardown ------------------------------------------------------------

    def endpoint(self):
        """The coordinator-side endpoint of the pool's comm layer.

        Exposed for the serving layer's between-job housekeeping (stale
        drain, shutdown pill); the protocol traffic itself stays in the
        coordinator and :mod:`repro.serve`.
        """
        return self.comm.endpoint(COORDINATOR)

    def terminate(self, timeout: float = 2.0) -> None:
        """Hard-stop every worker, unlink the arenas (comm layer stays usable)."""
        for proc in self._workers.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._workers.values():
            proc.join(timeout=timeout)
        self._workers.clear()
        while self._arenas:
            self._arenas.popitem()[1].unlink()

    def join(self, timeout: float = 5.0) -> list[int]:
        """Wait for workers to exit on their own; returns ranks still alive.

        Used by the serving layer's graceful shutdown after it has sent
        each rank the pill; stragglers are the caller's to terminate.
        """
        for proc in self._workers.values():
            proc.join(timeout=timeout)
        return self.alive_ranks()

    def close(self, timeout: float = 2.0) -> None:
        """Terminate all workers and tear the comm layer down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.terminate(timeout=timeout)
        try:
            self.comm.close()
        except Exception:  # pragma: no cover - queue teardown is best-effort
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{len(self.alive_ranks())} alive"
        return f"WorkerPool({self.nranks} rank(s), {state}, {self.spawns} spawn(s))"
