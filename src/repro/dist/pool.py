"""The worker pool: the one owner of worker processes and their fabric.

A :class:`WorkerPool` owns the :class:`~repro.dist.comm.CommLayer`, one
:func:`~repro.dist.worker.worker_main` process per rank (daemons, lint rule
L307: a crashed owner leaves no orphans), the operand arenas its runs pack
(:meth:`pack`) and the fingerprints of the plans it has run
(:meth:`plan_hash`).  Every run borrows one and speaks the protocol over its
endpoints: the caller's warm pool (``execute_plan_distributed(...,
pool=...)``), which outlives the run, or a one-shot call's own, closed in
the call's ``finally``.  The pool starts, watches and stops the processes,
and sends or receives only what lives *between* runs: the
:class:`~repro.dist.comm.ShutdownMsg` pill of :meth:`close` and the stale
traffic :meth:`drain` drops.  It is a run's whole environment: the
coordinator holds no process handle and reads no clock of its own, but asks
the pool for the time (:meth:`clock`), a rank's exit code (:meth:`exit_code`),
a stalled rank's death (:meth:`kill`) and each attempt's number
(:meth:`next_attempt`) — so a pool on in-memory queues and
a fake clock (the tests' simulated pool) runs fault schedules through it.  A
terminated or closed pool leaves ``/dev/shm`` empty.  The serving layer
(:mod:`repro.serve`) keeps one pool warm across jobs, with the warm B-tile
cache ``tile_cache_factory`` makes.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import Counter
from multiprocessing import resource_tracker

from repro.dist.comm import COORDINATOR, CommLayer, Empty, ShutdownMsg
from repro.dist.tile_store import TileArena
from repro.dist.worker import worker_main
from repro.store import plan_fingerprint
from repro.util.memo import IdentityMemo
from repro.util.validation import require


def default_start_method() -> str:
    """Prefer fork (cheap, inherits the warm page cache) when available."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class WorkerPool:
    """One worker process per rank, reusable across runs.

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
        #: rank -> attempts numbered so far, over the pool's whole life.
        self.attempts = Counter()
        self.spawns = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bring every rank up (idempotent)."""
        for rank in range(self.nranks):
            self.ensure(rank)

    def ensure(self, rank: int, operands=None, scatter=None):
        """The live worker process for ``rank``, (re)spawning if needed; a
        new one is born holding ``scatter`` and the run's ``(a, b)``
        ``operands`` when given (a one-shot call on the fork plane)."""
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
            args=(rank, self.comm.endpoint(rank), cache, operands, scatter),
            daemon=True,
        )
        proc.start()
        self._workers[rank] = proc
        self.spawns += 1
        return proc

    def next_attempt(self, rank: int) -> int:
        """A number for ``rank``'s next attempt, never handed out before by
        this pool: a reply names its attempt, so one job's late reply cannot
        pass for the next job's, whatever order the fabric delivers in."""
        self.attempts[rank] += 1
        return self.attempts[rank] - 1

    def clock(self) -> float:
        """The run clock every deadline, patrol and health fold reads."""
        return time.monotonic()

    def exit_code(self, rank: int) -> int | None:
        """``rank``'s exit code; ``None`` while it runs or if there is none."""
        proc = self._workers.get(rank)
        return None if proc is None else proc.exitcode

    def kill(self, rank: int) -> None:
        """Stop ``rank``'s process if it still breathes, and forget it."""
        proc = self._workers.pop(rank, None)
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)

    def alive_ranks(self) -> list[int]:
        return sorted(r for r, p in self._workers.items() if p.is_alive())

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def warm(self) -> bool:
        """Whether this pool's workers keep a warm B-tile cache."""
        return self._tile_cache_factory is not None

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

    # -- between runs and teardown --------------------------------------------

    def drain(self) -> int:
        """Drop (and count) the replies and heartbeats a dead run's workers
        left queued, which the next run would mis-read as its own.
        Non-blocking: call it between runs, never during one."""
        endpoint = self.comm.endpoint(COORDINATOR)
        dropped = 0
        for recv in (endpoint.recv_nowait, endpoint.recv_telemetry):
            while True:
                try:
                    recv()
                except Empty:
                    break
                dropped += 1
        return dropped

    def terminate(self) -> None:
        """Hard-stop every worker — after a failed run one may still be
        computing for it — and unlink the arenas; the comm layer stays
        usable and ranks respawn on next use."""
        for rank in list(self._workers):
            self.kill(rank)
        while self._arenas:
            self._arenas.popitem()[1].unlink()

    def close(self, timeout: float = 5.0) -> None:
        """Stop for good (idempotent): pill every live worker (an idle one
        exits 0), join them under one ``timeout``, terminate the rest,
        unlink the arenas, close the comm layer.  After a failed run,
        :meth:`terminate` first: a busy worker never reads its pill."""
        if self._closed:
            return
        self._closed = True
        endpoint = self.comm.endpoint(COORDINATOR)
        for rank in self.alive_ranks():
            endpoint.send(rank, ShutdownMsg())
        deadline = time.monotonic() + timeout
        for proc in self._workers.values():
            proc.join(timeout=max(deadline - time.monotonic(), 0.0))
        self.terminate()
        try:
            self.comm.close()
        except Exception:  # pragma: no cover - queue teardown is best-effort
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{len(self.alive_ranks())} alive"
        return f"WorkerPool({self.nranks} rank(s), {state}, {self.spawns} spawn(s))"
