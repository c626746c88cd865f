"""The per-rank worker process of the distributed executor, and the one
place a rank (:func:`run_rank`) or a handoff (:func:`run_handoff`) runs:
the coordinator's inline spare calls the same two in its own process.

Each worker is one planned process rank, and its life is
:data:`~repro.dist.protocol.WORKER_MACHINE`, run (:func:`worker_main`):
take its :class:`~repro.dist.comm.ScatterMsg` (forked: born holding it), open
its operands, execute its :class:`~repro.core.plan.ProcPlan` through the
*same* :func:`repro.runtime.numeric.execute_blocks` body the serial
executor uses (hence bit-identical numerics), and send a
:class:`WorkerReport` back.  A one-shot process then leaves; when the run
rebalances (or the process is a pool's) it stays in its dispatch loop,
ready to accept a :class:`~repro.dist.comm.HandoffMsg` of blocks reclaimed
from a straggler (the same body again, so handoff tiles are bit-identical
to the tiles the origin would have produced).

C is written once: the body's ``c_slot`` hook hands every C tile's first
product a slot of the attempt's (or handoff's) shared-memory output arena,
later products accumulate there, and a checkpoint-restored tile is copied
from the store straight into its slot — when the rank is done its C is
already where the coordinator will adopt it, and the report carries only
the index.  The worker keeps no tile view past the close of its arenas
(:func:`_opened`), which unmaps them there and then.

Rebalancing yield points: between blocks the worker polls its inbox; a
coordinator :class:`~repro.dist.comm.RelinquishMsg` makes it give up its
not-yet-started blocks (acked with their positions, skipped thereafter)
while the in-flight block finishes normally.

Operands arrive on one of two data planes (the coordinator picks, see
:mod:`repro.dist.coordinator`): a forked one-shot worker was born holding
A and B and reads them in place (``a_meta=None``, ``("resident", None)``);
a pooled or spawned one attaches the coordinator's shared-memory arenas.
Either way a chunk's A tiles reach the GEMM stream as views, so there is
no copy for a prefetch thread to overlap: the chunk "prefetch" (the H2D of
the paper's 25 % staging area, still budgeted in ``execute_block``) is an
inline span on the GPU's link resource.

Observability: when the scatter carries ``trace=True`` the worker records
spans through a :class:`~repro.runtime.tracing.SpanRecorder` on a
*monotonic* clock — inbox wait, shared-memory attach, per-chunk prefetch,
per-chunk GEMM, B-tile generation, per-block checkpoint writeback, C
writeback (the hand-over of the index: there is nothing left to copy) —
and ships the :class:`~repro.runtime.tracing.SpanStream` home in its report
for the coordinator to merge.  With ``trace=False`` no clock is read in the
hot loop (``on_event`` is ``None``) and no spans are stored.  What a rank
counts it counts once, on the plain fields of its :class:`WorkerReport`
(``stats`` and the :class:`RankTally`); ``report.metrics`` is the
coordinator's fold of the merged report
(:func:`repro.runtime.metrics.snapshot_of`), not something a rank measures.

Live telemetry: when the scatter carries a positive ``heartbeat_interval``
the worker runs a daemon heartbeat thread that ships a
:class:`~repro.dist.health.HeartbeatMsg` — sequence number and cumulative
task progress — to the coordinator on the comm layer's out-of-band
telemetry channel every interval.  The first beat goes out immediately ("worker up"); the thread
stops when the rank finishes, errors, or is deliberately stalled.

Fault injection lives here too: after the *k*-th GEMM task the worker
either dies abruptly (``os._exit`` — no report, no cleanup, like a crashed
MPI rank), sleeps briefly (``delay``), or *stalls* — heartbeats stop and
the main thread hangs, the closest a test can get to a livelocked rank
that is alive to the OS but dead to the run.  Stalls are what the
coordinator's missed-heartbeat detector exists to catch.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.grid import ProcessGrid
from repro.core.plan import Block, ProcPlan
from repro.dist.bservice import BService, ConcreteBSource, TieredBStore
from repro.dist.comm import (
    COORDINATOR,
    DoneMsg,
    Empty,
    Endpoint,
    ErrorMsg,
    HandoffDoneMsg,
    HandoffMsg,
    ProtocolError,
    RelinquishedMsg,
    RelinquishMsg,
    ScatterMsg,
)
from repro.dist.health import HeartbeatMsg
from repro.dist.protocol import WIRE, WORKER_MACHINE, Transition
from repro.dist.tile_store import TileArena
from repro.runtime.numeric import NumericStats, execute_blocks, proc_blocks
from repro.runtime.tracing import SpanRecorder, SpanStream
from repro.store import StoreStats, TileStore, commit_block, read_block

#: Exit code of an ``abort`` fault — the coordinator reads it off the dead
#: process and fails the whole run instead of retrying the rank.
ABORT_EXIT_CODE = 98

#: How long a deliberately stalled worker sleeps (it is terminated by the
#: coordinator long before this elapses; the bound only guards against a
#: run with stall detection disabled wedging forever past its timeout).
STALL_SLEEP_SECONDS = 3600.0


@dataclass(kw_only=True)
class RankTally:
    """The scalar tallies a rank reports and a run totals: a
    :class:`WorkerReport` and the run's ``DistReport`` carry them under
    these names, and :meth:`merge` turns the ones into the other."""

    b_hits: int = 0
    b_evictions: int = 0
    #: B tiles the B service read from *any* store tier (warm in-process
    #: cache or persistent disk store) instead of generating — the
    #: warm-reuse signal a serving pool's second job shows even when no
    #: disk store is configured.
    b_store_hits: int = 0
    b_max_instantiations: int = 0  # merged by max: a per-tile bound
    store_hits: int = 0
    store_misses: int = 0
    store_puts: int = 0
    store_evictions: int = 0
    store_bytes_written: int = 0
    store_bytes_read: int = 0
    blocks_restored: int = 0
    tasks_skipped: int = 0
    spans_dropped: int = 0

    @staticmethod
    def merge(parts) -> "RankTally":
        """Every field summed over ``parts``; the bound is their max."""
        out = RankTally()
        for part in parts:
            for f in fields(RankTally):
                mine, theirs = getattr(out, f.name), getattr(part, f.name)
                bound = f.name == "b_max_instantiations"
                setattr(out, f.name, max(mine, theirs) if bound else mine + theirs)
        return out


@dataclass
class WorkerReport(RankTally):
    """One rank's results: stats, C-tile index, span stream, link bytes,
    and its :class:`RankTally`."""

    rank: int
    attempt: int
    stats: NumericStats
    c_index: dict[tuple[int, int], tuple[int, int, int]]
    spans: SpanStream | None = None
    link_bytes: dict[tuple[int, int], int] = field(default_factory=dict)


def modeled_a_link_bytes(
    proc: ProcPlan, grid: ProcessGrid, a_get_tile
) -> dict[tuple[int, int], int]:
    """Grid-row A-broadcast bytes charged to ``owner -> rank`` links.

    Mirrors the inspector's per-process ``a_recv_bytes`` (Section 3.2.4):
    each needed-but-remote A tile under the 2D-cyclic placement moves once.
    """
    links: Counter = Counter()
    for i, k in zip(proc.a_needed_rows.tolist(), proc.a_needed_cols.tolist()):
        owner_col = k % grid.q
        if owner_col != proc.col:
            owner = grid.rank(proc.row, owner_col)
            links[(owner, proc.rank)] += a_get_tile(i, k).nbytes
    return dict(links)


def checkpoint_hooks(
    ckpt_dir: str,
    run_hash: str,
    rank: int,
    completed: tuple,
    rec: SpanRecorder,
    c_slot,
):
    """Build the ``(restore_block, on_block, counters)`` checkpoint closures.

    ``completed`` lists the ``(gpu, block)`` positions whose block files
    the coordinator already read back intact.  A restored tile is copied
    once, out of its block file into ``c_slot(key, m, n)`` — its place in
    the output arena.

    ``on_block`` commits a finished block as one file
    (:func:`~repro.store.commit_block`): fsynced before it is renamed into
    place, so a kill never leaves a block file missing tiles.  Its time is
    the ``writeback.ckpt.block<bi>`` span ``rec`` records on ``net.<rank>``.
    """
    completed = set(completed)
    counters = {"blocks_restored": 0, "tasks_skipped": 0}

    def restore_block(g: int, bi: int, block) -> dict | None:
        if (g, bi) not in completed:
            return None
        tiles = read_block(ckpt_dir, run_hash, rank, g, bi)
        if tiles is None:
            return None  # read back at scatter; damaged since
        out: dict[tuple[int, int], np.ndarray] = {}
        for key, arr in tiles.items():
            # Restored tiles must be indistinguishable from freshly
            # computed ones: writable, and where a computed tile would be.
            out[key] = dst = c_slot(key, *arr.shape)
            dst[...] = arr
        counters["blocks_restored"] += 1
        counters["tasks_skipped"] += block.ntasks
        return out

    def on_block(g: int, bi: int, block, c_dev: dict) -> None:
        with rec.span(f"writeback.ckpt.block{bi}", f"net.{rank}"):
            commit_block(ckpt_dir, run_hash, rank, g, bi, c_dev)

    return restore_block, on_block, counters


class _Progress:
    """Task counter shared between the executing and heartbeat threads.

    A bare int attribute: the executing thread increments, the heartbeat
    thread reads.  Both are atomic under the GIL; a beat that reads one
    task too few is simply one interval stale.
    """

    __slots__ = ("tasks",)

    def __init__(self):
        self.tasks = 0


@contextmanager
def _heartbeats(beat, interval: float):
    """Call ``beat(seq)`` — ship one :class:`HeartbeatMsg` — per interval on
    a daemon thread for the span of the ``with``; yields the stop event.

    The first beat goes out immediately (the coordinator's "worker up"
    signal), later beats every ``interval`` seconds.  Setting the event
    stops emission *without* waiting for the thread — the stall fault does
    it from the executing thread right before hanging, so the rank goes
    silent exactly the way a livelocked worker would.
    """
    stop = threading.Event()

    def loop() -> None:
        seq = 0
        while not stop.is_set():
            try:
                beat(seq)
            except Exception:  # pragma: no cover - fabric torn down mid-beat
                return
            seq += 1
            stop.wait(interval)

    threading.Thread(target=loop, daemon=True).start()
    try:
        yield stop
    finally:
        stop.set()


def _chunk_fetcher(a_get_tile, rec: SpanRecorder, rank: int):
    """A ``chunk_fetcher`` handing each chunk's A tiles out as views.

    Runs inline, recorded as the chunk's ``prefetch`` span on the GPU's
    link resource.  With the recorder off the caller passes no fetcher.
    """

    def fetcher(g: int, bi: int, block: Block):
        link = f"gpu.{rank}.{g}.link"

        def fetch(ci: int, chunk) -> list[np.ndarray]:
            t_start = rec.now()
            tiles = [
                a_get_tile(i, k)
                for i, k in zip(chunk.a_rows.tolist(), chunk.a_cols.tolist())
            ]
            rec.record(f"block{bi}.chunk{ci}.prefetch", link, t_start, rec.now())
            return tiles

        return fetch

    return fetcher


@contextmanager
def _opened(msg, operands, rank: int, *, rec: SpanRecorder, tile_cache):
    """Open what one :class:`ScatterMsg` or ``HandoffMsg`` executes against.

    Yields ``(store, a_get_tile, b_source, c_arena)``: the B-tile store
    (``None`` unless the run persists / checkpoints), A and B — read in
    place from ``operands``, the ``(a, b)`` pair a resident-plane process
    was forked with, or through attached arenas — and the message's C
    output arena.  Everything is closed on the
    way out, which unmaps the arenas: the body keeps no tile view past it.
    """
    store = None
    attached: list[TileArena] = []
    try:
        if msg.store_dir is not None or msg.ckpt_dir is not None:
            root = msg.store_dir or os.path.join(msg.ckpt_dir, "store")
            store = TileStore(root)
        with rec.span("shm.attach", f"net.{rank}"):
            if msg.a_meta is None:
                a_get_tile = operands[0].get_tile
            else:
                attached.append(TileArena.attach(msg.a_meta))
                a_get = attached[-1].get

                def a_get_tile(i: int, k: int) -> np.ndarray:
                    return a_get((i, k))
            kind, payload = msg.b_spec
            if kind == "generated":
                # A serving pool's process-lifetime warm cache fronts the disk
                # store, so job N+1 over the same B is served from memory.  No
                # fingerprint, no namespace to key it by: serving another
                # operand's tiles would be a correctness bug, so skip it.
                b_store = store
                if tile_cache is not None and msg.b_hash:
                    b_store = TieredBStore(tile_cache, store)
                b_source = BService(
                    payload, budget_bytes=msg.gpu_memory_bytes, recorder=rec,
                    store=b_store, store_ns=f"b:{msg.b_hash}",
                )
            elif kind == "resident":
                b_source = ConcreteBSource(operands[1])
            else:
                attached.append(TileArena.attach(payload))
                b_source = ConcreteBSource(attached[-1])
            attached.append(TileArena.attach(msg.c_meta))
        yield store, a_get_tile, b_source, attached[-1]
    finally:
        if store is not None:
            store.close()
        for arena in attached:
            arena.close()


def run_rank(
    msg: ScatterMsg,
    operands=None,
    *,
    origin: float | None = None,
    recv_done: float | None = None,
    endpoint: Endpoint | None = None,
    tile_cache=None,
) -> WorkerReport:
    """Execute one scattered rank; returns the report (its C tiles are
    already in the output arena, born there).

    ``origin``/``recv_done`` are monotonic instants bracketing the inbox
    wait in :func:`worker_main`; the recorder's clock is rooted at
    ``origin`` so the wait appears as the rank's first span.  ``endpoint``
    carries heartbeats out on the telemetry channel; without one — the
    coordinator's in-process call — the rank neither beats nor polls an
    inbox (as with ``msg.heartbeat_interval <= 0`` and ``rebalance`` off).
    ``tile_cache`` is a serving pool's process-lifetime warm B-tile cache
    (``None`` reproduces the one-shot behaviour) and ``operands`` the
    forked-in ``(a, b)`` pair; :func:`_opened` consumes both.
    """
    rank = msg.proc.rank
    rec = SpanRecorder(enabled=msg.trace, origin=origin)
    if msg.trace and origin is not None and recv_done is not None:
        rec.record("inbox.wait", f"net.{rank}", 0.0, recv_done - origin)
    progress = _Progress()

    beating = nullcontext()  # ``hb``: the beats' stop event, or None
    if endpoint is not None and msg.heartbeat_interval > 0.0:
        beating = _heartbeats(
            lambda seq: endpoint.send_telemetry(HeartbeatMsg(
                rank, msg.attempt, seq, tasks_done=progress.tasks, uptime=rec.now(),
            )),
            msg.heartbeat_interval,
        )

    with beating as hb, _opened(
        msg, operands, rank, rec=rec, tile_cache=tile_cache,
    ) as (store, a_get_tile, b_source, c_arena):
        restore_block = on_block = None
        ckpt_counters = {"blocks_restored": 0, "tasks_skipped": 0}
        if msg.ckpt_dir is not None:
            restore_block, on_block, ckpt_counters = checkpoint_hooks(
                msg.ckpt_dir, msg.run_hash, rank, msg.completed, rec, c_arena.slot,
            )

        fault = msg.fault

        def on_task() -> None:
            progress.tasks += 1
            if fault is None:
                return
            if fault.kind == "slow":
                # A live straggler: every task from at_task on is slow.
                if progress.tasks >= fault.at_task:
                    time.sleep(fault.delay_seconds)
                return
            if progress.tasks == fault.at_task:
                if fault.kind == "kill":
                    os._exit(99)
                if fault.kind == "abort":
                    os._exit(ABORT_EXIT_CODE)
                if fault.kind == "stall":
                    # Go silent the way a livelocked rank would: stop the
                    # heartbeat thread, then hang the executing thread.
                    if hb is not None:
                        hb.set()
                    time.sleep(STALL_SLEEP_SECONDS)
                else:
                    time.sleep(fault.delay_seconds)

        # ---- rebalancing yield points -------------------------------
        # ``skipped`` holds block positions this rank must not execute:
        # the coordinator's exclusions from earlier attempts, plus any
        # positions relinquished mid-run.  ``skip_block`` doubles as the
        # inbox poll at every block boundary.
        skipped: set[tuple[int, int]] = set(msg.excluded)
        skip_block = None
        if skipped or (msg.rebalance and endpoint is not None):
            positions = [
                (g, bi) for g, bi, _ in proc_blocks(msg.proc, msg.gpus_per_proc)
            ]
            pos_index = {p: n for n, p in enumerate(positions)}
            restored_positions = set(msg.completed)

            def skip_block(g: int, bi: int, block) -> bool:
                """Poll the inbox at a block boundary: each message is an
                event of ``running`` (:func:`_row`), and its one ``recv:``
                row is ``yield_unstarted``.

                A current-attempt :class:`RelinquishMsg` yields every
                position not yet started (including this one) that is
                neither restored nor already skipped; the positions are
                acked back so the coordinator knows exactly which blocks
                it now owns.  A stale request is acked empty.
                """
                while msg.rebalance and endpoint is not None:
                    try:
                        _, req, _ = endpoint.recv_nowait()
                    except Empty:
                        break
                    _row("running", _event_of(req))
                    remaining = ()
                    if req.attempt == msg.attempt:
                        remaining = tuple(
                            p for p in positions[pos_index[(g, bi)]:]
                            if p not in skipped and p not in restored_positions
                        )
                        skipped.update(remaining)
                    endpoint.send(
                        COORDINATOR, RelinquishedMsg(rank, req.attempt, remaining)
                    )
                return (g, bi) in skipped

        # Only the stats are kept: the tiles are in the arena already, and
        # a view held here would dangle once the attachment is closed.
        stats = execute_blocks(
            proc_blocks(msg.proc, msg.gpus_per_proc),
            rank,
            a_get_tile,
            b_source,
            gpu_memory_bytes=msg.gpu_memory_bytes,
            b_csr=msg.b_csr,
            alpha=msg.alpha,
            chunk_fetcher=_chunk_fetcher(a_get_tile, rec, rank) if rec.enabled else None,
            on_task=on_task if fault is not None or hb is not None else None,
            on_event=rec.record if rec.enabled else None,
            clock=rec.now,
            restore_block=restore_block,
            on_block=on_block,
            skip_block=skip_block,
            c_slot=c_arena.slot,
        )[1]
        stats.b_tiles_generated = b_source.generated_tiles()

        # C leaves the rank as an index: every tile was born in its slot.
        with rec.span(f"writeback.{rank}", f"net.{rank}"):
            c_index = dict(c_arena.index)

        store_stats = store.stats() if store is not None else StoreStats()
        return WorkerReport(
            rank=rank,
            attempt=msg.attempt,
            stats=stats,
            c_index=c_index,
            spans=rec.stream() if rec.enabled else None,
            link_bytes=modeled_a_link_bytes(msg.proc, msg.grid, a_get_tile),
            b_max_instantiations=b_source.max_instantiations(),
            b_hits=b_source.hits,
            b_evictions=b_source.lru_evictions,
            b_store_hits=getattr(b_source, "store_hits", 0),
            store_hits=store_stats.hits,
            store_misses=store_stats.misses,
            store_puts=store_stats.puts,
            store_evictions=store_stats.evictions,
            store_bytes_written=store_stats.bytes_written,
            store_bytes_read=store_stats.bytes_read,
            spans_dropped=rec.dropped,
            **ckpt_counters,
        )


def run_handoff(msg, operands=None, tile_cache=None) -> tuple[dict, NumericStats]:
    """Execute one :class:`~repro.dist.comm.HandoffMsg` (on a helper rank
    or, as the fallback, inside the coordinator).

    Opens the operands the way the origin did and the handoff's dedicated
    C arena (:func:`_opened`), runs the reclaimed blocks through the one
    per-block body with the *origin* as rank — so the stats, and (when the
    run checkpoints) the block files under the origin's name, are exactly
    what the origin itself would have written, which is what lets
    the reduction match the serial oracle and a resumed run replay the
    ownership transfer transparently.  Returns ``(C index, stats)``.
    """
    rec = SpanRecorder(enabled=False)
    with _opened(msg, operands, msg.origin, rec=rec, tile_cache=tile_cache,
                 ) as (_, a_get_tile, b_source, c_arena):
        on_block = None
        if msg.ckpt_dir is not None:
            _, on_block, _ = checkpoint_hooks(
                msg.ckpt_dir, msg.run_hash, msg.origin, (), rec, c_arena.slot,
            )
        stats = execute_blocks(
            msg.blocks,
            msg.origin,
            a_get_tile,
            b_source,
            gpu_memory_bytes=msg.gpu_memory_bytes,
            b_csr=msg.b_csr,
            alpha=msg.alpha,
            on_block=on_block,
            c_slot=c_arena.slot,
        )[1]
        stats.b_tiles_generated = b_source.generated_tiles()
        return dict(c_arena.index), stats


def _event_of(msg) -> str:
    """An inbox message as a worker event: ``recv:<its wire name>``."""
    return f"recv:{getattr(WIRE.get(type(msg)), 'name', type(msg).__name__)}"


def _row(state: str, event: str) -> Transition:
    """:data:`WORKER_MACHINE`'s row for ``event`` in ``state``.  No row, no
    attempt: a :class:`ProtocolError`, shipped home as an ``ErrorMsg`` the
    coordinator recovers from (M402 at runtime)."""
    row = WORKER_MACHINE.on(state, event)
    if row is None:
        raise ProtocolError(f"worker state {state!r} has no transition for {event!r}")
    return row


class _Worker:
    """A worker process's ``state`` in :data:`WORKER_MACHINE`; :meth:`fire`
    calls the method an event's row names, as ``_Coordinator.fire`` does
    (``running``'s ``yield_unstarted`` is :func:`run_rank`'s poll)."""

    def __init__(self, rank, endpoint, tile_cache, pooled, operands):
        self.rank, self.endpoint, self.tile_cache = rank, endpoint, tile_cache
        self.pooled, self.operands = pooled, operands
        self.state, self.attempt = WORKER_MACHINE.initial, -1
        self.t_spawn = time.monotonic()

    def fire(self, event: str, msg=None) -> None:
        row = _row(self.state, event)
        self.state = row.next_state
        if row.action:
            getattr(self, row.action)(msg)

    def attach_and_restore(self, msg: ScatterMsg) -> None:
        """Run this rank's attempt and report it; a one-shot worker of a run
        that does not rebalance then leaves."""
        self.attempt = msg.attempt
        # A pooled worker roots each job's trace at scatter receipt: its idle
        # stretch between jobs (and every previous job's spans) must not
        # bleed into this job's inbox-wait accounting.  One-shot workers keep
        # the spawn-rooted origin so process startup stays visible.
        report = run_rank(
            msg, self.operands,
            origin=None if self.pooled else self.t_spawn,
            recv_done=None if self.pooled else time.monotonic(),
            endpoint=self.endpoint, tile_cache=self.tile_cache,
        )
        self.endpoint.send(COORDINATOR, DoneMsg(self.rank, report))
        self.fire("act:report")
        if not self.pooled and not msg.rebalance:
            # ``act:leave``: nothing can follow; its teardown overlaps the
            # slower ranks.  Flush, or the reply dies in the feeder.
            self.fire("act:leave")
            for q in (self.endpoint.gather, self.endpoint.telemetry):
                q.close()
                q.join_thread()
            os._exit(0)

    def stale_ack(self, msg: RelinquishMsg) -> None:
        self.endpoint.send(COORDINATOR, RelinquishedMsg(self.rank, msg.attempt, ()))

    def execute_handoff(self, msg: HandoffMsg) -> None:
        try:
            c_index, stats = run_handoff(msg, self.operands, tile_cache=self.tile_cache)
        except Exception:  # noqa: BLE001 - helper failure is recoverable
            c_index = stats = None
        self.endpoint.send(
            COORDINATOR, HandoffDoneMsg(self.rank, msg.handoff_id, c_index, stats)
        )


def worker_main(rank: int, endpoint: Endpoint, tile_cache=None,
                pooled: bool = False, operands=None, scatter=None) -> None:
    """Process entry point: a dispatch loop over coordinator messages, each
    an event of :data:`WORKER_MACHINE` (:class:`_Worker`).

    The first message is normally this rank's :class:`ScatterMsg`; after
    reporting ``done`` a one-shot worker of a run that does not rebalance
    leaves (``act:leave``); any other stays in the loop, a helper for a
    :class:`~repro.dist.comm.HandoffMsg` of blocks reclaimed from a
    straggler, until teardown.  A :class:`~repro.dist.comm.RelinquishMsg`
    landing here (rather than at a mid-run block boundary) raced against
    this rank's completion or respawn — it is acked empty so the
    coordinator can retire the request.  A message the state has no row
    for fails the attempt, shipped home as an ``ErrorMsg``.

    Pooled lifetime: under a :class:`~repro.dist.pool.WorkerPool`
    (``pooled=True``) the same loop serves one :class:`ScatterMsg` *per
    job*, process outliving run; ``tile_cache`` (pickled empty at spawn,
    populated here) is the process-lifetime warm B-tile cache that makes
    job N+1 over the same B fingerprint start hot.  The serving layer's
    :class:`~repro.dist.comm.ShutdownMsg` exits the loop quietly.

    ``operands`` is the run's ``(a, b)`` pair on the resident plane and
    ``scatter`` the rank's :class:`ScatterMsg` there, taken as
    ``recv:scatter`` before the inbox is read — process arguments cross a
    fork by inheritance, not by pickle.

    Every reply is a class of :mod:`repro.dist.comm` and names the attempt
    or handoff it belongs to, so the coordinator can discard one from a
    superseded attempt instead of recovering a rank it already recovered.
    """
    worker = _Worker(rank, endpoint, tile_cache, pooled, operands)
    try:
        if scatter is not None:
            worker.fire("recv:scatter", scatter)
        while worker.state != "exited":
            _, msg, _ = endpoint.recv()
            worker.fire(_event_of(msg), msg)
    except BaseException:  # noqa: BLE001 - ship the traceback to the coordinator
        try:
            endpoint.send(
                COORDINATOR, ErrorMsg(rank, worker.attempt, traceback.format_exc())
            )
        except Exception:  # pragma: no cover - fabric itself broken
            pass
