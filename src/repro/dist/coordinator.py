"""The coordinator: scatter the plan, supervise workers, reduce C.

:func:`execute_plan_distributed` is the multi-process twin of
:func:`repro.runtime.numeric.execute_plan`: same signature semantics, same
result *bit for bit* (each rank runs the identical per-process body, and
the reduction applies the identical ``beta*C`` seeding and one-producer
accumulation).  The serial executor is therefore the crosscheck oracle for
this one.

Responsibilities:

* **scatter** — ship each rank its :class:`~repro.dist.worker.ScatterMsg`
  through the :class:`~repro.dist.comm.CommLayer` (bytes counted per
  link).  Operands take one of two data planes, chosen from what the code
  can observe.  *Resident* (this call owns its processes and the start
  method is ``fork``): workers are forked after A and B exist and get the
  pair as process arguments, so nothing is packed.  *Arena* (a borrowed
  pool predates the operands, ``spawn`` inherits nothing): A and a
  concrete B are packed into shared-memory arenas first;
* **supervise** — gather replies (classes of :mod:`repro.dist.comm`,
  dispatched on type); a worker that exits without reporting (crash, kill
  fault) or reports an error is *retried once* in a fresh process, and if
  that attempt also fails its rank is *reassigned* to a coordinator-local
  spare — :func:`~repro.dist.worker.run_rank` called in this process on
  the message a worker would have got (minus the fault), so a single
  faulty rank cannot lose the contraction;
* **reduce** — seed ``beta*C``, then take every producer's C tiles where
  its worker wrote them (:meth:`~repro.dist.tile_store.TileArena.adopt`):
  a tile the input C has is added to (``beta*C + S``), any other *becomes*
  the result's tile — a view of the arena, whose mapping lives as long as
  the tile while the segment's name goes with the run — enforcing the
  one-producer-per-tile invariant, and merge per-rank
  :class:`~repro.runtime.numeric.NumericStats` via
  :meth:`NumericStats.merge`;
* **observe** — merge every rank's monotonic
  :class:`~repro.runtime.tracing.SpanStream` (clock origins aligned via
  each recorder's single wall-clock sample) into one
  :class:`~repro.runtime.tracing.Trace`, so ``to_chrome_trace()`` and
  utilization queries work on real runs exactly as on simulated ones;
* **monitor** — drain worker heartbeats off the comm layer's telemetry
  channel into a live :class:`~repro.dist.health.RunHealth`: a rank
  silent for ``stall_after_beats`` heartbeat intervals is declared
  *stalled* and fed into the same recovery path a crashed worker takes
  (terminate, retry once, then reassign), slow-but-beating ranks are
  flagged as stragglers, and every life-cycle transition is appended to
  the ``events_path`` JSONL log (the attach point for ``repro monitor``);
* **rebalance** — with ``rebalance=True``, a flagged straggler is asked
  to relinquish its unstarted blocks; the acked positions are handed off
  to a finished worker rank as a :class:`~repro.dist.comm.HandoffMsg`
  (or to :func:`~repro.dist.worker.run_handoff` in this process when
  none is free or the helper fails), journaled under the origin's rank
  into sidecar journals, and reduced as their own producer — one
  owner per block at every instant, so the one-producer-per-tile
  invariant survives any steal x fault interleaving (rules M407/M408 in
  the protocol model);
* **clean up** — terminate stragglers and unlink every shared-memory
  segment in a ``finally``, success or not (the leak tests attach-probe
  every name afterwards); arenas of failed or superseded attempts are
  unmapped there too, adopted ones when the result drops their tiles.

Clock policy: every run-relative clock and deadline here is
``time.monotonic()`` — an NTP step can neither fire nor suppress the
fault-recovery deadline, and durations can never go negative.  The single
wall-clock stamp (``DistReport.started_at``, taken inside
:class:`SpanRecorder`) exists only to label reports and align per-rank
span streams.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import resource_tracker
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.perf import Attribution, PerfModel, RooflineAudit

from repro.core.plan import ExecutionPlan
from repro.dist.bservice import validate_b_budget
from repro.dist.comm import (
    COORDINATOR,
    BlockDoneMsg,
    CommLayer,
    CommStats,
    DoneMsg,
    Empty,
    ErrorMsg,
    HandoffDoneMsg,
    HandoffMsg,
    RelinquishedMsg,
    RelinquishMsg,
)
from repro.dist.faults import FaultPlan
from repro.dist.health import EventLog, RunHealth
from repro.dist.pool import default_start_method
from repro.dist.tile_store import TileArena
from repro.dist.worker import (
    ABORT_EXIT_CODE,
    ScatterMsg,
    WorkerReport,
    run_handoff,
    run_rank,
    worker_main,
)
from repro.runtime.data import GeneratedCollection, MatrixSource
from repro.runtime.metrics import MetricsRegistry, MetricsSnapshot
from repro.runtime.numeric import NumericStats
from repro.runtime.tracing import SpanRecorder, Trace
from repro.sparse.matrix import BlockSparseMatrix
from repro.store import (
    TileStore,
    b_fingerprint,
    plan_fingerprint,
    read_snapshot,
    run_fingerprint,
    validated_completed_blocks,
    write_snapshot,
)
from repro.util.units import fmt_bytes, fmt_time
from repro.util.validation import require

#: Seconds a vanished worker gets to flush a late report before the
#: coordinator declares it dead.
_GRACE_SECONDS = 1.0

#: Upper bound between patrol passes: dead-worker/stall/straggler checks
#: must run on a monotonic cadence even when the message and telemetry
#: streams never go quiet (a busy inbox used to starve detection).
_PATROL_INTERVAL_SECONDS = 0.1

#: Seconds an outstanding handoff may run on a helper rank before the
#: coordinator gives up on it and re-executes the blocks inline.
_HANDOFF_TIMEOUT_SECONDS = 60.0


class DistExecutionError(RuntimeError):
    """The distributed run could not complete (even after recovery)."""


@dataclass
class DistReport:
    """Everything observed about one distributed run."""

    stats: NumericStats
    trace: Trace
    comm: CommStats
    attempts: dict[int, int]
    reassigned: list[int]
    segments: list[str]
    b_max_instantiations: int = 0
    nworkers: int = 0
    started_at: float = 0.0  # wall-clock stamp, labeling only
    b_hits: int = 0
    b_evictions: int = 0
    spans_dropped: int = 0
    shm_bytes: int = 0
    metrics: MetricsSnapshot | None = None
    health: RunHealth | None = None
    events_path: str | None = None
    stalled: list[int] = field(default_factory=list)
    checkpoint_dir: str | None = None
    run_hash: str = ""
    plan_hash: str = ""
    blocks_restored: int = 0
    tasks_skipped: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_puts: int = 0
    #: B tiles served from any cache tier (warm in-process or disk)
    #: instead of generated — nonzero on a warm pooled run's repeat job.
    b_store_hits: int = 0
    handoffs: int = 0
    blocks_rebalanced: int = 0
    tasks_rebalanced: int = 0
    #: Predicted-cost model of the executed plan (when tracing was on);
    #: feeds :meth:`audit` and ``repro explain``.
    model: "PerfModel | None" = None
    #: Merged recorder counters from every rank (dropped.<resource>
    #: seconds, bytes.* accumulators, B-service hit counts, ...).
    span_counters: dict[str, float] = field(default_factory=dict)
    #: Run identifier the caller scoped this run's artifacts under
    #: (``None`` for unscoped one-shot runs).
    run_id: str | None = None

    def summary(self) -> str:
        retried = {r: a for r, a in self.attempts.items() if a > 1}
        return (
            f"{self.nworkers} workers, {self.stats.ntasks} tasks, "
            f"comm: {self.comm.summary()}"
            + (f", retried {sorted(retried)}" if retried else "")
            + (f", stalled {sorted(set(self.stalled))}" if self.stalled else "")
            + (f", reassigned {sorted(self.reassigned)}" if self.reassigned else "")
            + (
                f", resumed {self.blocks_restored} block(s) "
                f"({self.tasks_skipped} tasks skipped)"
                if self.blocks_restored else ""
            )
            + (
                f", rebalanced {self.blocks_rebalanced} block(s) "
                f"({self.tasks_rebalanced} tasks over {self.handoffs} "
                f"handoff(s))"
                if self.blocks_rebalanced else ""
            )
        )

    # -- derived observability metrics ---------------------------------------

    def rank_utilization(self) -> dict[int, float]:
        """Per-rank GPU busy fraction over the run.

        GEMM-span seconds on a rank's ``gpu.<rank>.<g>.comp`` resources,
        normalized by the makespan times the number of that rank's GPU
        streams that appear in the trace (so a fully busy multi-GPU rank
        reports 1.0, not the GPU count).  Empty when tracing was disabled.
        """
        span = self.trace.makespan
        if span <= 0:
            return {}
        busy: dict[int, float] = {}
        streams: dict[int, set[str]] = {}
        for e in self.trace.events:
            parts = e.resource.split(".")
            if parts[0] == "gpu" and parts[-1] == "comp":
                rank = int(parts[1])
                busy[rank] = busy.get(rank, 0.0) + e.duration
                streams.setdefault(rank, set()).add(e.resource)
        return {r: busy[r] / (span * len(streams[r])) for r in sorted(busy)}

    def queue_wait_seconds(self) -> dict[int, float]:
        """Per-rank seconds spent blocked on queues.

        The initial scatter inbox wait per rank, plus whatever a trace
        producer records on a rank's ``.wait`` resources.
        """
        waits: dict[int, float] = {}
        for e in self.trace.events:
            if e.resource.endswith(".wait") or e.task == "inbox.wait":
                rank = int(e.resource.split(".")[1])
                waits[rank] = waits.get(rank, 0.0) + e.duration
        return dict(sorted(waits.items()))

    def observability_summary(self) -> str:
        """A human-readable digest of the merged trace and counters."""
        lines = [f"makespan {fmt_time(self.trace.makespan)}; {self.summary()}"]
        util = self.rank_utilization()
        if util:
            lines.append(
                "per-rank GPU busy fraction: "
                + ", ".join(f"rank {r}: {u:.1%}" for r, u in util.items())
            )
        waits = self.queue_wait_seconds()
        if waits:
            lines.append(
                "per-rank queue wait: "
                + ", ".join(f"rank {r}: {fmt_time(w)}" for r, w in waits.items())
            )
        lines.append(
            f"B service: {self.stats.b_tiles_generated} generated, "
            f"{self.b_hits} hits, {self.b_evictions} LRU evictions"
        )
        lines.append(
            f"shared memory: {len(self.segments)} segments, "
            f"{fmt_bytes(self.shm_bytes)} of tiles"
        )
        if self.checkpoint_dir is not None or self.store_puts or self.store_hits:
            lines.append(
                f"tile store: {self.store_hits} hits, {self.store_misses} "
                f"misses, {self.store_puts} puts"
                + (
                    f"; checkpoint: {self.blocks_restored} block(s) restored, "
                    f"{self.tasks_skipped} tasks skipped"
                    if self.checkpoint_dir is not None else ""
                )
            )
        if self.health is not None and self.health.heartbeats:
            lines.append(
                f"telemetry: {self.health.heartbeats} heartbeats "
                f"({fmt_bytes(self.comm.telemetry_total())})"
            )
        if self.spans_dropped:
            lost = sum(
                v for k, v in self.span_counters.items()
                if k.startswith("dropped.")
            )
            lines.append(
                f"WARNING: {self.spans_dropped} spans dropped at the recorder "
                f"bound" + (f" ({fmt_time(lost)} of busy time lost)" if lost else "")
            )
        lines.append(self.comm.table())
        return "\n".join(lines)

    # -- performance attribution (repro.perf) --------------------------------

    def attribution(self) -> "Attribution":
        """Critical-path blame buckets of the merged trace (see
        :func:`repro.perf.attribute`)."""
        from repro.perf import attribute

        return attribute(self.trace)

    def audit(self, band: tuple[float, float] | None = None) -> "RooflineAudit":
        """Model-vs-measured audit of the run (see
        :func:`repro.perf.audit_run`).  Empty when the run was untraced."""
        from repro.perf import DEFAULT_BAND, audit_run

        return audit_run(
            self.trace,
            self.model,
            comm_link_bytes=dict(self.comm.link_bytes),
            band=band if band is not None else DEFAULT_BAND,
        )


def execute_plan_distributed(
    plan: ExecutionPlan,
    a: BlockSparseMatrix,
    b,
    c: BlockSparseMatrix | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    *,
    fault_plan: FaultPlan | None = None,
    max_retries: int = 1,
    allow_reassign: bool = True,
    timeout: float = 120.0,
    start_method: str | None = None,
    verify_plan: bool = False,
    trace: bool = True,
    trace_max_spans: int = 200_000,
    heartbeat_interval: float = 0.25,
    stall_after_beats: int = 8,
    straggler_fraction: float = 0.25,
    metrics: bool = True,
    events_path: str | None = None,
    checkpoint_dir: str | None = None,
    store_dir: str | None = None,
    store_budget_bytes: int | None = None,
    snapshot_interval: float = 1.0,
    rebalance: bool = False,
    pool=None,
    run_id: str | None = None,
) -> tuple[BlockSparseMatrix, DistReport]:
    """Run the plan across one real worker process per planned rank.

    Returns ``(C, report)`` with ``C`` bit-for-bit equal to the serial
    :func:`~repro.runtime.numeric.execute_plan` result for the same
    operands and seeds.  ``fault_plan`` sabotages workers for recovery
    testing; ``max_retries``/``allow_reassign`` tune the recovery policy
    (retry-once-then-reassign by default).  ``verify_plan=True`` runs the
    static plan verifier (:func:`repro.analysis.verify_plan`) first and
    raises :class:`repro.analysis.PlanVerificationError` on any finding —
    a corrupted plan is rejected before a single worker process spawns or
    a single shared-memory segment is created.  ``trace=False`` disables
    span recording end to end (no clock reads in the workers' hot loops);
    the numeric result is identical either way.

    Live telemetry: with a positive ``heartbeat_interval`` every worker
    beats on the out-of-band telemetry channel; a rank silent for
    ``stall_after_beats`` intervals (plus a startup grace before its
    first beat) is treated exactly like a crashed one — terminated,
    retried, then reassigned.  ``heartbeat_interval=0`` disables both
    heartbeats and stall detection.  ``metrics`` ships a cumulative
    :class:`~repro.runtime.metrics.MetricsSnapshot` with each beat and
    report; the merged run-wide snapshot lands in ``report.metrics``.
    ``events_path`` appends the run's life-cycle (``plan_accepted``,
    ``worker_up``, ``heartbeat``, ``stall``, ``reassign``, ``done``, ...)
    as JSONL — the file ``repro monitor`` tails.  A ``run_id`` scopes the
    log to a per-run file (``run-events.<run_id>.jsonl``) and stamps
    every record, so concurrent jobs sharing an events directory never
    clobber each other; ``report.events_path`` names the file written.

    Pooled execution: ``pool`` (a :class:`~repro.dist.pool.WorkerPool`
    with ``pool.nranks == plan.grid.nprocs``) lends this run its comm
    layer and warm worker processes — the coordinator spawns nothing it
    can reuse and, crucially, terminates nothing in its ``finally``, so
    the processes (and any warm B-tile caches inside them) survive for
    the next run.  The pool's owner is responsible for teardown
    (:meth:`~repro.dist.pool.WorkerPool.close`) and, after a run that
    raised, for resetting the pool (a worker may still be computing for
    the dead run; :mod:`repro.serve` recycles the processes and drains
    stale traffic).  ``start_method`` is ignored when a pool is given —
    the pool's context wins.

    Persistence: ``store_dir`` roots a :class:`~repro.store.TileStore`
    that backs every rank's B service as a second cache tier (tiles
    generated once are reused across runs and ranks).  ``checkpoint_dir``
    additionally turns on crash-consistent checkpointing: each rank
    journals every completed block (C tiles to the store first, then an
    fsynced journal line), the coordinator snapshots run identity and
    per-rank progress every ``snapshot_interval`` seconds, and *every*
    scatter — first attempt, retry, or a whole fresh run over the same
    directory — first restores the journaled blocks instead of
    recomputing them.  A run killed at any instant (including via the
    ``abort`` fault, which fails the whole job unrecoverably) therefore
    resumes bit-for-bit identical to an uninterrupted run.  A checkpoint
    directory whose snapshot records a *different plan* is refused up
    front (the P121 analysis rule makes the same check statically);
    ``store_budget_bytes`` bounds the store on disk via LRU GC.

    Rebalancing: ``rebalance=True`` turns straggler detection into
    action.  A flagged straggler is sent a cooperative relinquish
    request; at its next block boundary it acks the positions of its
    unstarted blocks, which the coordinator hands off to a finished
    worker rank (or executes inline) and reduces as their own producer.
    Relinquished positions are excluded from any later retry of the
    origin, and handoff journals land in per-handoff sidecar files under
    the origin's rank, so checkpoint/resume replays ownership transfers
    transparently.  The result stays bit-for-bit equal to the serial
    executor.

    Protocol:
        recv done: worker -> coordinator [data]
        recv error: worker -> coordinator [data]
        recv relinquished: worker -> coordinator [data]
        recv handoff_done: worker -> coordinator [data]

    Both reports carry the attempt number they belong to; the supervise
    loop discards any report from a superseded attempt (a retry raced
    the patrol's grace window) — acting on one would credit a
    half-written C arena or recover a rank twice.  The full protocol is
    declared as a checkable model in
    :mod:`repro.analysis.protocol.spec`; ``repro analyze --model-check``
    explores it exhaustively over small scopes.
    """
    if verify_plan:
        from repro.analysis import assert_plan_valid  # late import: avoid cycle

        assert_plan_valid(plan)
    if isinstance(b, MatrixSource):
        b = b.matrix
    require(a.rows == plan.a_shape.rows and a.cols == plan.a_shape.cols, "A tilings differ from plan")
    require(a.cols == plan.b_shape.rows, "A and B do not conform")
    require(
        c is None or (c.rows == a.rows and c.cols == plan.b_shape.cols),
        "C tilings do not conform",
    )
    if isinstance(b, GeneratedCollection):
        # Fail fast: a B tile larger than the per-rank LRU budget would
        # otherwise empty a worker's cache and kill it mid-run.
        validate_b_budget(b.shape, plan.gpu_memory_bytes)
    if fault_plan is not None:
        for inj in fault_plan.injections:
            require(
                inj.rank < plan.grid.nprocs,
                f"fault injection targets rank {inj.rank}, but the plan has "
                f"only {plan.grid.nprocs} rank(s)",
            )

    # ---- persistence / checkpoint identity --------------------------------
    persist = checkpoint_dir is not None or store_dir is not None
    plan_hash = b_hash = run_hash = ""
    coord_store: TileStore | None = None
    if persist or pool is not None:
        # A pooled run fingerprints its operands even without a disk
        # tier: the workers' process-lifetime warm caches are keyed by
        # the B fingerprint, and an empty namespace would alias operands.
        plan_hash = plan_fingerprint(plan)
        b_hash = b_fingerprint(b)
        run_hash = run_fingerprint(plan_hash, b_hash, alpha)
    if persist:
        store_root = store_dir or f"{checkpoint_dir}/store"
        if checkpoint_dir is not None:
            snap = read_snapshot(checkpoint_dir)
            if snap is not None and snap.get("plan") not in (None, plan_hash):
                raise DistExecutionError(
                    f"checkpoint directory {checkpoint_dir!r} belongs to a "
                    f"different plan (snapshot plan hash "
                    f"{str(snap.get('plan'))[:12]}..., this plan "
                    f"{plan_hash[:12]}...); resume with the original "
                    f"operands/grid or point checkpoint_dir at a fresh "
                    f"directory"
                )
        coord_store = TileStore(store_root, budget_bytes=store_budget_bytes)

    nranks = plan.grid.nprocs
    if pool is not None:
        require(not pool.closed, "worker pool is closed")
        require(
            pool.nranks == nranks,
            f"plan wants {nranks} rank(s) but the pool serves {pool.nranks}",
        )
        ctx = pool.ctx
        comm = pool.comm
    else:
        ctx = mp.get_context(start_method or default_start_method())
        comm = CommLayer(nranks, ctx)
    coord = comm.endpoint(COORDINATOR)
    comm_stats = CommStats()
    # The coordinator's own recorder doubles as the run's monotonic clock
    # and the alignment anchor for every rank's span stream.
    rec = SpanRecorder(enabled=trace, max_spans=trace_max_spans)
    clock = rec.now

    registry = MetricsRegistry(enabled=metrics)
    m_heartbeats = registry.counter(
        "repro_heartbeats_total", "worker heartbeats received"
    )
    m_stalls = registry.counter(
        "repro_stalls_detected_total", "ranks declared stalled via missed heartbeats"
    )
    m_retries = registry.counter(
        "repro_worker_retries_total", "worker processes respawned after a failure"
    )
    m_reassigned = registry.counter(
        "repro_ranks_reassigned_total", "ranks reassigned to the coordinator"
    )
    m_rebalance_requests = registry.counter(
        "repro_rebalance_requests_total",
        "relinquish requests sent to flagged stragglers",
    )
    m_rebalance_blocks = registry.counter(
        "repro_rebalance_blocks_reclaimed_total",
        "blocks reclaimed from stragglers and handed off",
    )
    m_rebalance_tasks = registry.counter(
        "repro_rebalance_tasks_moved_total",
        "GEMM tasks moved off stragglers by the rebalancer",
    )
    m_rebalance_handoffs = registry.counter(
        "repro_rebalance_handoffs_total",
        "handoffs dispatched (to helper ranks or the inline spare)",
    )
    m_blocks_completed = registry.counter(
        "repro_blocks_completed_total",
        "per-block completion reports received on the telemetry channel",
    )
    health = RunHealth(
        heartbeat_interval=heartbeat_interval,
        stall_after_beats=stall_after_beats,
        straggler_fraction=straggler_fraction,
    )
    events = EventLog(events_path, run_id)
    events.emit(
        "plan_accepted",
        nranks=nranks,
        heartbeat_interval=heartbeat_interval,
        stall_after_beats=stall_after_beats,
        tasks_per_rank={r: plan.procs[r].ntasks for r in range(nranks)},
    )

    arenas: list[TileArena] = []
    workers: dict[int, mp.Process] = {}
    # clock() stamps bracketing each rank's life outside its own recorder:
    # ``spawn_clock`` at proc.start(), ``report_clock`` at done-report
    # receipt.  At merge time the windows they bound against the worker's
    # own span extent become measured ``spawn.<rank>`` / ``report.<rank>``
    # spans (process startup; report serialization + shipping) instead of
    # unattributable idle on the critical path.
    spawn_clock: dict[int, float] = {}
    report_clock: dict[int, float] = {}
    # Processes this call forks itself are born holding A and B; a pool's
    # predate them and spawned ones inherit nothing — those get arenas.
    resident = pool is None and ctx.get_start_method() == "fork"
    try:
        a_meta = None
        if not resident:
            with rec.span("pack.a", "net.-1"):
                arenas.append(TileArena.pack("a", a.items()))
            a_meta = arenas[-1].meta()

        if isinstance(b, BlockSparseMatrix):
            b_spec = ("resident", None)
            if not resident:
                with rec.span("pack.b", "net.-1"):
                    arenas.append(TileArena.pack("b", b.items()))
                b_spec = ("arena", arenas[-1].meta())
        elif isinstance(b, GeneratedCollection):
            b_spec = ("generated", b.empty_clone())
        else:
            raise TypeError(
                f"distributed execution needs a BlockSparseMatrix or "
                f"GeneratedCollection B, got {type(b).__name__}"
            )

        #: What every scatter and handoff of this run says about operands,
        #: numerics and persistence: one dict, so the two cannot drift.
        run_fields = dict(
            a_meta=a_meta, b_spec=b_spec, alpha=alpha,
            gpu_memory_bytes=plan.gpu_memory_bytes, b_csr=plan.b_shape.csr,
            tau=plan.options.screen_threshold,
            store_dir=store_dir, store_budget=store_budget_bytes,
            b_hash=b_hash, ckpt_dir=checkpoint_dir, run_hash=run_hash,
        )
        #: The same, for a rank or handoff this process executes itself
        #: (`run_rank` / `run_handoff` called in-process): it reads the A
        #: and B it holds, whatever plane the worker processes are on.
        in_process_fields = dict(
            run_fields, a_meta=None,
            b_spec=("resident", None) if b_spec[0] == "arena" else b_spec,
        )

        def c_arena_for(tag: str, blocks) -> TileArena:
            """A fresh output arena with room for every C tile of ``blocks``."""
            arena = TileArena.allocate(tag, sum(blk.c_bytes for blk in blocks))
            arenas.append(arena)
            return arena

        # ---- scatter ------------------------------------------------------
        attempts = {rank: 1 for rank in range(nranks)}
        c_arenas: dict[int, TileArena] = {}
        #: The freshest cumulative MetricsSnapshot per rank — heartbeats
        #: update it live, the rank's final report supersedes them.
        last_metrics: dict[int, MetricsSnapshot] = {}

        def completed_for(rank: int) -> tuple:
            """Journaled-and-validated blocks this scatter may skip.

            Re-read from disk on *every* scatter: a fresh run resumes a
            prior run's journal, and a retried rank resumes whatever its
            killed predecessor managed to journal this run.
            """
            if checkpoint_dir is None:
                return ()
            done = validated_completed_blocks(
                checkpoint_dir, rank, run_hash, coord_store
            )
            return tuple(
                (g, bi, rec_.tiles) for (g, bi), rec_ in sorted(done.items())
            )

        #: Block positions reclaimed from each rank, cumulative across its
        #: attempts: a retried origin must never re-execute a block the
        #: rebalancer already owns (that would double-produce its tiles).
        stolen_blocks: dict[int, set[tuple[int, int]]] = {}

        def block_tasks(rank: int, positions) -> int:
            """GEMM tasks in the ``(gpu, index)`` block positions of ``rank``."""
            return sum(
                plan.procs[rank].gpu_blocks(g)[bi].ntasks for g, bi in positions
            )

        def rank_msg(rank: int, attempt: int, in_process: bool = False) -> ScatterMsg:
            """One attempt of ``rank`` as a message: a fresh C arena, the
            journaled blocks to restore, the stolen ones to skip.

            A worker process also gets the fault armed for this attempt; an
            in-process execution never does — an injection armed for every
            attempt would ``os._exit`` the coordinator.
            """
            c_arenas[rank] = c_arena_for(
                f"c{rank}a{attempt}", plan.procs[rank].blocks
            )
            inj = None if in_process or fault_plan is None else fault_plan.for_rank(rank)
            if inj is not None and not inj.armed(attempt):
                inj = None
            stolen = stolen_blocks.get(rank, set())
            # A journal may already hold stolen blocks (the handoff's
            # sidecar): they are the handoff's to produce, not this rank's
            # to restore.
            completed = tuple(
                t for t in completed_for(rank) if (t[0], t[1]) not in stolen
            )
            if completed:
                events.emit(
                    "resume", rank=rank, attempt=attempt,
                    blocks=len(completed),
                    tasks_skipped=block_tasks(
                        rank, [(g, bi) for g, bi, _ in completed]
                    ),
                )
            return ScatterMsg(
                proc=plan.procs[rank],
                grid=plan.grid,
                gpus_per_proc=plan.grid.gpus_per_proc,
                c_meta=c_arenas[rank].meta(),
                fault=inj,
                attempt=attempt,
                trace=trace,
                max_spans=trace_max_spans,
                heartbeat_interval=heartbeat_interval,
                metrics=metrics,
                completed=completed,
                excluded=tuple(sorted(stolen)),
                rebalance=rebalance,
                **(in_process_fields if in_process else run_fields),
            )

        def scatter(rank: int, attempt: int) -> None:
            """Ship one rank its attempt.

            Protocol:
                send scatter: coordinator -> worker [data]
            """
            msg = rank_msg(rank, attempt)
            t_send = clock()
            sent = coord.send(rank, msg)
            rec.record(f"scatter.{rank}", f"net.{rank}", t_send, clock())
            rec.count("bytes.scatter", sent)
            # Net of the blocks stolen from earlier attempts: the rank's
            # progress fraction is over what it still owns.
            stolen = stolen_blocks.get(rank, ())
            tasks_total = plan.procs[rank].ntasks - block_tasks(rank, stolen)
            health.on_scatter(rank, tasks_total, attempt, time.monotonic())
            last_metrics.pop(rank, None)  # a fresh attempt restarts its counters
            events.emit(
                "scatter", rank=rank, attempt=attempt, tasks_total=tasks_total
            )

        def spawn(rank: int) -> None:
            spawn_clock[rank] = clock()
            if pool is not None:
                # Borrowed process: alive from a previous run (warm) or
                # respawned by the pool after a failure.  The pool keeps
                # the canonical record; ``workers`` mirrors it so the
                # supervise loop's liveness checks read one dict.
                workers[rank] = pool.ensure(rank)
                return
            # One shared tracker, as in WorkerPool.ensure.
            resource_tracker.ensure_running()
            proc = ctx.Process(
                target=worker_main,
                args=(rank, comm.endpoint(rank), None, False,
                      (a, b) if resident else None),
                daemon=True,
            )
            proc.start()
            workers[rank] = proc

        for rank in range(nranks):
            spawn(rank)
            scatter(rank, attempt=0)

        # ---- supervise / gather -------------------------------------------
        reports: dict[int, WorkerReport] = {}
        reassigned: list[int] = []
        stalled: list[int] = []
        pending = set(range(nranks))
        suspects: dict[int, float] = {}
        deadline = time.monotonic() + timeout

        # ---- rebalance state ---------------------------------------------
        #: rank -> attempt of the one relinquish request in flight to it.
        outstanding_relinquish: dict[int, int] = {}
        #: handoff id -> record of a dispatch to a helper rank (origin,
        #: helper, blocks, arena, start instant).
        pending_handoffs: dict[int, dict] = {}
        #: handoff id -> (origin, adopted C tiles, stats) for the reduction.
        handoff_results: dict[int, tuple] = {}
        next_handoff = 0

        def accept_report(rank: int, report: WorkerReport) -> None:
            """The live attempt of ``rank`` finished, wherever it ran."""
            reports[rank] = report
            report_clock[rank] = clock()
            pending.discard(rank)
            if report.metrics is not None:
                last_metrics[rank] = report.metrics

        def run_inline(rank: int) -> None:
            """Reassign a twice-failed rank to the coordinator-local spare:
            :func:`~repro.dist.worker.run_rank`, called in this process —
            same message, same arena, same report as a worker's, minus the
            endpoint (no heartbeats, no inbox to poll)."""
            msg = rank_msg(rank, attempts[rank] - 1, in_process=True)
            spawn_clock.pop(rank, None)  # no process start-up to attribute
            accept_report(rank, run_rank(msg, (a, b)))
            reassigned.append(rank)
            m_reassigned.inc()
            health.mark(rank, "reassigned")
            events.emit("reassign", rank=rank, attempt=attempts[rank])

        def on_failure(rank: int, reason: str) -> None:
            suspects.pop(rank, None)
            # A retried or reassigned rank starts a fresh attempt: its
            # straggler flag must not outlive the attempt it measured (a
            # slow *second* attempt must be re-flaggable), and any
            # relinquish in flight to the dead attempt is superseded.
            flagged_stragglers.discard(rank)
            outstanding_relinquish.pop(rank, None)
            old = workers.pop(rank, None)
            if old is not None and old.is_alive():
                # Still breathing (a stalled or wedged worker): put it down
                # before its rank is re-executed anywhere else.
                old.terminate()
                old.join(timeout=1.0)
            if attempts[rank] <= max_retries:
                attempts[rank] += 1
                m_retries.inc()
                health.mark(rank, "retried")
                events.emit(
                    "retry", rank=rank, attempt=attempts[rank] - 1, reason=reason
                )
                spawn(rank)
                scatter(rank, attempt=attempts[rank] - 1)
            elif allow_reassign:
                attempts[rank] += 1
                run_inline(rank)
            else:
                raise DistExecutionError(
                    f"rank {rank} failed after {attempts[rank]} attempt(s): {reason}"
                )

        def drain_telemetry() -> None:
            """Fold every queued heartbeat into the live health picture.

            Protocol:
                recv heartbeat: worker -> coordinator [telemetry]
                recv block_done: worker -> coordinator [telemetry]
            """
            while True:
                try:
                    src, hb, nbytes = coord.recv_telemetry()
                except Empty:
                    return
                comm_stats.absorb_telemetry({(src, COORDINATOR): nbytes})
                if isinstance(hb, BlockDoneMsg):
                    if hb.attempt == attempts.get(hb.rank, 0) - 1:
                        m_blocks_completed.inc()
                        events.emit(
                            "block_done", rank=hb.rank, attempt=hb.attempt,
                            gpu=hb.gpu, block=hb.block, tasks=hb.ntasks,
                        )
                    continue
                now = time.monotonic()
                first = (
                    health.ranks.get(hb.rank) is not None
                    and health.ranks[hb.rank].first_beat is None
                )
                if not health.on_heartbeat(hb, now):
                    continue  # late beat from a terminated attempt
                m_heartbeats.inc()
                if hb.metrics is not None:
                    last_metrics[hb.rank] = hb.metrics
                if first:
                    events.emit("worker_up", rank=hb.rank, attempt=hb.attempt)
                events.emit(
                    "heartbeat", rank=hb.rank, attempt=hb.attempt, seq=hb.seq,
                    tasks_done=hb.tasks_done, uptime=round(hb.uptime, 3),
                )

        flagged_stragglers: set[int] = set()

        def maybe_relinquish(rank: int) -> None:
            """Ask a flagged straggler to yield its unstarted blocks.

            At most one request per rank is in flight; the pin to the live
            attempt lets the worker (and the supervise loop) discard a
            request that raced a retry.

            Protocol:
                send relinquish: coordinator -> worker [data]
            """
            if not rebalance or rank in outstanding_relinquish or rank not in pending:
                return
            att = attempts[rank] - 1
            outstanding_relinquish[rank] = att
            coord.send(rank, RelinquishMsg(attempt=att))
            m_rebalance_requests.inc()
            events.emit("rebalance", rank=rank, attempt=att)

        def pick_helper() -> int | None:
            """A finished worker rank able to absorb a handoff, or ``None``.

            Only ranks with a live process qualify: an inline-reassigned
            rank has none (``on_failure`` dropped it from ``workers``).
            """
            for r in sorted(reports):  # reported, hence no longer pending
                proc = workers.get(r)
                if proc is not None and proc.is_alive():
                    return r
            return None

        def handoff_msg(hid: int, origin: int, blocks: tuple,
                        in_process: bool = False) -> tuple[HandoffMsg, TileArena]:
            """One execution of a handoff as a message, with its own fresh
            ``h<id>`` C arena: a re-execution never shares the arena a failed
            or timed-out helper may still be writing."""
            arena = c_arena_for(f"h{hid}", [blk for _, _, blk in blocks])
            return HandoffMsg(
                handoff_id=hid,
                origin=origin,
                blocks=blocks,
                c_meta=arena.meta(),
                **(in_process_fields if in_process else run_fields),
            ), arena

        def finish_handoff(hid: int, origin: int, helper: int | None,
                           arena: TileArena, c_index: dict, stats) -> None:
            handoff_results[hid] = (origin, arena.adopt(c_index), stats)
            events.emit(
                "handoff_done", handoff=hid, origin=origin, helper=helper,
                tasks=stats.ntasks,
            )

        def run_handoff_inline(hid: int, origin: int, blocks: tuple) -> None:
            """Execute one handoff's blocks in the coordinator process
            (:func:`~repro.dist.worker.run_handoff`, called in-process).

            The fallback producer: used when no helper rank is free, when
            the chosen helper dies or reports failure mid-handoff, or when
            a handoff times out.  Re-executing after a partial helper run
            is safe — duplicate journal/store records are bit-identical
            and only this result's arena is adopted.
            """
            msg, arena = handoff_msg(hid, origin, blocks, in_process=True)
            finish_handoff(hid, origin, None, arena, *run_handoff(msg, (a, b)))

        def fail_handoff(hid: int, reason: str) -> None:
            """A helper lost handoff ``hid``: redo its blocks inline."""
            h = pending_handoffs.pop(hid)
            events.emit(
                "handoff_failed", handoff=hid, origin=h["origin"],
                helper=h["helper"], reason=reason,
            )
            run_handoff_inline(hid, h["origin"], h["blocks"])

        def dispatch_handoff(origin: int, positions: tuple, moved: int) -> None:
            """Ship reclaimed blocks (``moved`` tasks) to a helper rank, or
            run them inline.

            Protocol:
                send handoff: coordinator -> worker [data]
            """
            nonlocal next_handoff
            hid = next_handoff
            next_handoff += 1
            blocks = tuple(
                (g, bi, plan.procs[origin].gpu_blocks(g)[bi])
                for g, bi in positions
            )
            helper = pick_helper()
            m_rebalance_handoffs.inc()
            m_rebalance_blocks.inc(len(blocks))
            m_rebalance_tasks.inc(moved)
            events.emit(
                "handoff", handoff=hid, origin=origin, helper=helper,
                blocks=len(blocks), tasks=moved,
            )
            if helper is None:
                run_handoff_inline(hid, origin, blocks)
                return
            msg, arena = handoff_msg(hid, origin, blocks)
            pending_handoffs[hid] = {
                "origin": origin, "helper": helper, "blocks": blocks,
                "arena": arena, "started": time.monotonic(),
            }
            coord.send(helper, msg)

        def patrol() -> None:
            """Dead-worker, stall, and straggler checks between messages."""
            now = time.monotonic()
            for rank in sorted(pending):
                proc = workers.get(rank)
                if proc is not None and proc.exitcode == ABORT_EXIT_CODE:
                    # The abort fault: the whole job is lost, not one rank —
                    # no retry, no reassignment.  Whatever the journals
                    # captured is the resume point.
                    events.emit("abort", rank=rank, attempt=attempts[rank] - 1)
                    raise DistExecutionError(
                        f"rank {rank} aborted (unrecoverable kill)"
                        + (
                            f"; resume by re-running with "
                            f"checkpoint_dir={checkpoint_dir!r}"
                            if checkpoint_dir is not None else ""
                        )
                    )
                if proc is not None and proc.exitcode is not None:
                    first = suspects.setdefault(rank, now)
                    if now - first >= _GRACE_SECONDS:
                        on_failure(rank, f"worker exited with code {proc.exitcode}")
            for rank in health.stalled_ranks(time.monotonic(), pending):
                m_stalls.inc()
                stalled.append(rank)
                health.mark(rank, "stalled")
                silent = time.monotonic() - health.ranks[rank].last_signal
                events.emit(
                    "stall", rank=rank, attempt=attempts[rank] - 1,
                    silent_seconds=round(silent, 3),
                )
                on_failure(
                    rank,
                    f"stalled: no heartbeat for {silent:.2f} s "
                    f"(> {stall_after_beats} x {heartbeat_interval} s)",
                )
            current = set(health.straggler_ranks(time.monotonic()))
            for rank in sorted(current - flagged_stragglers):
                flagged_stragglers.add(rank)
                health.mark(rank, "straggler")
                events.emit("straggler", rank=rank)
                maybe_relinquish(rank)
            for rank in sorted(flagged_stragglers - current):
                # Recovery: the rank's windowed rate climbed back over the
                # threshold (or it finished).  Clear the flag so a later
                # slowdown re-flags it — a sticky flag would mute every
                # straggler after its first offense.
                flagged_stragglers.discard(rank)
                rh = health.ranks.get(rank)
                if rh is not None and rh.state == "straggler":
                    health.mark(rank, "running")
                    events.emit("straggler_recovered", rank=rank)
            for hid in sorted(pending_handoffs):
                h = pending_handoffs[hid]
                proc = workers.get(h["helper"])
                if proc is None or proc.exitcode is not None:
                    fail_handoff(hid, "helper died")
                elif now - h["started"] > _HANDOFF_TIMEOUT_SECONDS:
                    fail_handoff(hid, "timeout")

        def snapshot(state: str) -> None:
            """Atomically refresh ``coordinator.json`` with live progress."""
            if checkpoint_dir is None:
                return
            write_snapshot(checkpoint_dir, {
                "v": 1,
                "state": state,
                "plan": plan_hash,
                "b": b_hash,
                "run": run_hash,
                "alpha": float(alpha),
                "nranks": nranks,
                "attempts": {str(r): a for r, a in attempts.items()},
                "ranks": {
                    str(r): {
                        "state": rh.state,
                        "tasks_done": rh.tasks_done,
                        "tasks_total": rh.tasks_total,
                    }
                    for r, rh in health.ranks.items()
                },
            })

        # The first snapshot lands before any worker makes progress, so a
        # run killed at any later instant still records its identity (and a
        # later mismatched plan is refused).
        snapshot("running")
        last_snapshot = time.monotonic()
        last_patrol = time.monotonic()

        while pending or pending_handoffs:
            if time.monotonic() > deadline:
                raise DistExecutionError(
                    f"distributed run timed out after {timeout:.0f} s "
                    f"(pending ranks: {sorted(pending)})"
                )
            if time.monotonic() - last_snapshot >= snapshot_interval:
                snapshot("running")
                last_snapshot = time.monotonic()
            drain_telemetry()
            # Patrol on a bounded monotonic cadence, not only when the
            # inbox goes quiet: a steady message stream used to starve
            # dead-worker/stall/straggler detection entirely.
            if time.monotonic() - last_patrol >= _PATROL_INTERVAL_SECONDS:
                patrol()
                last_patrol = time.monotonic()
            try:
                src, msg, nbytes = coord.recv(timeout=0.1)
            except Empty:
                patrol()
                last_patrol = time.monotonic()
                continue
            rank = msg.rank
            comm_stats.absorb({(rank, COORDINATOR): nbytes}, {(rank, COORDINATOR): 1})
            if isinstance(msg, DoneMsg):
                # Accept only the live attempt's report: a stale one from a
                # superseded attempt (its worker lost the race against the
                # patrol's grace window) points at a retired C arena — the
                # protocol model's recv:done:stale -> discard edge.
                report = msg.report
                if rank in pending and report.attempt == attempts[rank] - 1:
                    accept_report(rank, report)
                    suspects.pop(rank, None)
                    # A done report supersedes any relinquish in flight to
                    # this rank (M408) and retires its straggler flag.
                    outstanding_relinquish.pop(rank, None)
                    flagged_stragglers.discard(rank)
                    health.on_done(rank, time.monotonic())
                    events.emit(
                        "rank_done", rank=rank, attempt=report.attempt,
                        tasks=report.stats.ntasks,
                    )
                else:
                    events.emit(
                        "stale_report", rank=rank, kind="done",
                        attempt=report.attempt,
                    )
            elif isinstance(msg, ErrorMsg):
                if rank in pending and msg.attempt in (-1, attempts[rank] - 1):
                    on_failure(rank, msg.traceback)
                else:
                    events.emit(
                        "stale_report", rank=rank, kind="error",
                        attempt=msg.attempt,
                    )
            elif isinstance(msg, RelinquishedMsg):
                # Accept only the ack for the request we sent to the live
                # attempt; anything else is stale (the rank finished, died,
                # or was retried in between).
                att, positions = msg.attempt, msg.positions
                requested = outstanding_relinquish.get(rank) == att
                if requested:
                    del outstanding_relinquish[rank]
                if requested and rank in pending and att == attempts[rank] - 1:
                    moved = block_tasks(rank, positions)
                    events.emit(
                        "relinquished", rank=rank, attempt=att,
                        blocks=len(positions), tasks=moved,
                    )
                    if positions:
                        stolen_blocks.setdefault(rank, set()).update(positions)
                        health.on_relinquished(rank, moved)
                        dispatch_handoff(rank, positions, moved)
                else:
                    events.emit(
                        "stale_report", rank=rank, kind="relinquished",
                        attempt=att,
                    )
            elif isinstance(msg, HandoffDoneMsg):
                hid = msg.handoff_id
                h = pending_handoffs.get(hid)
                if h is None:
                    # Already resolved (timed out and redone inline, or a
                    # duplicate): the late result is stale, not an error.
                    events.emit(
                        "stale_report", rank=rank, kind="handoff_done",
                        handoff=hid,
                    )
                elif msg.c_index is None:
                    fail_handoff(hid, "helper error")
                else:
                    del pending_handoffs[hid]
                    finish_handoff(
                        hid, h["origin"], rank, h["arena"], msg.c_index, msg.stats
                    )
            else:  # pragma: no cover - unknown message type
                raise DistExecutionError(f"unexpected message {msg!r}")
        drain_telemetry()  # beats raced against the final reports
        snapshot("done")

        # ---- reduce -------------------------------------------------------
        out = BlockSparseMatrix(a.rows, plan.b_shape.cols)
        if c is not None:
            for (i, j), tile in c.items():
                out.set_tile(i, j, beta * tile)

        produced_by: dict[tuple[int, int], object] = {}
        t_reduce = clock()

        def reduce_producer(producer, who: str, tiles: dict) -> None:
            """Fold one producer's C tiles in: ``accumulate_tile`` adds to a
            seeded ``beta*C`` tile and keeps any other as the result's own —
            an adopted arena view stays where its worker wrote it."""
            for (i, j), tile in tiles.items():
                prev = produced_by.setdefault((i, j), producer)
                require(
                    prev == producer,
                    f"C tile ({i},{j}) produced by two processes ({prev}, {who})",
                )
                out.accumulate_tile(i, j, tile)

        for rank in range(nranks):
            reduce_producer(
                rank, str(rank), c_arenas[rank].adopt(reports[rank].c_index)
            )
        # Handoff producers reduce exactly like ranks: blocks within one
        # process hold disjoint column sets, so a stolen block's tiles can
        # collide neither with the origin's remaining blocks nor with any
        # other rank — the one-producer check enforces it (M407).
        for hid in sorted(handoff_results):
            origin, tiles, _ = handoff_results[hid]
            reduce_producer(("handoff", hid), f"handoff {hid} of rank {origin}", tiles)
        rec.record("reduce", "net.-1", t_reduce, clock())

        # ---- merge stats / trace / comm / metrics -------------------------
        stats = NumericStats.merge(
            [reports[rank].stats for rank in range(nranks)]
            + [s for _, _, s in handoff_results.values()]
        )
        run_trace = Trace()
        run_trace.extend(rec.spans)
        spans_dropped = rec.dropped
        span_counters: dict[str, float] = dict(rec.counters)
        for rank in range(nranks):
            stream = reports[rank].spans
            if stream is not None:
                # Re-base the rank's monotonic clock onto the coordinator's
                # via the two recorders' wall-clock origin samples.
                offset = stream.wall_origin - rec.wall_origin
                run_trace.extend(stream.spans, offset=offset)
                spans_dropped += stream.dropped
                for key, val in stream.counters.items():
                    span_counters[key] = span_counters.get(key, 0.0) + val
                t_spawn = spawn_clock.get(rank)
                if stream.spans and t_spawn is not None and offset > t_spawn:
                    # The measured process-startup window: proc.start() on
                    # the coordinator's clock up to the worker recorder's
                    # origin (its own spans begin at ~0).
                    run_trace.add(f"spawn.{rank}", f"cpu.{rank}", t_spawn, offset)
                t_report = report_clock.get(rank)
                if stream.spans and t_report is not None:
                    # ... and the report-shipping window: the worker's last
                    # recorded span to the coordinator's receipt (report
                    # pickling + queue transfer).
                    last = max(e for _, _, _, e in stream.spans) + offset
                    if t_report > last:
                        run_trace.add(
                            f"report.{rank}", f"net.{rank}", last, t_report
                        )
            comm_stats.absorb(reports[rank].link_bytes)
        comm_stats.absorb(coord.link_bytes, coord.messages)
        registry.counter(
            "repro_spans_dropped_total",
            "trace spans discarded at the recorder bound",
        ).inc(rec.dropped)
        merged_metrics = MetricsSnapshot.merge(
            [last_metrics[r] for r in sorted(last_metrics)] + [registry.snapshot()]
        ) if metrics else None

        perf_model = None
        if trace:
            # The predicted-cost twin of the measured trace: cheap to build
            # (reads stored plan aggregates) and what `repro explain` audits
            # the run against.
            from repro.perf import PerfModel

            perf_model = PerfModel.from_plan(
                plan, plan_hash=plan_hash or plan_fingerprint(plan)
            )

        dist_report = DistReport(
            stats=stats,
            trace=run_trace,
            comm=comm_stats,
            attempts=attempts,
            reassigned=reassigned,
            segments=[arena.name for arena in arenas],
            b_max_instantiations=max(
                (reports[r].b_max_instantiations for r in range(nranks)), default=0
            ),
            nworkers=nranks,
            started_at=rec.wall_origin,
            b_hits=sum(reports[r].b_hits for r in range(nranks)),
            b_evictions=sum(reports[r].b_lru_evictions for r in range(nranks)),
            spans_dropped=spans_dropped,
            shm_bytes=sum(arena.used_bytes for arena in arenas),
            metrics=merged_metrics,
            health=health,
            events_path=events.path,
            stalled=stalled,
            checkpoint_dir=checkpoint_dir,
            run_hash=run_hash,
            plan_hash=plan_hash,
            blocks_restored=sum(reports[r].blocks_restored for r in range(nranks)),
            tasks_skipped=sum(reports[r].tasks_skipped for r in range(nranks)),
            store_hits=sum(reports[r].store_hits for r in range(nranks)),
            store_misses=sum(reports[r].store_misses for r in range(nranks)),
            store_puts=sum(reports[r].store_puts for r in range(nranks)),
            b_store_hits=sum(reports[r].b_store_hits for r in range(nranks)),
            handoffs=len(handoff_results),
            blocks_rebalanced=sum(len(s) for s in stolen_blocks.values()),
            tasks_rebalanced=sum(block_tasks(r, s) for r, s in stolen_blocks.items()),
            model=perf_model,
            span_counters=span_counters,
            run_id=run_id,
        )
        events.emit(
            "done",
            ntasks=stats.ntasks,
            heartbeats=health.heartbeats,
            retried=sorted(r for r, a in attempts.items() if a > 1),
            stalled=sorted(set(stalled)),
            reassigned=sorted(reassigned),
            handoffs=len(handoff_results),
            blocks_rebalanced=sum(len(s) for s in stolen_blocks.values()),
        )
        return out, dist_report
    finally:
        events.close()
        if coord_store is not None:
            coord_store.close()
        if pool is None:
            # One-shot run: the coordinator owns the processes and the
            # comm layer, so it tears both down.  A borrowed pool stays
            # warm — its owner (the serving layer) decides when workers
            # die, and resets the pool itself after a failed run.
            for proc in workers.values():
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=2.0)
        for arena in arenas:
            arena.unlink()
        if pool is None:
            try:
                comm.close()
            except Exception:  # pragma: no cover - queue teardown best-effort
                pass
