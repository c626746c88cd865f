"""The coordinator: scatter the plan, supervise workers, reduce C.

:func:`execute_plan_distributed` is the multi-process twin of
:func:`repro.runtime.numeric.execute_plan`: same signature semantics, same
result *bit for bit* (each rank runs the identical per-process body, and
the reduction applies the identical ``beta*C`` term and one-producer
accumulation).  The serial executor is therefore the crosscheck oracle for
this one.

One run is one :class:`_Coordinator`; its phases, in order:

* **scatter** — give each rank its :class:`~repro.dist.comm.ScatterMsg`,
  the rank with the most planned flops first (processes start one after
  another).  Operands take one of two data planes, chosen from what the
  code can observe.  *Resident* (this call owns its processes and the start
  method is ``fork``): a worker is forked holding A, B and its message as
  process arguments — inherited, never pickled, nothing packed or sent.
  *Arena* (a borrowed pool predates the operands, ``spawn`` inherits
  nothing): A and a concrete B are packed into shared-memory arenas first,
  and the message goes through the :class:`~repro.dist.comm.CommLayer`
  (bytes counted per link);
* **supervise** — every reply (a class of :mod:`repro.dist.comm`), every
  heartbeat and every patrol verdict (dead worker, missed-heartbeat stall,
  straggler, abort) is an *event* of the coordinator machine
  :mod:`repro.dist.protocol` declares, and the row's ``action`` names the
  method that handles it: the table the model checker proves (M401-M408)
  is the dispatch table.  A failed rank is *retried once* in a fresh
  process, then *reassigned* to a coordinator-local spare —
  :func:`~repro.dist.worker.run_rank` called in this process on the
  message a worker would have got (minus the fault) — so a single faulty
  rank cannot lose the contraction;
* **reduce** — a rank's C tiles are taken where its worker wrote them
  (:meth:`~repro.dist.tile_store.TileArena.adopt`) the moment its live
  report lands, while slower ranks still compute: each *becomes* the
  result's tile — a view of the arena, whose mapping lives as long as the
  tile while the segment's name goes with the run — after the input C
  tile, if any, is added into it in place (``S + beta*C``).  Handoff
  producers and the input tiles no producer touched are left for the end;
* **report** — merge per-rank stats, tallies and every rank's monotonic
  :class:`~repro.runtime.tracing.SpanStream` (clock origins aligned via
  each recorder's single wall-clock sample) into one
  :class:`~repro.runtime.tracing.Trace`, so ``to_chrome_trace()`` and
  utilization queries work on real runs exactly as on simulated ones;
* **teardown** — success or not, reap the processes this run owns and
  unlink every segment it created — a pool's operand arenas stay the pool's
  (the leak tests attach-probe every name).  By then the event log has its
  one terminal record: ``done`` from ``report``, ``aborted`` / ``failed``
  from ``fail``, which also drops the C tiles folded so far.

The run is recorded once: every recovery fact is one ``events.emit``.  The
:class:`~repro.dist.health.EventLog` folds it into the live
:class:`~repro.dist.health.RunHealth`, tallies it and (given
``events_path``) appends it to the file ``repro monitor`` replays through
the same fold; ``report`` derives its metrics and recovery fields from both.

Clock policy: every run-relative clock and deadline here is
``time.monotonic()`` — an NTP step can neither fire nor suppress the
fault-recovery deadline, and durations can never go negative.  The single
wall-clock stamp (taken inside :class:`SpanRecorder`) exists only to align
per-rank span streams.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import resource_tracker
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.perf import Attribution, PerfModel

from repro.core.plan import ExecutionPlan
from repro.dist.bservice import validate_b_budget
from repro.dist.comm import (
    COORDINATOR,
    COORDINATOR_ROLE,
    TELEMETRY_CHANNEL,
    CommLayer,
    CommStats,
    DoneMsg,
    Empty,
    ErrorMsg,
    HandoffDoneMsg,
    HandoffMsg,
    RelinquishedMsg,
    RelinquishMsg,
    ScatterMsg,
)
from repro.dist.faults import FaultPlan
from repro.dist.health import EventLog, RunHealth
from repro.dist.pool import default_start_method
from repro.dist.protocol import COORDINATOR_MACHINE, WIRE
from repro.dist.tile_store import TileArena
from repro.dist.worker import (
    ABORT_EXIT_CODE,
    RankTally,
    WorkerReport,
    run_handoff,
    run_rank,
    worker_main,
)
from repro.runtime.data import GeneratedCollection, MatrixSource
from repro.runtime.metrics import MetricsSnapshot, snapshot_of
from repro.runtime.numeric import NumericStats
from repro.runtime.tracing import SpanRecorder, Trace
from repro.sparse.matrix import BlockSparseMatrix
from repro.store import (
    a_fingerprint,
    b_fingerprint,
    completed_blocks,
    plan_fingerprint,
    read_snapshot,
    run_fingerprint,
    write_snapshot,
)
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
class DistReport(RankTally):
    """Everything observed about one distributed run (the
    :class:`~repro.dist.worker.RankTally` fields: the ranks' merged)."""

    stats: NumericStats
    trace: Trace
    comm: CommStats
    attempts: dict[int, int]
    reassigned: list[int]
    segments: list[str]
    nworkers: int = 0
    shm_bytes: int = 0
    #: The series of :data:`repro.runtime.metrics.SERIES`, folded from this
    #: report (``None`` when the run was configured ``metrics=False``).
    metrics: MetricsSnapshot | None = None
    health: RunHealth | None = None
    events_path: str | None = None
    #: The event log's tallies: ``(kind, None)`` -> records emitted,
    #: ``(kind, field)`` -> the sum of that field over them.
    event_totals: dict = field(default_factory=dict)
    stalled: list[int] = field(default_factory=list)
    handoffs: int = 0
    blocks_rebalanced: int = 0
    tasks_rebalanced: int = 0
    #: Predicted-cost model of the executed plan (when tracing was on);
    #: what ``repro explain`` audits the run against.
    model: "PerfModel | None" = None
    #: Busy seconds lost to the recorder bound, per resource
    #: (``dropped.<resource>``), merged over every rank.
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
            + (f", stalled {self.stalled}" if self.stalled else "")
            + (f", reassigned {self.reassigned}" if self.reassigned else "")
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

    def write_artifact(self, path: str, meta: dict | None = None) -> None:
        """Write the run's one artifact: the Chrome trace enriched with the
        model and the link bytes ``repro explain --trace`` audits it against."""
        from repro.perf import write_run_artifact

        write_run_artifact(
            path, self.trace, self.model, dict(self.comm.link_bytes), meta
        )

    # -- performance attribution (repro.perf) --------------------------------

    def attribution(self) -> "Attribution":
        """Critical-path blame buckets of the merged trace (see
        :func:`repro.perf.attribute`)."""
        from repro.perf import attribute

        return attribute(self.trace)


@dataclass(frozen=True)
class RunConfig:
    """The keywords of :func:`execute_plan_distributed`, declared once
    (its docstring says what each does)."""

    fault_plan: FaultPlan | None = None
    timeout: float = 120.0
    verify_plan: bool = False
    trace: bool = True
    heartbeat_interval: float = 0.25
    stall_after_beats: int = 8
    straggler_fraction: float = 0.25
    metrics: bool = True
    events_path: str | None = None
    checkpoint_dir: str | None = None
    store_dir: str | None = None
    rebalance: bool = False
    pool: object = None
    run_id: str | None = None


def execute_plan_distributed(
    plan: ExecutionPlan, a: BlockSparseMatrix, b,
    c: BlockSparseMatrix | None = None, alpha: float = 1.0, beta: float = 1.0,
    **config,
) -> tuple[BlockSparseMatrix, DistReport]:
    """Run the plan across one real worker process per planned rank.

    Returns ``(C, report)`` with ``C`` bit-for-bit equal to the serial
    :func:`~repro.runtime.numeric.execute_plan` result for the same
    operands and seeds.  ``config`` takes the fields of :class:`RunConfig`
    (anything else is a ``TypeError``).  ``fault_plan`` sabotages workers
    for recovery testing: a failed rank is retried once in a fresh process,
    then reassigned to the coordinator-local spare.
    ``verify_plan=True`` runs the static plan verifier
    (:func:`repro.analysis.verify_plan`) first and raises
    :class:`repro.analysis.PlanVerificationError` on any finding — a
    corrupted plan is rejected before a single worker process spawns or a
    single shared-memory segment is created.  ``trace=False`` disables
    span recording end to end (no clock reads in the workers' hot loops);
    the numeric result is identical either way.

    Live telemetry: with a positive ``heartbeat_interval`` every worker
    beats on the out-of-band telemetry channel; a rank silent for
    ``stall_after_beats`` intervals (plus a startup grace before its
    first beat) is treated exactly like a crashed one — terminated,
    retried, then reassigned.  ``heartbeat_interval=0`` disables both
    heartbeats and stall detection.  ``metrics`` folds the finished report
    into ``report.metrics``, the :class:`~repro.runtime.metrics.MetricsSnapshot`
    of the series :data:`~repro.runtime.metrics.SERIES` declares (nothing is
    counted for it while the run executes, and nothing crosses the wire).
    ``events_path`` appends the run's life-cycle (``plan_accepted``,
    ``worker_up``, ``heartbeat``, ``stall``, ``reassign``, ...) as JSONL —
    the file ``repro monitor`` tails — ending in exactly one terminal
    record: ``done``, or ``aborted`` / ``failed`` with a ``reason``.  A
    ``run_id`` scopes the log to a per-run file
    (``run-events.<run_id>.jsonl``) and stamps every record, so concurrent
    jobs sharing an events directory never clobber each other;
    ``report.events_path`` names the file written.

    Pooled execution: ``pool`` (a :class:`~repro.dist.pool.WorkerPool`
    with ``pool.nranks == plan.grid.nprocs``) lends this run its comm
    layer and warm worker processes — the coordinator spawns nothing it
    can reuse and terminates nothing at teardown, so the processes (and
    any warm B-tile caches inside them) survive for the next run.  The
    pool's owner closes it and, after a run that raised, resets it (a
    worker may still be computing for the dead run; :mod:`repro.serve`
    recycles the processes and drains stale traffic).  A one-shot run
    starts its processes with :func:`~repro.dist.pool.default_start_method`,
    as a pool does.

    Persistence: ``store_dir`` roots a :class:`~repro.store.TileStore`
    that backs every rank's B service as a second cache tier (tiles
    generated once are reused across runs and ranks).  ``checkpoint_dir``
    turns on crash-consistent checkpointing: each rank commits every
    finished block as one block file (fsynced, then renamed into place),
    the coordinator records the run's identity — plan, A, B and ``alpha``
    — in ``coordinator.json`` before any worker starts, and *every* scatter
    — first attempt, retry, or a fresh run over the same directory with the
    same operands — restores the committed blocks instead of recomputing
    them, so a run killed at
    any instant (the ``abort`` fault included) resumes bit-for-bit.  A
    checkpoint directory of a *different plan* is refused up front (P121
    checks the same statically); ``repro store gc --budget`` bounds the
    store on disk.

    Rebalancing: ``rebalance=True`` turns straggler detection into
    action.  A flagged straggler is sent a cooperative relinquish
    request; at its next block boundary it acks the positions of its
    unstarted blocks, which the coordinator hands off to a finished
    worker rank (or executes inline) and reduces as their own producer.
    Relinquished positions are excluded from any later retry of the
    origin, and a handed-off block's file is committed under the origin's
    rank, so checkpoint/resume replays ownership transfers
    transparently.  The result stays bit-for-bit equal to the serial
    executor.
    """
    cfg = RunConfig(**config)
    if cfg.verify_plan:
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
    if cfg.fault_plan is not None:
        for inj in cfg.fault_plan.injections:
            require(
                inj.rank < plan.grid.nprocs,
                f"fault injection targets rank {inj.rank}, but the plan has "
                f"only {plan.grid.nprocs} rank(s)",
            )
    run = _Coordinator(plan, a, b, c, alpha, beta, cfg)
    try:
        run.scatter()
        run.supervise()
        return run.reduce(), run.report()
    except BaseException as exc:
        run.fail(exc)
        raise
    finally:
        run.teardown()


#: When a reply is *live* — from the attempt (or handoff) the run is
#: waiting on; anything else is the table's ``:stale`` variant, discarded:
#: acting on it would credit a half-written C arena or recover a rank
#: twice.  One predicate per message a worker may send, keyed by wire name.
_LIVE = {
    "done": lambda run, m: (
        m.rank in run.pending and m.report.attempt == run.live_attempt(m.rank)
    ),
    # attempt -1: the worker failed before it had read any scatter.
    "error": lambda run, m: (
        m.rank in run.pending and m.attempt in (-1, run.live_attempt(m.rank))
    ),
    # Only the ack of the request sent to the live attempt: the rank may
    # have finished, died or been retried in between.
    "relinquished": lambda run, m: (
        m.rank in run.pending
        and m.attempt == run.live_attempt(m.rank)
        == run.outstanding_relinquish.get(m.rank)
    ),
    # Already resolved (timed out and redone inline) or a duplicate.
    "handoff_done": lambda run, m: m.handoff_id in run.pending_handoffs,
    "heartbeat": lambda run, m: run.health.expects(m),
}


class _Coordinator:
    """One distributed run: state as attributes, phases as methods.

    ``state`` walks :data:`~repro.dist.protocol.COORDINATOR_MACHINE`
    (``supervising -> draining -> done``, or ``aborted`` / ``failed``):
    every reply (:meth:`event_of`) and patrol verdict is an event :meth:`fire`
    looks up there, and the row's ``action`` names the handling method.
    """

    machine = COORDINATOR_MACHINE

    def __init__(self, plan: ExecutionPlan, a, b, c, alpha: float, beta: float,
                 cfg: RunConfig):
        self.plan, self.a, self.b, self.alpha, self.cfg = plan, a, b, alpha, cfg
        self.c, self.beta = c, beta
        self.nranks = nranks = plan.grid.nprocs
        self.state = self.machine.initial
        pool = cfg.pool

        # ---- persistence / checkpoint identity ----------------------------
        # Fingerprints are serial work before the first fork: each is taken
        # only where read.  B's keys a generated B's store tier and a pool's
        # warm cache (an empty key would alias operands); all name the run.
        ckpt = cfg.checkpoint_dir
        self.plan_hash = self.b_hash = self.run_hash = ""
        if pool is not None or ckpt is not None:
            self.plan_hash = (plan_fingerprint if pool is None else pool.plan_hash)(plan)
        if ckpt is not None or (
            isinstance(b, GeneratedCollection)
            and (pool is not None or cfg.store_dir is not None)
        ):
            self.b_hash = b_fingerprint(b)
        if ckpt is not None:
            a_hash = a_fingerprint(a)
            self.run_hash = run_fingerprint(self.plan_hash, a_hash, self.b_hash, alpha)
            snap = read_snapshot(ckpt)
            if snap is not None and snap.get("plan") not in (None, self.plan_hash):
                raise DistExecutionError(
                    f"checkpoint directory {ckpt!r} belongs to a different "
                    f"plan (snapshot plan hash {str(snap.get('plan'))[:12]}..., "
                    f"this plan {self.plan_hash[:12]}...); resume with the "
                    f"original operands/grid or point checkpoint_dir at a "
                    f"fresh directory"
                )
            # The run's identity, on disk before any worker exists: a later
            # mismatched plan is refused (above, P121) whenever this run
            # dies.  Progress is the event log's and the block files' job.
            write_snapshot(ckpt, {
                "v": 1, "plan": self.plan_hash, "a": a_hash, "b": self.b_hash,
                "run": self.run_hash, "alpha": float(alpha), "nranks": nranks,
            })

        if pool is not None:
            require(not pool.closed, "worker pool is closed")
            require(
                pool.nranks == nranks,
                f"plan wants {nranks} rank(s) but the pool serves {pool.nranks}",
            )
            self.ctx, self.comm = pool.ctx, pool.comm
        else:
            self.ctx = mp.get_context(default_start_method())
            self.comm = CommLayer(nranks, self.ctx)
        self.coord = self.comm.endpoint(COORDINATOR)
        self.comm_stats = CommStats()
        # The coordinator's own recorder doubles as the run's monotonic clock
        # and the alignment anchor for every rank's span stream.
        self.rec = SpanRecorder(enabled=cfg.trace)
        self.health = RunHealth(
            heartbeat_interval=cfg.heartbeat_interval,
            stall_after_beats=cfg.stall_after_beats,
            straggler_fraction=cfg.straggler_fraction,
        )
        #: The run's one record; ``health`` changes only by its fold.
        self.events = EventLog(cfg.events_path, cfg.run_id, self.health)
        self.events.emit(
            "plan_accepted",
            nranks=nranks,
            heartbeat_interval=cfg.heartbeat_interval,
            stall_after_beats=cfg.stall_after_beats,
            tasks_per_rank={r: plan.procs[r].ntasks for r in range(nranks)},
        )

        #: Arenas this run unlinks; the pool's, filled and reported, not unlinked.
        self.arenas: list[TileArena] = []
        self.borrowed: list[TileArena] = []
        self.workers: dict[int, mp.Process] = {}
        # rec.now() at proc.start() and at done-report receipt: against the
        # worker's own span extent they bound the measured ``spawn.<rank>``
        # (process startup) and ``report.<rank>`` (report pickling +
        # shipping) spans, else unattributable idle on the critical path.
        self.spawn_clock: dict[int, float] = {}
        self.report_clock: dict[int, float] = {}
        # Processes this call forks itself are born holding A and B; a pool's
        # predate them and spawned ones inherit nothing — those get arenas.
        self.resident = pool is None and self.ctx.get_start_method() == "fork"

        #: rank -> attempts started (the live attempt is one less).
        self.attempts = {rank: 1 for rank in range(nranks)}
        self.c_arenas: dict[int, TileArena] = {}
        #: Block positions reclaimed from each rank, cumulative across its
        #: attempts: a retried origin must never re-execute a block the
        #: rebalancer already owns (that would double-produce its tiles).
        self.stolen_blocks: dict[int, set[tuple[int, int]]] = {}
        self.reports: dict[int, WorkerReport] = {}
        self.pending = set(range(nranks))
        self.suspects: dict[int, float] = {}
        #: rank -> attempt of the one relinquish request in flight to it.
        self.outstanding_relinquish: dict[int, int] = {}
        #: handoff id -> record of a dispatch to a helper rank (origin,
        #: helper, blocks, arena, start instant).
        self.pending_handoffs: dict[int, dict] = {}
        #: handoff id -> (origin, C arena, C index, stats) for the reduction.
        self.handoff_results: dict[int, tuple] = {}
        #: The result, filled as each producer is folded in, and the
        #: producer of each of its tiles (the one-producer check).
        self.out = BlockSparseMatrix(a.rows, plan.b_shape.cols)
        self.produced_by: dict[tuple[int, int], object] = {}

    def live_attempt(self, rank: int) -> int:
        """The 0-based attempt of ``rank`` whose replies count."""
        return self.attempts.get(rank, 0) - 1

    # ---- the table, dispatched ---------------------------------------------

    def event_of(self, msg) -> str:
        """Classify a reply as ``recv:<name>``, or ``recv:<name>:stale`` when
        it is not from the attempt (or handoff) the run is waiting on."""
        spec = WIRE.get(type(msg))
        if spec is None or spec.dst != COORDINATOR_ROLE:
            raise DistExecutionError(f"unexpected message {msg!r}")
        live = _LIVE[spec.name](self, msg)
        return f"recv:{spec.name}" if live else f"recv:{spec.name}:stale"

    def fire(self, event: str, *subject) -> None:
        """Take the table's row for ``event`` in the current state and call
        the method its ``action`` names.  No row, no run: the model checker
        proves (M402) that this cannot happen to the declared table."""
        row = self.machine.on(self.state, event)
        if row is None:
            raise DistExecutionError(
                f"coordinator state {self.state!r} has no transition for {event!r}"
            )
        self.state = row.next_state
        if row.action:
            getattr(self, row.action)(*subject)

    def fail(self, exc: BaseException) -> None:
        """The run is lost (``aborted`` already, else ``failed``): drop the
        C tiles folded so far — their mappings go now, not with the
        exception — and end the log with its one terminal record."""
        self.out = None
        if self.state != "aborted":
            self.state = "failed"
        self.events.emit(self.state, reason=str(exc) or type(exc).__name__)

    # ---- scatter -------------------------------------------------------------

    def scatter(self) -> None:
        """Pack what the data plane needs, then spawn and scatter each rank."""
        plan, cfg, b = self.plan, self.cfg, self.b
        a_meta = None if self.resident else self.pack("a", self.a)
        if isinstance(b, BlockSparseMatrix):
            b_spec = (
                ("resident", None) if self.resident
                else ("arena", self.pack("b", b))
            )
        elif isinstance(b, GeneratedCollection):
            b_spec = ("generated", b.empty_clone())
        else:
            raise TypeError(
                f"distributed execution needs a BlockSparseMatrix or "
                f"GeneratedCollection B, got {type(b).__name__}"
            )

        #: What every scatter and handoff of this run says about operands,
        #: numerics and persistence: one dict, so the two cannot drift.
        self.run_fields = dict(
            a_meta=a_meta, b_spec=b_spec, alpha=self.alpha,
            gpu_memory_bytes=plan.gpu_memory_bytes, b_csr=plan.b_shape.csr,
            store_dir=cfg.store_dir, b_hash=self.b_hash, ckpt_dir=cfg.checkpoint_dir,
            run_hash=self.run_hash,
        )
        #: The same, for a rank or handoff this process executes itself
        #: (`run_rank` / `run_handoff` called in-process): it reads the A
        #: and B it holds, whatever plane the worker processes are on.
        self.in_process_fields = dict(
            self.run_fields, a_meta=None,
            b_spec=("resident", None) if b_spec[0] == "arena" else b_spec,
        )
        for rank in sorted(range(self.nranks), key=lambda r: -plan.procs[r].flops):
            self.scatter_rank(rank)

    def pack(self, tag: str, matrix):
        """Copy an operand into the pool's arena, else a fresh one; its meta."""
        with self.rec.span(f"pack.{tag}", "net.-1"):
            if self.cfg.pool is None:
                self.arenas.append(TileArena.pack(tag, matrix.items()))
                return self.arenas[-1].meta()
            self.borrowed.append(self.cfg.pool.pack(tag, matrix.items()))
            return self.borrowed[-1].meta()

    def c_arena_for(self, tag: str, blocks) -> TileArena:
        """A fresh output arena with room for every C tile of ``blocks``."""
        self.arenas.append(
            TileArena.allocate(tag, sum(blk.c_bytes for blk in blocks))
        )
        return self.arenas[-1]

    def block_tasks(self, rank: int, positions) -> int:
        """GEMM tasks in the ``(gpu, index)`` block positions of ``rank``."""
        return sum(
            self.plan.procs[rank].gpu_blocks(g)[bi].ntasks for g, bi in positions
        )

    def rank_msg(self, rank: int, in_process: bool = False) -> ScatterMsg:
        """The live attempt of ``rank`` as a message: a fresh C arena, the
        committed blocks to restore, the stolen ones to skip.

        A worker process also gets the fault armed for this attempt; an
        in-process execution never does — an injection armed for every
        attempt would ``os._exit`` the coordinator.
        """
        plan, cfg, attempt = self.plan, self.cfg, self.live_attempt(rank)
        self.c_arenas[rank] = self.c_arena_for(
            f"c{rank}a{attempt}", plan.procs[rank].blocks
        )
        inj = None
        if not in_process and cfg.fault_plan is not None:
            inj = cfg.fault_plan.for_rank(rank)
        if inj is not None and not inj.armed(attempt):
            inj = None
        stolen = self.stolen_blocks.get(rank, set())
        # The blocks whose files read back intact, re-listed on *every*
        # scatter: a fresh run resumes a prior run's, a retried rank what its
        # killed predecessor committed.  Stolen blocks a handoff committed
        # under this rank's name are the handoff's to produce, not restore.
        completed = () if cfg.checkpoint_dir is None else tuple(
            p for p in completed_blocks(cfg.checkpoint_dir, self.run_hash, rank)
            if p not in stolen
        )
        if completed:
            self.events.emit(
                "resume", rank=rank, attempt=attempt, blocks=len(completed),
                tasks_skipped=self.block_tasks(rank, completed),
            )
        return ScatterMsg(
            proc=plan.procs[rank],
            grid=plan.grid,
            gpus_per_proc=plan.grid.gpus_per_proc,
            c_meta=self.c_arenas[rank].meta(),
            fault=inj,
            attempt=attempt,
            trace=cfg.trace,
            heartbeat_interval=cfg.heartbeat_interval,
            completed=completed,
            excluded=tuple(sorted(stolen)),
            rebalance=cfg.rebalance,
            **(self.in_process_fields if in_process else self.run_fields),
        )

    def scatter_rank(self, rank: int) -> None:
        """Bring up a process for ``rank`` holding its live attempt: a forked
        one is born with the message, any other reads it off its inbox."""
        self.spawn_clock[rank] = self.rec.now()  # the message is part of start-up
        msg = self.rank_msg(rank)
        self.spawn(rank, msg if self.resident else None)
        if not self.resident:
            t_send = self.rec.now()
            self.coord.send(rank, msg)
            self.rec.record(f"scatter.{rank}", f"net.{rank}", t_send, self.rec.now())
        # Net of the blocks stolen from earlier attempts: the rank's
        # progress fraction is over what it still owns.
        tasks_total = self.plan.procs[rank].ntasks - self.block_tasks(
            rank, self.stolen_blocks.get(rank, ())
        )
        self.events.emit(
            "scatter", rank=rank, attempt=msg.attempt, tasks_total=tasks_total
        )

    def spawn(self, rank: int, msg: ScatterMsg | None = None) -> None:
        if self.cfg.pool is not None:
            # Borrowed: warm from a previous run, or respawned by the pool
            # after a failure; mirrored so liveness checks read one dict.
            self.workers[rank] = self.cfg.pool.ensure(rank)
            return
        # One shared tracker, as in WorkerPool.ensure.
        resource_tracker.ensure_running()
        proc = self.ctx.Process(
            target=worker_main,
            args=(rank, self.comm.endpoint(rank), None, False,
                  (self.a, self.b) if self.resident else None, msg),
            daemon=True,
        )
        proc.start()
        self.workers[rank] = proc

    # ---- supervise: the handlers the table names ---------------------------

    def accept_report(self, rank: int, report: WorkerReport) -> None:
        """The live attempt of ``rank`` finished, wherever it ran: its C
        tiles join the result now, while slower ranks still compute."""
        self.reports[rank] = report
        self.report_clock[rank] = self.rec.now()
        self.pending.discard(rank)
        self.fold(rank, self.c_arenas[rank], report.c_index)

    def complete_rank(self, msg: DoneMsg) -> None:
        rank, report = msg.rank, msg.report
        self.accept_report(rank, report)
        self.suspects.pop(rank, None)
        # A done report supersedes any relinquish in flight to it (M408).
        self.outstanding_relinquish.pop(rank, None)
        self.events.emit(
            "rank_done", rank=rank, attempt=report.attempt,
            tasks=report.stats.ntasks,
        )

    def discard(self, msg) -> None:
        """A stale reply is logged and dropped, never credited (late
        telemetry is routine: dropped silently)."""
        spec = WIRE[type(msg)]
        if spec.channel == TELEMETRY_CHANNEL:
            return
        if spec.name == "handoff_done":
            ref = {"handoff": msg.handoff_id}
        else:  # a DoneMsg names its attempt inside the report
            ref = {"attempt": getattr(msg, "report", msg).attempt}
        self.events.emit("stale_report", rank=msg.rank, kind=spec.name, **ref)

    def run_inline(self, rank: int) -> None:
        """Reassign a twice-failed rank to the coordinator-local spare:
        :func:`~repro.dist.worker.run_rank`, called in this process —
        same message, same arena, same report as a worker's, minus the
        endpoint (no heartbeats, no inbox to poll)."""
        msg = self.rank_msg(rank, in_process=True)
        self.spawn_clock.pop(rank, None)  # no process start-up to attribute
        self.accept_report(rank, run_rank(msg, (self.a, self.b)))
        self.events.emit("reassign", rank=rank, attempt=self.attempts[rank])

    def recover_rank(self, failure: ErrorMsg) -> None:
        """Retry the rank once in a fresh process, then reassign it inline.
        ``failure`` is the worker's own report, or the one the patrol files
        for a rank that exited or went silent."""
        rank, reason = failure.rank, failure.traceback
        self.suspects.pop(rank, None)
        # A retried or reassigned rank starts a fresh attempt (its health
        # state with it: a slow *second* attempt is re-flaggable), and any
        # relinquish in flight to the dead attempt is superseded.
        self.outstanding_relinquish.pop(rank, None)
        old = self.workers.pop(rank, None)
        if old is not None and old.is_alive():
            # Still breathing (a stalled or wedged worker): put it down
            # before its rank is re-executed anywhere else.
            old.terminate()
            old.join(timeout=1.0)
        self.attempts[rank] += 1
        if self.attempts[rank] == 2:
            self.events.emit(
                "retry", rank=rank, attempt=self.live_attempt(rank), reason=reason
            )
            self.scatter_rank(rank)
        else:
            self.run_inline(rank)

    def abort_run(self, rank: int) -> None:
        """The abort fault: the whole job is lost, not one rank — no retry,
        no reassignment.  The committed block files are the resume point."""
        self.events.emit("abort", rank=rank, attempt=self.live_attempt(rank))
        ckpt = self.cfg.checkpoint_dir
        raise DistExecutionError(
            f"rank {rank} aborted (unrecoverable kill)"
            + (f"; resume by re-running with checkpoint_dir={ckpt!r}"
               if ckpt is not None else "")
        )

    def fold_health(self, hb) -> None:
        """Log one live heartbeat (the log folds it into the health)."""
        if self.health.ranks[hb.rank].first_beat is None:
            self.events.emit("worker_up", rank=hb.rank, attempt=hb.attempt)
        self.events.emit(
            "heartbeat", rank=hb.rank, attempt=hb.attempt, seq=hb.seq,
            tasks_done=hb.tasks_done, uptime=round(hb.uptime, 3),
        )

    def request_relinquish(self, rank: int) -> None:
        """Flag a straggler and, when rebalancing, ask it to yield its
        unstarted blocks.

        At most one request per rank is in flight, pinned to the live
        attempt so worker and :data:`_LIVE` discard one that raced a retry.
        """
        self.events.emit("straggler", rank=rank)
        if (not self.cfg.rebalance or rank in self.outstanding_relinquish
                or rank not in self.pending):
            return
        att = self.live_attempt(rank)
        self.outstanding_relinquish[rank] = att
        self.coord.send(rank, RelinquishMsg(attempt=att))
        self.events.emit("rebalance", rank=rank, attempt=att)

    def pick_helper(self) -> int | None:
        """A finished worker rank able to absorb a handoff, or ``None``: one
        with a live process (an inline-reassigned rank has none)."""
        for r in sorted(self.reports):  # reported, hence no longer pending
            proc = self.workers.get(r)
            if proc is not None and proc.is_alive():
                return r
        return None

    def handoff_msg(self, hid: int, origin: int, blocks: tuple,
                    in_process: bool = False) -> tuple[HandoffMsg, TileArena]:
        """One execution of a handoff as a message, with its own fresh
        ``h<id>`` C arena: a re-execution never shares the arena a failed
        or timed-out helper may still be writing."""
        arena = self.c_arena_for(f"h{hid}", [blk for _, _, blk in blocks])
        return HandoffMsg(
            handoff_id=hid,
            origin=origin,
            blocks=blocks,
            c_meta=arena.meta(),
            **(self.in_process_fields if in_process else self.run_fields),
        ), arena

    def finish_handoff(self, hid: int, origin: int, helper: int | None,
                       arena: TileArena, c_index: dict, stats) -> None:
        self.handoff_results[hid] = (origin, arena, c_index, stats)
        self.events.emit(
            "handoff_done", handoff=hid, origin=origin, helper=helper,
            tasks=stats.ntasks,
        )

    def run_handoff_inline(self, hid: int, origin: int, blocks: tuple) -> None:
        """Execute one handoff's blocks in the coordinator process
        (:func:`~repro.dist.worker.run_handoff`, called in-process).

        The fallback producer: no helper rank is free, or the chosen one
        died, reported failure or timed out.  Re-executing after a partial
        helper run is safe — a block file committed twice is
        bit-identical and only this result's arena is adopted.
        """
        msg, arena = self.handoff_msg(hid, origin, blocks, in_process=True)
        self.finish_handoff(
            hid, origin, None, arena, *run_handoff(msg, (self.a, self.b))
        )

    def fail_handoff(self, hid: int, reason: str) -> None:
        """A helper lost handoff ``hid``: redo its blocks inline."""
        h = self.pending_handoffs.pop(hid)
        self.events.emit(
            "handoff_failed", handoff=hid, origin=h["origin"],
            helper=h["helper"], reason=reason,
        )
        self.run_handoff_inline(hid, h["origin"], h["blocks"])

    def dispatch_handoff(self, ack: RelinquishedMsg) -> None:
        """The live ack of a relinquish request: the yielded blocks now
        belong to a handoff — shipped to a helper rank, or run inline."""
        origin, positions = ack.rank, ack.positions
        del self.outstanding_relinquish[origin]
        moved = self.block_tasks(origin, positions)
        self.events.emit(
            "relinquished", rank=origin, attempt=ack.attempt,
            blocks=len(positions), tasks=moved,
        )
        if not positions:
            return
        self.stolen_blocks.setdefault(origin, set()).update(positions)
        hid = self.events.total("handoff")  # ids number the ``handoff`` records
        blocks = tuple(
            (g, bi, self.plan.procs[origin].gpu_blocks(g)[bi])
            for g, bi in positions
        )
        helper = self.pick_helper()
        self.events.emit(
            "handoff", handoff=hid, origin=origin, helper=helper,
            blocks=len(blocks), tasks=moved,
        )
        if helper is None:
            self.run_handoff_inline(hid, origin, blocks)
            return
        msg, arena = self.handoff_msg(hid, origin, blocks)
        self.pending_handoffs[hid] = {
            "origin": origin, "helper": helper, "blocks": blocks,
            "arena": arena, "started": time.monotonic(),
        }
        self.coord.send(helper, msg)

    def absorb_handoff(self, msg: HandoffDoneMsg) -> None:
        hid = msg.handoff_id
        if msg.c_index is None:
            self.fail_handoff(hid, "helper error")
            return
        h = self.pending_handoffs.pop(hid)
        self.finish_handoff(
            hid, h["origin"], msg.rank, h["arena"], msg.c_index, msg.stats
        )

    # ---- supervise: the loop -------------------------------------------------

    def drain_telemetry(self) -> None:
        """Dispatch every queued heartbeat."""
        while True:
            try:
                src, msg, nbytes = self.coord.recv_telemetry()
            except Empty:
                return
            self.comm_stats.absorb_telemetry({(src, COORDINATOR): nbytes})
            self.fire(self.event_of(msg), msg)

    def patrol(self) -> None:
        """Dead-worker, stall, and straggler checks between messages; each
        verdict is an ``obs:`` event of the table."""
        now = time.monotonic()
        for rank in sorted(self.pending):
            proc = self.workers.get(rank)
            if proc is None or proc.exitcode is None:
                continue
            if proc.exitcode == ABORT_EXIT_CODE:
                self.fire("obs:abort", rank)
            elif now - self.suspects.setdefault(rank, now) >= _GRACE_SECONDS:
                self.fire("obs:worker_exit", ErrorMsg(
                    rank, self.live_attempt(rank),
                    f"worker exited with code {proc.exitcode}",
                ))
        for rank in self.health.stalled_ranks(time.monotonic(), self.pending):
            silent = time.monotonic() - self.health.ranks[rank].last_signal
            att = self.live_attempt(rank)
            self.events.emit(
                "stall", rank=rank, attempt=att, silent_seconds=round(silent, 3)
            )
            self.fire("obs:stall", ErrorMsg(
                rank, att,
                f"stalled: no heartbeat for {silent:.2f} s "
                f"(> {self.cfg.stall_after_beats} x {self.cfg.heartbeat_interval} s)",
            ))
        flagged = {r for r, rh in self.health.ranks.items() if rh.state == "straggler"}
        current = set(self.health.straggler_ranks(time.monotonic()))
        for rank in sorted(current - flagged):
            self.fire("obs:straggler", rank)
        for rank in sorted(flagged - current):
            # Recovery: the rank's windowed rate climbed back over the
            # threshold.  Clearing the flag lets a later slowdown re-flag it
            # — a sticky flag would mute every straggler after its first
            # offense.
            self.events.emit("straggler_recovered", rank=rank)
        for hid in sorted(self.pending_handoffs):
            h = self.pending_handoffs[hid]
            proc = self.workers.get(h["helper"])
            if proc is None or proc.exitcode is not None:
                self.fail_handoff(hid, "helper died")
            elif now - h["started"] > _HANDOFF_TIMEOUT_SECONDS:
                self.fail_handoff(hid, "timeout")

    def supervise(self) -> None:
        """Gather replies until no rank and no handoff is pending."""
        deadline = time.monotonic() + self.cfg.timeout
        last_patrol = time.monotonic()
        while self.pending or self.pending_handoffs:
            if time.monotonic() > deadline:
                raise DistExecutionError(
                    f"distributed run timed out after {self.cfg.timeout:.0f} s "
                    f"(pending ranks: {sorted(self.pending)})"
                )
            self.drain_telemetry()
            # Patrol on a bounded monotonic cadence, not only when the
            # inbox goes quiet: a steady message stream used to starve
            # dead-worker/stall/straggler detection entirely.
            if time.monotonic() - last_patrol >= _PATROL_INTERVAL_SECONDS:
                self.patrol()
                last_patrol = time.monotonic()
            try:
                src, msg, nbytes = self.coord.recv(timeout=0.1)
            except Empty:
                self.patrol()
                last_patrol = time.monotonic()
                continue
            self.comm_stats.absorb({(src, COORDINATOR): nbytes}, {(src, COORDINATOR): 1})
            self.fire(self.event_of(msg), msg)
        self.fire("obs:all_done")
        self.drain_telemetry()  # beats raced against the final reports
        self.fire("obs:drained")

    # ---- reduce ----------------------------------------------------------------

    def fold(self, producer, arena: TileArena, c_index: dict) -> None:
        """Adopt one producer's C tiles into the result, as one ``reduce``
        span: an adopted arena view stays where its worker wrote it, and an
        input C tile is added to it there (``P + beta*C`` has the bits of
        the oracle's ``beta*C + P``)."""
        t_fold, c, beta = self.rec.now(), self.c, self.beta
        for (i, j), tile in arena.adopt(c_index).items():
            prev = self.produced_by.setdefault((i, j), producer)
            if prev != producer:  # formatted only on failure: once per C tile
                raise ValueError(
                    f"C tile ({i},{j}) produced by two processes ({prev}, {producer})"
                )
            if c is not None and (i, j) in c:
                tile += c.get((i, j)) if beta == 1.0 else beta * c.get((i, j))
            self.out.set_tile(i, j, tile)
        self.rec.record("reduce", "net.-1", t_fold, self.rec.now())

    def reduce(self) -> BlockSparseMatrix:
        """The result: the ranks are folded in already (:meth:`accept_report`);
        fold the handoff producers, then the input tiles no producer touched."""
        # Handoff producers reduce exactly like ranks: blocks within one
        # process hold disjoint column sets, so a stolen block's tiles can
        # collide neither with the origin's remaining blocks nor with any
        # other rank — the one-producer check enforces it (M407).
        for hid in sorted(self.handoff_results):
            origin, arena, c_index, _ = self.handoff_results[hid]
            self.fold(f"handoff {hid} of rank {origin}", arena, c_index)
        t_reduce, c = self.rec.now(), self.c
        for (i, j), tile in c.items() if c is not None else ():
            if (i, j) not in self.produced_by:  # no product: beta*C alone
                self.out.set_tile(i, j, self.beta * tile)
        self.rec.record("reduce", "net.-1", t_reduce, self.rec.now())
        return self.out

    # ---- report: merge stats / trace / comm / metrics ------------------------

    def report(self) -> DistReport:
        """Everything observed, merged (recovery fields: folds of the event
        log; ``metrics``: a fold of the report); ends the log with ``done``."""
        cfg, rec, plan, events = self.cfg, self.rec, self.plan, self.events
        reports = [self.reports[rank] for rank in range(self.nranks)]
        tally = RankTally.merge(reports)
        tally.spans_dropped += rec.dropped
        stats = NumericStats.merge(
            [r.stats for r in reports]
            + [s for *_, s in self.handoff_results.values()]
        )
        run_trace = Trace()
        run_trace.extend(rec.spans)
        span_counters: dict[str, float] = dict(rec.counters)
        for rank, rank_report in enumerate(reports):
            stream = rank_report.spans
            if stream is not None:
                # Re-base the rank's clock onto the coordinator's via the
                # two recorders' wall-clock origin samples.
                offset = stream.wall_origin - rec.wall_origin
                run_trace.extend(stream.spans, offset=offset)
                for key, val in stream.counters.items():
                    span_counters[key] = span_counters.get(key, 0.0) + val
                t_spawn = self.spawn_clock.get(rank)
                if stream.spans and t_spawn is not None and offset > t_spawn:
                    # Process startup: proc.start() up to the worker
                    # recorder's origin (its own spans begin at ~0).
                    run_trace.add(f"spawn.{rank}", f"cpu.{rank}", t_spawn, offset)
                t_report = self.report_clock.get(rank)
                if stream.spans and t_report is not None:
                    # Report shipping: the worker's last span up to receipt
                    # here (report pickling + queue transfer).
                    last = max(e for _, _, _, e in stream.spans) + offset
                    if t_report > last:
                        run_trace.add(
                            f"report.{rank}", f"net.{rank}", last, t_report
                        )
            self.comm_stats.absorb(rank_report.link_bytes)
        self.comm_stats.absorb(self.coord.link_bytes, self.coord.messages)
        perf_model = None
        if cfg.trace:
            # The predicted-cost twin of the measured trace: cheap to build
            # (reads stored plan aggregates) and what `repro explain` audits
            # the run against.
            from repro.perf import PerfModel

            perf_model = PerfModel.from_plan(
                plan, plan_hash=self.plan_hash or plan_fingerprint(plan)
            )

        ranks = self.health.ranks
        stalled = sorted(r for r, rh in ranks.items() if rh.stalls)
        reassigned = sorted(r for r, rh in ranks.items() if rh.state == "reassigned")
        arenas = self.borrowed + self.arenas
        dist_report = DistReport(
            stats=stats,
            trace=run_trace,
            comm=self.comm_stats,
            attempts=self.attempts,
            reassigned=reassigned,
            segments=[arena.name for arena in arenas],
            nworkers=self.nranks,
            shm_bytes=sum(arena.used_bytes for arena in arenas),
            health=self.health,
            events_path=events.path,
            event_totals=dict(events.totals),
            stalled=stalled,
            handoffs=events.total("handoff"),
            blocks_rebalanced=events.total("handoff", "blocks"),
            tasks_rebalanced=events.total("handoff", "tasks"),
            model=perf_model,
            span_counters=span_counters,
            run_id=cfg.run_id,
            **vars(tally),
        )
        if cfg.metrics:
            dist_report.metrics = snapshot_of(dist_report)
        events.emit(
            "done",  # the log's terminal record
            ntasks=stats.ntasks,
            heartbeats=events.total("heartbeat"),
            retried=sorted(r for r, a in self.attempts.items() if a > 1),
            stalled=stalled,
            reassigned=reassigned,
            handoffs=dist_report.handoffs,
            blocks_rebalanced=dist_report.blocks_rebalanced,
        )
        return dist_report

    # ---- clean up ------------------------------------------------------------------

    def teardown(self) -> None:
        """Success or not: close the log, reap the processes
        this run owns (all signalled, then all joined: their exits overlap),
        unlink every segment."""
        self.events.close()
        if self.cfg.pool is None:
            # One-shot run: the processes and the comm layer are ours.  A
            # borrowed pool stays warm; its owner resets it after a failure.
            for proc in self.workers.values():
                if self.state == "done" and not self.cfg.rebalance:
                    proc.join(timeout=2.0)  # it has left (``act:leave``)
                if proc.is_alive():
                    proc.terminate()
            for proc in self.workers.values():
                proc.join(timeout=2.0)
        for arena in self.arenas:
            arena.unlink()
        if self.cfg.pool is None:
            try:
                self.comm.close()
            except Exception:  # pragma: no cover - queue teardown best-effort
                pass
