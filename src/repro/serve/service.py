"""The contraction service: one warm pool, many jobs.

:class:`ContractionService` owns a :class:`~repro.dist.pool.WorkerPool`
spawned once and reused across jobs, and a scheduler thread that feeds
queued jobs to :func:`~repro.dist.execute_plan_distributed` one at a
time (the pool's comm fabric carries one run's protocol traffic at a
time; concurrency for clients comes from submitting many jobs and
waiting on results).  In-process clients call :meth:`submit` /
:meth:`result` from any thread.

Scheduling is priority-then-FIFO: higher ``priority`` first, ties in
submission order.  Admission control happens at :meth:`submit` time —
before a job ever queues:

* the plan's rank count must match the pool (the pool *is* the
  committed capacity; a mismatched plan could never run on it);
* the static plan verifier's memory-budget rules (``P110`` block over
  budget, ``P111`` chunk over budget, ``P112`` prefetch overflow,
  ``P114`` B tile over budget) must pass — a plan that would exhaust a
  worker's memory is rejected with the findings attached
  (:class:`AdmissionError`) instead of killing a warm worker mid-run.
  The verdict is remembered per plan object (the last few), so a loop
  that resubmits its plan verifies it once, and :meth:`submit` verifies
  before it takes the service lock;
* at most ``queue_limit`` jobs may be queued or running
  (:class:`BackpressureError`) — unbounded queues just move the failure
  to wherever memory runs out.

Warm reuse: every worker carries a process-lifetime
:class:`~repro.serve.WarmTileCache` layered in front of the service's
persistent :class:`~repro.store.TileStore` tier, both keyed by the B
operand's content fingerprint.  A job whose B matches an earlier job's
starts hot — visible as ``report.store_hits > 0`` with zero new process
spawns.  The pool also keeps the operand arenas: each job's A (and a
concrete B) is repacked in place into the segment the previous job
touched, and the segments go when the pool is reset or shut down.

Isolation: each job gets a run id and run-id-scoped artifacts under
``artifacts_dir`` — ``run-events.<run_id>.jsonl`` (the monitor-able
event log), ``trace.<run_id>.json`` (the run artifact ``repro explain
--trace`` audits: Chrome trace, model, link bytes), and
``metrics.<run_id>.prom`` (Prometheus text) — so concurrent clients
never clobber each other's observability.

Failure containment: a job that raises marks only that job failed; the
service recycles the pool's processes
(:meth:`~repro.dist.pool.WorkerPool.terminate`) and drains stale traffic
(:meth:`~repro.dist.pool.WorkerPool.drain`) so the next job starts clean.
"""

from __future__ import annotations

import os
import queue as _queue
import secrets
import threading
import time
from dataclasses import dataclass, field

from repro.analysis.findings import AnalysisReport
from repro.analysis.plan_checks import check_memory
from repro.dist.coordinator import RunConfig, execute_plan_distributed
from repro.dist.pool import WorkerPool
from repro.serve.warmcache import WarmTileCache
from repro.util.memo import IdentityMemo
from repro.util.validation import require

#: The plan-verifier rules admission control enforces: every memory-budget
#: rule whose violation would OOM (and thereby kill) a warm worker.
MEMORY_RULES = frozenset({"P110", "P111", "P112", "P114"})


def memory_findings(plan) -> list:
    """What the memory-budget rules hold against ``plan`` (empty: admit):
    the plan verifier's memory check alone, without its P113 balance rule."""
    report = AnalysisReport()
    check_memory(plan, report)
    return [f for f in report.findings if f.rule in MEMORY_RULES]


def _check_job_keywords(kwargs: dict) -> None:
    """Raise the ``TypeError`` a job would die of before anything queues:
    ``kwargs`` must be keywords of
    :func:`~repro.dist.execute_plan_distributed` — ``c``, ``alpha``,
    ``beta`` or a :class:`RunConfig` field — other than the two the service
    sets itself (``pool``, ``run_id``)."""
    RunConfig(**{k: v for k, v in kwargs.items() if k not in ("c", "alpha", "beta")})
    own = sorted({"pool", "run_id"} & set(kwargs))
    if own:
        raise TypeError(f"ContractionService sets {own} itself")


#: Seconds :meth:`ContractionService.shutdown` waits for queued jobs, then
#: for the scheduler thread and for each worker to leave.
_SHUTDOWN_TIMEOUT_S = 10.0

#: Queue entry that sorts ahead of every job and names none: shutdown puts
#: it to wake a scheduler asleep in ``get`` so it sees ``_stop`` at once.
_WAKE = (float("-inf"), 0, None)

#: Job life-cycle states, in order.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled",
)


class AdmissionError(ValueError):
    """The job was rejected at submission (capacity or memory rules)."""

    def __init__(self, message: str, findings=()):
        super().__init__(message)
        self.findings = list(findings)


class BackpressureError(RuntimeError):
    """The queue is full; resubmit after a pending job finishes."""


class JobFailedError(RuntimeError):
    """Raised by :meth:`ContractionService.result` for a failed job."""


@dataclass
class Job:
    """One queued contraction and everything observed about it."""

    job_id: str
    plan: object
    a: object
    b: object
    priority: int
    seq: int
    kwargs: dict = field(default_factory=dict)
    state: str = QUEUED
    result: object = None
    report: object = None
    error: BaseException | None = None
    submitted_s: float = 0.0  # service-clock (monotonic) stamps
    started_s: float = 0.0
    finished_s: float = 0.0
    done: threading.Event = field(default_factory=threading.Event)

    def snapshot(self) -> dict:
        """A plain-dict view for status tables (no live objects)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "priority": self.priority,
            "seq": self.seq,
            "queued_s": round(
                (self.started_s or time.monotonic()) - self.submitted_s, 3
            ),
            "run_s": round(
                (self.finished_s - self.started_s), 3
            ) if self.finished_s else None,
            "error": repr(self.error) if self.error is not None else None,
        }


class ContractionService:
    """A persistent serving layer over one warm worker pool.

    Parameters
    ----------
    nranks:
        Ranks the pool serves; every admitted plan must want exactly this
        many.
    artifacts_dir:
        Root for per-job artifacts (events / trace / metrics).  ``None``
        disables artifact files; results and reports are still returned.
    queue_limit:
        Maximum jobs queued-or-running before :meth:`submit` raises
        :class:`BackpressureError`.
    dist_kwargs:
        Defaults for every job's :func:`~repro.dist.execute_plan_distributed`
        call (a job's own kwargs win), checked here: e.g. ``verify_plan``
        runs the full static plan verifier inside each job, ``store_dir``
        roots a disk tier under the warm cache.
    """

    def __init__(self, nranks: int, *, artifacts_dir: str | None = None,
                 queue_limit: int = 8, **dist_kwargs):
        require(queue_limit >= 1, f"queue_limit must be >= 1, got {queue_limit}")
        _check_job_keywords(dist_kwargs)
        self._dist_kwargs = dist_kwargs
        self.pool = WorkerPool(nranks, tile_cache_factory=WarmTileCache)
        self.artifacts_dir = artifacts_dir
        if artifacts_dir is not None:
            os.makedirs(artifacts_dir, exist_ok=True)
        self._queue_limit = queue_limit
        self._jobs: dict[str, Job] = {}
        #: The memory-rule verdict of each plan admitted or refused so far
        #: (a plan is immutable once submitted, like the operands of a
        #: queued job): a loop resubmitting its plan pays a lookup.
        self._verdicts = IdentityMemo()
        self._lock = threading.Lock()
        self._seq = 0
        self._open = True
        # (-priority, seq, job_id): higher priority first, FIFO within.
        self._pending: _queue.PriorityQueue = _queue.PriorityQueue()
        self._idle = threading.Event()
        self._idle.set()
        self._stop = threading.Event()
        # Daemon per L307's rationale: an owner that crashes without
        # shutdown() must not hang interpreter exit; shutdown() joins it.
        self._scheduler = threading.Thread(
            target=self._run_scheduler, name="repro-serve-scheduler", daemon=True
        )
        self._scheduler.start()

    # -- client API ----------------------------------------------------------

    def submit(self, plan, a, b, *, priority: int = 0, **kwargs) -> str:
        """Queue one contraction; returns its job id.

        ``kwargs`` (``c``, ``alpha``, ``beta``, ``fault_plan``, ...) are
        forwarded to :func:`~repro.dist.execute_plan_distributed`; anything
        else is a ``TypeError``, as in the constructor.  Raises
        :class:`AdmissionError` when the plan cannot run on this pool,
        :class:`BackpressureError` when the queue is full.
        """
        _check_job_keywords(kwargs)
        # Outside the lock: verifying a new plan takes milliseconds, and the
        # scheduler's _finish and jobs() must not wait behind it.
        self._admit(plan)
        with self._lock:
            require(self._open, "service is shut down")
            active = sum(
                1 for j in self._jobs.values() if j.state in (QUEUED, RUNNING)
            )
            if active >= self._queue_limit:
                raise BackpressureError(
                    f"{active} job(s) queued or running >= limit "
                    f"{self._queue_limit}; wait for a result and resubmit"
                )
            self._seq += 1
            job = Job(
                job_id=f"j{self._seq:04d}-{secrets.token_hex(3)}",
                plan=plan, a=a, b=b, priority=priority, seq=self._seq,
                kwargs=kwargs, submitted_s=time.monotonic(),
            )
            self._jobs[job.job_id] = job
            self._idle.clear()
            self._pending.put((-priority, job.seq, job.job_id))
            return job.job_id

    def result(self, job_id: str, timeout: float | None = None):
        """Block until the job finishes; returns ``(C, DistReport)``.

        Raises :class:`JobFailedError` (chaining the worker-side
        exception) for a failed job, :class:`TimeoutError` on timeout.
        """
        job = self._job(job_id)
        if not job.done.wait(timeout=timeout):
            raise TimeoutError(f"job {job_id} still {job.state} after {timeout}s")
        if job.state != DONE:
            raise JobFailedError(f"job {job_id} {job.state}") from job.error
        return job.result, job.report

    def report(self, job_id: str):
        """The finished job's :class:`~repro.dist.DistReport` (else ``None``)."""
        return self._job(job_id).report

    def jobs(self) -> list[dict]:
        """Snapshot of every job (submission order) for status tables."""
        with self._lock:
            return [j.snapshot() for j in sorted(
                self._jobs.values(), key=lambda j: j.seq
            )]

    def shutdown(self) -> None:
        """Refuse new jobs, finish the queued ones, then stop the scheduler
        and the pool (idempotent).  A job still queued after
        ``_SHUTDOWN_TIMEOUT_S`` is cancelled (its waiter sees
        :class:`JobFailedError`)."""
        with self._lock:
            if not self._open:
                return
            self._open = False
        self._idle.wait(timeout=_SHUTDOWN_TIMEOUT_S)
        self._stop.set()
        self._pending.put(_WAKE)
        self._scheduler.join(timeout=_SHUTDOWN_TIMEOUT_S)
        while True:  # cancel whatever the scheduler never claimed
            try:
                _, _, job_id = self._pending.get_nowait()
            except _queue.Empty:
                break
            job = self._jobs.get(job_id)
            if job is not None and job.state == QUEUED:
                self._finish(job, CANCELLED, error=RuntimeError("service shut down"))
        self.pool.close(timeout=_SHUTDOWN_TIMEOUT_S)

    # -- admission -----------------------------------------------------------

    def _admit(self, plan) -> None:
        """Reject plans the committed pool capacity cannot run safely."""
        nranks = plan.grid.nprocs
        if nranks != self.pool.nranks:
            raise AdmissionError(
                f"plan wants {nranks} rank(s) but the pool serves "
                f"{self.pool.nranks}; resubmit to a matching service"
            )
        bad = self._verdicts.get(plan, memory_findings)
        if bad:
            lines = "; ".join(f"{f.rule}: {f.message}" for f in bad[:3])
            raise AdmissionError(
                f"plan fails {len(bad)} memory-budget rule(s) against pool "
                f"capacity: {lines}", findings=bad,
            )

    # -- scheduler -----------------------------------------------------------

    def _job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        require(job is not None, f"unknown job id {job_id!r}")
        return job

    def _run_scheduler(self) -> None:
        while not self._stop.is_set():
            try:
                _, _, job_id = self._pending.get(timeout=0.1)
            except _queue.Empty:
                continue
            job = self._jobs.get(job_id)
            if job is None or job.state != QUEUED:
                continue  # shutdown's wake-up, or cancelled while queued
            self._execute(job)

    def _execute(self, job: Job) -> None:
        job.state = RUNNING
        job.started_s = time.monotonic()
        self.pool.drain()  # a failed predecessor may have left traffic
        kwargs = dict(self._dist_kwargs)
        kwargs.update(job.kwargs)
        if self.artifacts_dir is not None:
            kwargs.setdefault(
                "events_path", os.path.join(self.artifacts_dir, "run-events.jsonl")
            )
        try:
            out, report = execute_plan_distributed(
                job.plan, job.a, job.b,
                pool=self.pool, run_id=job.job_id, **kwargs,
            )
            self._write_artifacts(job, report)
            job.result, job.report = out, report
            self._finish(job, DONE)
        except BaseException as exc:  # noqa: BLE001 - job isolation boundary
            # Contain the blast radius: this job fails, the service
            # survives.  Workers may be mid-run for the dead job, so
            # recycle them and drop whatever they had already sent.
            self.pool.terminate()
            self.pool.drain()
            self._finish(job, FAILED, error=exc)

    def _finish(self, job: Job, state: str, error: BaseException | None = None):
        with self._lock:
            job.state = state
            job.error = error
            job.finished_s = time.monotonic()
            # Result and report stay; the operands are the client's again.
            job.a = job.b = None
            job.kwargs = {}
            # Idle the moment the last job ends: shutdown() must not wait
            # out a scheduler poll interval to learn it.
            if not any(
                j.state in (QUEUED, RUNNING) for j in self._jobs.values()
            ):
                self._idle.set()
        job.done.set()

    def _write_artifacts(self, job: Job, report) -> None:
        if self.artifacts_dir is None:
            return
        if report.trace.events:
            report.write_artifact(
                os.path.join(self.artifacts_dir, f"trace.{job.job_id}.json"),
                meta={"command": "serve", "job": job.job_id},
            )
        if report.metrics is not None:
            path = os.path.join(self.artifacts_dir, f"metrics.{job.job_id}.prom")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.metrics.to_prometheus())
