"""Seeded fault schedules through the real coordinator and workers, on a
simulated pool.

:class:`SimPool` is a :class:`~repro.dist.pool.WorkerPool` whose queues live
in this process, whose clock is fake and whose processes are real
:class:`~repro.dist.worker._Worker` objects fired by a seeded scheduler.
The coordinator knows its environment only through its pool (``clock``,
``exit_code``, ``kill``, ``ensure``, ``alive_ranks`` and the comm layer),
so ``execute_plan_distributed(plan, a, b, pool=SimPool(...))`` is the
whole real path — scatter, supervise, recovery, reduce, report — with the
world's timing and failures decided by the schedule:

* an attempt computes for a fake duration (its speed is the schedule's),
  beating every ``heartbeat_interval`` of fake time in place of the
  worker's beat thread; its worker is fired when the duration ends;
* each attempt has a fate: ``ok``, ``slow``, ``kill`` (silent death),
  ``kill_after`` (death right after reporting), ``abort`` (the reserved
  exit code), ``stall`` (alive and silent), ``raise`` (the attempt raises
  and its traceback goes home as an ``ErrorMsg``), or ``late`` /
  ``late_raise`` (the reply lingers in the sender's feeder for half or one
  and a half of the coordinator's grace, and on the strong fabric dies
  with the process if the coordinator kills it first);
* a message the coordinator reads may keep it busy for a while, the world
  going on without it — how a report comes to race a stall verdict and
  land stale;
* the fabric is strong or weak.  The strong one keeps the real one's
  guarantees: each queue is FIFO, and a process's sends are readable
  before its exit is visible (a killed process loses those still in
  flight).  The weak one drops the second: a reply may trail its sender's
  visible exit, past the grace, past the end of its job.  The run must not
  care — an attempt's number never repeats over a pool's life, so a late
  reply is stale however late it lands.

No process is started and nothing sleeps.  Every schedule ends bit-exact
to :func:`~repro.runtime.numeric.execute_plan` or in the
``DistExecutionError`` its faults call for, folds its event log, leaves no
message of a rank's final attempt queued (M403) and no segment behind.
The sweep runs seeds ``0 .. REPRO_SIM_SEEDS - 1`` (500 by default; ``make
sim`` runs 5 000).  A failing seed replays alone: ``run_schedule(seed,
tmp_dir)``.
"""

import contextlib
import dataclasses
import functools
import gc
import os
import pickle
import random
import traceback
from collections import Counter

import numpy as np
import pytest

from repro.core import inspect
from repro.dist import DistExecutionError, active_segments, execute_plan_distributed, read_events
from repro.dist.comm import (
    COORDINATOR,
    CommLayer,
    DoneMsg,
    Empty,
    ErrorMsg,
    HeartbeatMsg,
    ScatterMsg,
)
from repro.dist.coordinator import _GRACE_SECONDS, _Coordinator
from repro.dist.pool import WorkerPool
from repro.dist.protocol import COORDINATOR_MACHINE, WORKER_MACHINE
from repro.dist.worker import ABORT_EXIT_CODE, _event_of, _Worker
from repro.machine import summit
from repro.runtime import GeneratedCollection, execute_plan
from repro.sparse import random_block_sparse
from repro.tiling import random_tiling
from repro.util.memo import IdentityMemo
from tests.test_dist_executor import assert_report_folds_its_log, mapped_segments

INF = float("inf")

#: Tasks per fake second of a healthy attempt (drawn per attempt); a
#: ``slow`` one runs ``SLOW`` times slower.
SPEED = (150.0, 450.0)
SLOW = 6.0


# ---- the simulated pool ------------------------------------------------------


class SimQueue:
    """One queue of the fabric, in memory: FIFO, like the pipe it stands
    for.  A message enters it at the fake instant it lands — a reply its
    sender's feeder holds back lands late — and is read in landing order."""

    def __init__(self, pool):
        self.pool, self.items = pool, []

    def put(self, payload):
        at = self.pool.now + self.pool.delay
        n = next((n for n, (t, _) in enumerate(self.items) if t > at), len(self.items))
        self.items.insert(n, (at, payload))
        self.pool.sent.append(payload)

    def get_nowait(self):
        if self is self.pool.telemetry and self.pool.pause:
            # The coordinator's next look at the world after a busy stretch.
            self.pool.run_for(self.pool.pause)
        if self.items and self.items[0][0] <= self.pool.now:
            return self.items.pop(0)[1]
        raise Empty

    def get(self, timeout=None):
        """The coordinator's blocking receive: the world runs until the head
        is readable, or for ``timeout`` fake seconds."""
        deadline = self.pool.now + timeout
        while True:
            try:
                payload = self.get_nowait()
            except Empty:
                arrival = self.items[0][0] if self.items else INF
                if not self.pool.step(deadline, arrival):
                    self.pool.now = deadline
                    raise
            else:
                self.pool.pause = self.pool.busy_for()
                return payload

    def visible(self):
        """The payloads readable now, in order."""
        out = []
        for at, payload in self.items:
            if at > self.pool.now:
                break
            out.append(payload)
        return out

    def close(self):
        pass

    def join_thread(self):
        pass


@dataclasses.dataclass
class _Job:
    """The message a simulated process holds, and its timeline."""

    msg: object
    fate: str
    t0: float
    duration: float
    end: float  # when the worker is fired with ``msg``
    die: float = INF  # when the process exits with ``code``
    code: int = 0
    beat: float = INF  # the next heartbeat
    quiet: float = INF  # beats stop here (a stall)
    seq: int = 0


class SimProcess:
    """A worker "process": a real ``_Worker`` the scheduler hands its inbox
    messages to at fake instants, as the attempt's fate says."""

    def __init__(self, pool, rank, endpoint, tile_cache=None, operands=None, scatter=None):
        assert scatter is None, "a borrowed pool's workers read their scatter"
        self.pool, self.rank, self.endpoint = pool, rank, endpoint
        self.worker = _Worker(rank, endpoint, tile_cache, operands, False)
        self.inbox = endpoint.inboxes[rank]
        self.exitcode = None
        self.job = None
        self.exit_at = INF  # a normal exit waits for its sends to land

    # -- the process interface WorkerPool uses ---------------------------------

    def start(self):
        self.pool.procs.append(self)

    def is_alive(self):
        return self.exitcode is None

    def terminate(self):
        self.exit(-15)

    def join(self, timeout=None):
        """An idle worker takes what is queued for it now (the pill of
        ``WorkerPool.close``); a busy one is left to ``terminate``."""
        while (self.is_alive() and self.job is None and self.exit_at == INF
               and self.inbox.visible()):
            self.act()

    # -- the schedule ------------------------------------------------------------

    def next_time(self):
        if self.exitcode is not None:
            return INF
        job = self.job
        if self.exit_at < INF:  # ending: it reads its inbox no more
            return self.exit_at
        if job is None:
            return self.inbox.items[0][0] if self.inbox.items else INF
        return min(job.end, job.die, job.beat)

    def act(self):
        now, job = self.pool.now, self.job
        if self.exit_at <= now:
            self.exitcode = 0
        elif job is None:
            _, (_, blob) = self.inbox.items.pop(0)
            self.take(pickle.loads(blob))
        elif job.die <= now:
            if job.code == ABORT_EXIT_CODE:
                self.pool.aborted.append(self.rank)
            self.exit(job.code)
        elif job.beat <= now:
            self.send_beat(now)
        else:
            self.finish()

    def take(self, msg):
        pool, now = self.pool, self.pool.now
        if isinstance(msg, ScatterMsg):
            fate = pool.fate(self.rank)
            speed = pool.speeds.get(self.rank) or pool.rng.uniform(*SPEED)
            duration = max(msg.proc.ntasks, 1) / speed * (SLOW if fate == "slow" else 1)
            job = _Job(msg, fate, now, duration, end=now + duration)
            at = now + pool.rng.uniform(0.05, 0.95) * duration
            if fate == "stall":
                job.end, job.quiet = INF, at
                pool.stalled = True
            elif fate in ("kill", "abort"):
                job.die, job.code = at, (ABORT_EXIT_CODE if fate == "abort" else 99)
            if msg.heartbeat_interval > 0:
                job.beat = now  # the "worker up" beat goes out on receipt
            self.job = job
        else:  # the pill: nothing to compute
            self.fire(msg)

    def send_beat(self, now):
        job = self.job
        if now >= job.quiet or now >= job.end:
            job.beat = INF
            return
        tasks = min(job.msg.proc.ntasks, int(job.msg.proc.ntasks * (now - job.t0) / job.duration))
        self.endpoint.send_telemetry(HeartbeatMsg(
            self.rank, job.msg.attempt, job.seq, tasks, uptime=now - job.t0,
        ))
        job.seq += 1
        job.beat = now + job.msg.heartbeat_interval

    def finish(self):
        job, pool = self.job, self.pool
        msg, fate = job.msg, job.fate
        if msg.heartbeat_interval > 0 and pool.rng.random() < 0.3:
            job.end = INF  # a last beat, racing the report
            self.send_beat(pool.now)
        self.job = None
        # The schedule beats for the worker: no beat thread.
        msg = dataclasses.replace(msg, heartbeat_interval=0.0)
        if fate in ("raise", "late_raise"):
            # The attempt raises opening its output arena.
            msg = dataclasses.replace(msg, c_meta=dataclasses.replace(
                msg.c_meta, name=msg.c_meta.name + "-gone"))
        if fate.startswith("late"):
            # The reply lingers in the sender's feeder: it lands later, or
            # (on the strong fabric) dies with the process if the
            # coordinator kills it first.
            pool.delay = pool.rng.choice((0.5, 1.5)) * _GRACE_SECONDS
        try:
            self.fire(msg)
        finally:
            pool.delay = 0.0
        if fate == "kill_after":
            self.exit(99)

    def fire(self, msg):
        """``worker_main``'s dispatch of one message: the worker's table
        runs it; an exception ships its traceback home and ends the process."""
        try:
            self.worker.fire(_event_of(msg), msg)
        except Exception:
            self.endpoint.send(COORDINATOR, ErrorMsg(
                self.rank, self.worker.attempt, traceback.format_exc()))
            self.exit(0)
        if self.worker.state == "exited":
            self.exit(0)

    def exit(self, code):
        """The process ends.  As with a real one, a normal exit (0) flushes
        its sends first — it is visible only once they have landed — while
        a kill (a fault's ``os._exit``, ``terminate``) loses those still in
        flight.  On the weak fabric the exit is visible at once and every
        send in flight lands when it would have."""
        if self.exitcode is not None:
            return
        self.job = None
        if self.pool.weak:
            self.exitcode = code
            return
        gather = self.endpoint.gather
        flying = [at for at, (src, _) in gather.items if src == self.rank and at > self.pool.now]
        if code == 0 and flying:
            self.exit_at = max(flying)
            return
        gather.items = [(at, p) for at, p in gather.items
                        if not (p[0] == self.rank and at > self.pool.now)]
        self.exitcode = code


class SimPool(WorkerPool):
    """A :class:`WorkerPool` on a fake clock, with in-memory queues and
    in-process workers; ``fates`` maps ``(rank, n)`` to the fate of the
    ``n``-th attempt the pool runs for ``rank`` (``ok`` when absent),
    ``speeds`` pins a rank's tasks per fake second, ``busy`` is the chance
    that a message keeps the coordinator busy for a while, and ``weak``
    picks the weak fabric.  ``seed`` draws the other speeds, fault instants
    and tie orders."""

    def __init__(self, nranks, seed=0, fates=None, speeds=None, busy=0.0, weak=False):
        # WorkerPool's state, on this pool's own context (``Queue`` and
        # ``Process`` below) in place of a multiprocessing one.
        self.nranks, self.ctx = nranks, self
        self.comm = CommLayer(nranks, self)
        self._tile_cache_factory, self._workers, self._arenas = None, {}, {}
        self._plan_hashes, self.spawns, self._closed = IdentityMemo(), 0, False
        self.attempts = Counter()
        self.rng = random.Random(seed)
        self.fates, self.weak = dict(fates or {}), weak
        self.speeds = dict(speeds or {})
        self.telemetry = self.comm.endpoint(COORDINATOR).telemetry
        self.busy, self.pause = busy, 0.0
        self.now, self.delay = 1000.0, 0.0
        self.procs, self.sent, self.aborted = [], [], []
        self.stalled = False
        self.attempts_run = Counter()

    def Queue(self):
        return SimQueue(self)

    def Process(self, target, args, daemon):
        return SimProcess(self, *args)

    def clock(self):
        return self.now

    def fate(self, rank):
        n = self.attempts_run[rank]
        self.attempts_run[rank] += 1
        return self.fates.get((rank, n), "ok")

    def busy_for(self):
        """The fake seconds the coordinator spends on a message it read:
        now and then (``busy``) a long stretch — an inline spare's run, a
        pause — while the world goes on without it."""
        return self.rng.uniform(0.5, 2.5) if self.rng.random() < self.busy else 0.0

    def run_for(self, seconds):
        deadline, self.pause = self.now + seconds, 0.0
        while self.step(deadline):
            pass
        self.now = deadline

    def step(self, deadline, arrival=INF):
        """Run the world's next action, if it falls by ``deadline``: the
        earliest due process acts (ties broken by the seed), or the clock
        moves to the ``arrival`` of a late message.  False when nothing is
        due by then."""
        live = [(p.next_time(), p) for p in self.procs if p.exitcode is None]
        t = min([tp for tp, _ in live] + [arrival if arrival > self.now else INF])
        if t > deadline:
            return False
        self.now = max(self.now, t)
        due = [p for tp, p in live if tp <= self.now]
        if due:
            self.rng.choice(due).act()
        return True

    def queued(self):
        """Every message visible in the fabric now: ``(queue, msg)``."""
        ep = self.comm.endpoint(COORDINATOR)
        queues = {"gather": ep.gather, "telemetry": ep.telemetry}
        queues.update({f"inbox{r}": q for r, q in enumerate(ep.inboxes)})
        return [(name, pickle.loads(blob)) for name, q in queues.items()
                for _, blob in q.visible()]


# ---- operands and oracles ------------------------------------------------------

#: name -> (machine nodes, p, gpus_per_proc, m, nk, generated B, C input)
VARIANTS = {
    "r2": (1, 2, 3, 40, 100, False, False),
    "r2gen": (1, 2, 3, 40, 100, True, False),
    "r2c": (1, 1, 3, 40, 100, False, True),  # a 1x2 grid: A broadcast
    "r3": (3, 3, 6, 50, 100, False, False),
}


@dataclasses.dataclass
class Operands:
    plan: object
    a: object
    b: object
    c: object
    alpha: float
    beta: float
    expected: object

    def run(self, pool, **config):
        return execute_plan_distributed(
            self.plan, self.a, self.b, self.c, self.alpha, self.beta,
            pool=pool, **config,
        )


@functools.cache
def operands(name) -> Operands:
    nodes, p, gpus, m, nk, generated, with_c = VARIANTS[name]
    rows = random_tiling(m, 10, 20, seed=0)
    inner = random_tiling(nk, 10, 20, seed=1)
    a = random_block_sparse(rows, inner, 0.8, seed=2)
    b = random_block_sparse(inner, inner, 0.8, seed=3)
    plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(nodes), p=p,
                   gpus_per_proc=gpus)
    if generated:
        b = GeneratedCollection(b.sparse_shape(), seed=5)
    c = random_block_sparse(rows, inner, 0.5, seed=4) if with_c else None
    alpha, beta = (0.5, 2.0) if with_c else (1.0, 1.0)
    expected = execute_plan(plan, a, b, c, alpha, beta)[0].to_dense()
    return Operands(plan, a, b, c, alpha, beta, expected)


# ---- schedules -------------------------------------------------------------------

RANK_FATES = ("kill", "kill_after", "stall", "raise", "late", "late_raise", "slow")


@dataclasses.dataclass
class Schedule:
    """One seed's world: operands, run configuration, fates, how many jobs
    share the pool and which fabric carries their messages."""

    seed: int
    kind: str
    variant: str
    config: dict
    fates: dict
    busy: float = 0.0
    jobs: int = 1
    start_idle_pool: bool = False
    weak: bool = False


def make_schedule(seed: int) -> Schedule:
    rng = random.Random(seed)
    kind = rng.choices(
        ("clean", "faults", "slow", "timeout", "abort", "pooled"),
        weights=(12, 35, 12, 3, 8, 20),
    )[0]
    config = dict(heartbeat_interval=rng.choice((0.0, 0.1, 0.25)),
                  stall_after_beats=rng.choice((3, 5, 8)), trace=rng.random() < 0.15)
    variant = rng.choice(("r2", "r2", "r2gen", "r2c", "r3"))
    fates: dict = {}

    def faulty(ranks, attempts=2, p=0.5, kinds=RANK_FATES):
        for r in ranks:
            for n in range(attempts):
                if rng.random() < p:
                    fates[r, n] = rng.choice(kinds)

    if kind == "faults":
        config["heartbeat_interval"] = rng.choice((0.1, 0.25))
        faulty(range(operands(variant).plan.grid.nprocs))
    elif kind == "slow":
        # Rank 0 lags the others: never recovered, never relieved of a block.
        variant = "r3"
        config.update(heartbeat_interval=0.1)
        fates[0, 0] = "slow"
        faulty((1, 2), attempts=1, p=0.3, kinds=("kill", "stall", "raise", "late"))
    elif kind == "timeout":
        config.update(heartbeat_interval=0.0, timeout=2.0)
        fates[rng.randrange(2), 0] = "stall"
    elif kind == "abort":
        config["heartbeat_interval"] = rng.choice((0.0, 0.1))
        fates[rng.randrange(2), 0] = "abort"
        if rng.random() < 0.2:
            config["checkpoint_dir"] = "ckpt"
    elif kind == "pooled" and rng.random() < 0.5:
        faulty((0,), attempts=1, p=1.0, kinds=("kill", "raise", "late"))
        config["heartbeat_interval"] = 0.1
    return Schedule(
        seed, kind, variant, config, fates,
        busy=rng.choice((0.0, 0.2, 0.5) if kind == "faults" else (0.0, 0.0, 0.1)),
        jobs=2 if kind == "pooled" else 1,
        start_idle_pool=kind == "pooled" and seed % 2 == 0,
        weak=rng.random() < 0.5,
    )


def assert_no_live_message_queued(pool, events):
    """M403 at the end of a run: nothing from a rank's final attempt — the
    one its last ``scatter`` or ``reassign`` record names — is still
    queued."""
    final = {e["rank"]: e["attempt"] for e in events
             if e["event"] in ("scatter", "reassign")}
    for queue, msg in pool.queued():
        if isinstance(msg, DoneMsg):
            rank, attempt = msg.rank, msg.report.attempt
        elif isinstance(msg, (ErrorMsg, HeartbeatMsg)):
            rank, attempt = msg.rank, msg.attempt
        elif isinstance(msg, ScatterMsg):
            rank, attempt = msg.proc.rank, msg.attempt
        else:
            continue
        assert attempt != final[rank], (
            f"{queue} holds {type(msg).__name__} of {rank}'s final attempt")


def run_schedule(seed: int, tmp_dir) -> Schedule:
    """Run one seed's schedule and check it; returns the schedule."""
    sc = make_schedule(seed)
    check_schedule(sc, tmp_dir)
    return sc


def check_schedule(sc: Schedule, tmp_dir) -> None:
    """Run ``sc`` through ``execute_plan_distributed`` and check every job
    (raises ``AssertionError`` naming the schedule)."""
    ops = operands(sc.variant)
    nranks = ops.plan.grid.nprocs
    config = dict(sc.config, events_path=os.path.join(tmp_dir, "events.jsonl"))
    if "checkpoint_dir" in config:
        config["checkpoint_dir"] = os.path.join(tmp_dir, f"ckpt{sc.seed}")
    pool = SimPool(nranks, sc.seed, sc.fates, busy=sc.busy, weak=sc.weak)
    try:
        if sc.start_idle_pool:  # a started pool closed before any job
            idle = SimPool(nranks, sc.seed)
            idle.start()
            idle.close()
        for _ in range(sc.jobs):
            run_job(pool, ops, config, sc)
            pool.fates.clear()  # the next job runs fault-free
        pool.close()
        assert active_segments() == frozenset()
    except Exception as exc:
        raise AssertionError(f"seed {sc.seed} ({sc}) failed: {exc!r}") from exc
    finally:  # a failed seed leaves nothing for the next one to trip on
        pool.terminate()
        pool.close()


def run_job(pool, ops, config, sc):
    """One job on ``pool``: exact, or the failure its faults call for (a
    failed job's pool is reset the way a service resets it)."""
    aborted_before = len(pool.aborted)
    try:
        c, report = ops.run(pool, **config)
    except DistExecutionError as exc:
        events = read_events(config["events_path"])
        assert events[-1]["event"] in ("aborted", "failed"), events[-1]
        if len(pool.aborted) > aborted_before:
            assert "aborted" in str(exc), exc
            assert events[-1]["event"] == "aborted"
        else:
            assert pool.stalled and not config["heartbeat_interval"], exc
            assert "timed out" in str(exc), exc
        pool.terminate()
        pool.drain()
        if config.get("checkpoint_dir"):
            resume(ops, config, events, pool.nranks, sc.seed)
        return
    assert not (len(pool.aborted) > aborted_before), "an abort went unnoticed"
    assert np.array_equal(c.to_dense(), ops.expected), "C differs from execute_plan"
    assert_report_folds_its_log(report)
    assert_no_live_message_queued(pool, read_events(report.events_path))


def resume(ops, config, events, nranks, seed):
    """An aborted checkpointed run resumes, fault-free, to the same bits,
    restoring what the ranks that reported had committed."""
    pool = SimPool(nranks, seed + 1)
    c, report = ops.run(pool, **config)
    pool.close()
    assert np.array_equal(c.to_dense(), ops.expected)
    if any(e["event"] == "rank_done" for e in events):
        assert report.blocks_restored > 0


def late_report_schedule(seed: int, busy: float = 0.0) -> Schedule:
    """Two jobs on one pool, on the weak fabric: in job 1 rank 0's first
    attempt reports late (its reply lingers in the feeder past the grace),
    is put down as stalled and retried, and its report lands after job 1
    has ended, naming attempt 0.  ``busy`` as in :class:`SimPool`."""
    return Schedule(
        seed, "pooled", "r2",
        dict(heartbeat_interval=0.1, stall_after_beats=3, trace=False),
        {(0, 0): "late"}, busy=busy, jobs=2, weak=True,
    )


#: The two shapes that schedule takes when attempt numbers restart at 0 in
#: every job — each ``(seed, busy)`` fails there and passes with the pool's
#: numbers.  Both are job 2 crediting job 1's late report of rank 0 as its
#: own rank 0's:
POOLED_REGRESSIONS = {
    # ... before that rank has written its arena: C differs from execute_plan.
    "late-report-credited": (13, 0.0),
    # ... and, the coordinator busy while the world goes on, the rank's own
    # final report is left queued at the end of the job (M403).
    "own-report-left-queued": (13, 0.5),
}


@pytest.mark.parametrize("seed,busy", POOLED_REGRESSIONS.values(), ids=POOLED_REGRESSIONS.keys())
def test_pooled_regression_schedule(seed, busy, tmp_path):
    check_schedule(late_report_schedule(seed, busy), str(tmp_path))
    # Job 2's log: job 1's late report arrived, and was only discarded.
    stale = [(e["rank"], e["kind"], e["attempt"])
             for e in read_events(str(tmp_path / "events.jsonl")) if e["event"] == "stale_report"]
    assert (0, "done", 0) in stale


def test_a_queued_report_gets_no_stall_verdict(tmp_path):
    """After a busy stretch the coordinator reads every reply already
    queued before it patrols: in job 2 of the busy late-report schedule,
    rank 0's report of its live attempt is readable when the patrol would
    find the rank silent, and it is credited — no stall, no retry.  The
    one stale report is job 1's late attempt 0."""
    check_schedule(late_report_schedule(13, 0.5), str(tmp_path))
    events = read_events(str(tmp_path / "events.jsonl"))
    assert not [e for e in events if e["event"] in ("stall", "retry") and e["rank"] == 0]
    stale = [(e["rank"], e["kind"], e["attempt"]) for e in events if e["event"] == "stale_report"]
    assert stale == [(0, "done", 0)]


# ---- the sweep -----------------------------------------------------------------

SEEDS = range(int(os.environ.get("REPRO_SIM_SEEDS", "500")))


@contextlib.contextmanager
def counting_fires(fired: Counter):
    """Count every row fired, through the real ``fire`` methods."""
    coord_fire, worker_fire = _Coordinator.fire, _Worker.fire

    def coordinator(self, event, *subject):
        fired["coordinator", self.state, event] += 1
        return coord_fire(self, event, *subject)

    def worker(self, event, msg=None):
        fired["worker", self.state, event] += 1
        return worker_fire(self, event, msg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Coordinator, "fire", coordinator)
        patch.setattr(_Worker, "fire", worker)
        yield


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("sim"))
    fired, failures, kinds = Counter(), [], Counter()
    with counting_fires(fired):
        for seed in SEEDS:
            try:
                sc = run_schedule(seed, tmp)
                kinds[sc.kind, sc.weak] += 1
            except AssertionError as exc:
                failures.append(f"{exc}\n{traceback.format_exc()}")
    return fired, failures, kinds


def test_every_schedule_is_exact_or_fails_as_planned(sweep):
    fired, failures, kinds = sweep
    assert not failures, f"{len(failures)} failing seed(s); first:\n{failures[0]}"
    assert sum(kinds.values()) == len(SEEDS)
    # Both fabrics carry two-job schedules.
    assert kinds["pooled", True] and kinds["pooled", False]


def test_the_sweep_fires_every_reachable_coordinator_row(sweep):
    """Every row of the coordinator's table is reachable at runtime, and fires."""
    fired = {(state, event) for role, state, event in sweep[0] if role == "coordinator"}
    rows = {(tr.state, tr.event) for tr in COORDINATOR_MACHINE.transitions}
    assert len(rows) == 12
    assert fired == rows


def test_the_sweep_fires_the_worker_rows_the_model_check_leaves_unfired(sweep):
    """Two jobs on one pool and a started pool closed before any job reach
    the pooled worker's rows the model (one job) never explores."""
    fired = {(state, event) for role, state, event in sweep[0] if role == "worker"}
    assert {("idle", "recv:shutdown"), ("idle_done", "recv:shutdown"),
            ("idle_done", "recv:scatter")} <= fired
    assert fired <= {(tr.state, tr.event) for tr in WORKER_MACHINE.transitions}


# ---- one schedule each, with its story -------------------------------------------


def test_the_sim_pool_has_a_worker_pools_state():
    """SimPool sets WorkerPool's fields itself; a field the real pool
    grows must be given here too."""
    real = WorkerPool(2)
    try:
        assert set(vars(real)) <= set(vars(SimPool(2)))
    finally:
        real.close()


def test_a_slow_rank_is_never_recovered_and_keeps_its_blocks(tmp_path):
    """A slow rank is not a failed one: no rank is recovered, every rank
    runs its own blocks, and the run stays bit-exact."""
    ops = operands("r3")
    events_path = str(tmp_path / "events.jsonl")
    pool = SimPool(3, seed=1, fates={(0, 0): "slow"})
    c, report = ops.run(pool, heartbeat_interval=0.05, events_path=events_path)
    pool.close()
    kinds = {e["event"] for e in read_events(events_path)}
    assert not {"stall", "retry", "reassign", "stale_report"} & kinds
    assert report.attempts == {0: 1, 1: 1, 2: 1}
    assert report.stats.per_proc_tasks == {p.rank: p.ntasks for p in ops.plan.procs}
    assert np.array_equal(c.to_dense(), ops.expected)
    assert_report_folds_its_log(report)


def test_a_lost_run_releases_the_tiles_it_folded(tmp_path):
    """The simulated twin of ``test_lost_run_releases_the_tiles_it_folded``,
    with the order fixed by the schedule instead of a sleep: rank 0 reports
    and is folded in, then rank 1 aborts.  The run's C arenas are in none
    of ``active_segments()`` or this process's maps, while the exception is
    held and after it is gone."""
    ops = operands("r2")
    events_path = str(tmp_path / "events.jsonl")
    # Rank 1 computes for far longer than rank 0 and aborts well into it.
    pool = SimPool(2, seed=3, fates={(1, 0): "abort"}, speeds={1: 1.0})
    names = []
    with pytest.MonkeyPatch.context() as patch:
        teardown = _Coordinator.teardown

        def spying(self):
            names.extend(arena.name for arena in self.arenas)
            teardown(self)

        patch.setattr(_Coordinator, "teardown", spying)
        with pytest.raises(DistExecutionError, match="rank 1 aborted") as lost:
            ops.run(pool, heartbeat_interval=0.1, events_path=events_path)
    kinds = [(e["event"], e.get("rank")) for e in read_events(events_path)]
    assert kinds.index(("rank_done", 0)) < kinds.index(("abort", 1))
    assert sorted(n.rsplit("-", 1)[1] for n in names) == ["c0a0", "c1a0"]
    assert lost.tb is not None  # the run's frames are alive ...
    assert mapped_segments(names) == []  # ... and hold none of its tiles
    del lost
    gc.collect()
    assert mapped_segments(names) == []
    pool.terminate()
    pool.drain()
    pool.close()
    assert active_segments() == frozenset()
