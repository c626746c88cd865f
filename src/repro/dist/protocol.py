"""The executor's protocol, declared once: wire vocabulary, role machines.

This is the one place the coordinator/worker message protocol is written
down, as data four consumers share *by identity*:

* :class:`~repro.dist.comm.Endpoint` refuses to send a message class
  :data:`MESSAGES` does not declare, or one leaving the wrong role or on
  the wrong channel;
* the coordinator (:mod:`repro.dist.coordinator`) classifies every reply
  and patrol verdict as an event and *dispatches on*
  :data:`COORDINATOR_MACHINE`: the row's ``action`` names the method that
  runs, and a ``(state, event)`` without a row fails the run;
* the worker (:mod:`repro.dist.worker`) does the same with every inbox
  message on :data:`WORKER_MACHINE`: a message its state has no row for
  fails the attempt, shipped home as an ``error`` the coordinator recovers;
* the model checker (:mod:`repro.analysis.protocol.checker`) runs
  :data:`PROTOCOL` the same way over every interleaving of small fault
  scopes (rules M401-M406): each step fires a row, enters its
  ``next_state``, queues what its ``sends`` names and applies the effect
  its ``action`` names.

So the table that is proven is the table that runs; only the effects are
written twice, as the runtime's methods and as the checker's model of
them, under the same names.  Everything here is a frozen dataclass over
plain strings and ints; a test (or a deliberate mutation) builds a broken
variant with :meth:`ProtocolModel.without` and watches the checker — or
the coordinator's ``fire`` — catch it.

Reading guide, message by message:

* ``scatter`` — the :class:`~repro.dist.comm.ScatterMsg` carrying one
  rank's :class:`~repro.core.plan.ProcPlan`, arena metadata, fault
  injection and checkpoint restore list.  One per (rank, attempt).  On
  the fork plane it is a process argument, not a send: the worker takes it
  before reading its inbox — the checker's instant delivery, so the table
  and ``make model-check`` do not change.
* ``done`` / ``error`` — a :class:`~repro.dist.comm.DoneMsg` (the
  :class:`~repro.dist.worker.WorkerReport`) or
  :class:`~repro.dist.comm.ErrorMsg` (a formatted traceback) ends an
  attempt.
* ``heartbeat`` — :class:`~repro.dist.comm.HeartbeatMsg` liveness beats
  (cumulative task progress); they ride the out-of-band telemetry queue so
  they can never delay or reorder control traffic.
* ``shutdown`` — the :class:`~repro.dist.comm.ShutdownMsg` pill the
  serving layer sends a pooled worker between jobs; no run ever sends it.

Stale variants (``recv:<msg>:stale``) cover traffic from superseded
attempts — a terminated worker's late heartbeat, a report that raced the
patrol's grace window, a reply a warm pool's earlier job left queued —
which the coordinator must *discard*: acting on a stale report would
credit a half-written C arena.  Attempt numbers never repeat over a
pool's life, so "superseded" needs no help from the fabric's ordering.  A row commented *Not explored* is
fired by no scenario of ``make model-check``; the tests' seeded schedules
on a simulated pool (``make sim``) fire every one, through the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dist.comm import (
    COORDINATOR_ROLE,
    DATA_CHANNEL,
    TELEMETRY_CHANNEL,
    WORKER_ROLE,
    DoneMsg,
    ErrorMsg,
    HeartbeatMsg,
    ScatterMsg,
    ShutdownMsg,
)


@dataclass(frozen=True)
class MsgSpec:
    """One message type of the wire alphabet: its stable lowercase
    ``name`` (the vocabulary of events and counterexample traces), the
    ``cls`` that is it on the wire, sending and receiving roles, the
    physical ``channel`` that carries it, and a nominal pickled size for
    the queue-budget check (the model proves *boundedness*, not exact
    sizes, so a representative constant per type is enough)."""

    name: str
    cls: type
    src: str
    dst: str
    channel: str
    nbytes: int


@dataclass(frozen=True)
class Transition:
    """One edge of a role's state machine.

    ``event`` is a structured label:

    * ``recv:<msg>`` — consume message ``<msg>`` from the head of one of
      the role's queues; the ``:stale`` suffix variant handles the same
      message arriving from a superseded attempt (or for an already
      complete rank), which the protocol must *discard*, never act on;
    * ``act:<what>`` — an internal step (``work``, ``report``, ...);
    * ``fault:<kind>`` — an injected fault firing (``kill``, ``stall``,
      ``abort``);
    * ``obs:<what>`` — a coordinator observation of the outside world
      (a dead worker's exit code, a missed-heartbeat stall, ...).

    ``sends`` is what the step may emit, atomically with it: the checker
    emits nothing else (and all of it, unless the effect withholds a
    conditional send); the runtime does not read it.  ``action`` names the
    effect: the method the role calls, and the checker's model of it.
    """

    state: str
    event: str
    next_state: str
    sends: tuple[str, ...] = ()
    action: str = ""


@dataclass(frozen=True)
class RoleMachine:
    """One role's state machine: an initial state plus transitions."""

    role: str
    initial: str
    transitions: tuple[Transition, ...]

    def on(self, state: str, event: str) -> Transition | None:
        """The transition for ``event`` in ``state`` (None = unhandled)."""
        for tr in self.transitions:
            if tr.state == state and tr.event == event:
                return tr
        return None

    def without(self, state: str, event: str) -> "RoleMachine":
        """A copy lacking one transition (the mutation-testing hook)."""
        kept = tuple(
            tr for tr in self.transitions
            if not (tr.state == state and tr.event == event)
        )
        if len(kept) == len(self.transitions):
            raise KeyError(f"{self.role} has no transition ({state!r}, {event!r})")
        return replace(self, transitions=kept)


@dataclass(frozen=True)
class ProtocolModel:
    """The complete declared protocol the checker explores.

    Attributes
    ----------
    messages:
        The wire alphabet (see :class:`MsgSpec`).
    machines:
        One :class:`RoleMachine` per role, keyed by role name.
    queue_budgets:
        Byte budgets per queue kind (``inbox``, ``gather``,
        ``telemetry``): the in-flight bound the M404 check enforces.
    work_units:
        Abstract work units (blocks) per rank in the small-scope model.
    max_retries, allow_reassign:
        Retries granted per rank before reassignment, and whether a
        twice-failed rank falls through to the coordinator's inline spare
        worker.  The runtime has no such option: it always retries once,
        then reassigns (these defaults).  Other values are mutations the
        checker must convict (``allow_reassign=False`` loses a run, M405).
    max_extra_beats:
        Heartbeats a running worker may emit beyond the mandatory
        "worker up" beat (bounds the telemetry interleavings).
    journal_after_store:
        The checkpoint crash-consistency discipline: a block file is
        fsynced (``act:store``) *before* the rename that records it done
        (``act:journal``).  ``False`` models the broken ordering — the
        checker proves it unsafe (M406).
    """

    messages: tuple[MsgSpec, ...]
    machines: dict[str, RoleMachine]
    queue_budgets: dict[str, int]
    work_units: int = 2
    max_retries: int = 1
    allow_reassign: bool = True
    max_extra_beats: int = 1
    journal_after_store: bool = True

    def message(self, name: str) -> MsgSpec | None:
        for m in self.messages:
            if m.name == name:
                return m
        return None

    def machine(self, role: str) -> RoleMachine:
        return self.machines[role]

    def without(self, role: str, state: str, event: str) -> "ProtocolModel":
        """A copy whose ``role`` machine lacks one transition."""
        machines = dict(self.machines)
        machines[role] = machines[role].without(state, event)
        return replace(self, machines=machines)


_C, _W = COORDINATOR_ROLE, WORKER_ROLE

#: The wire alphabet.  Sizes are nominal (representative, not exact: byte
#: accounting is :class:`repro.dist.comm.CommStats`'s job at runtime).
MESSAGES = (
    MsgSpec("scatter", ScatterMsg, _C, _W, DATA_CHANNEL, 4096),
    MsgSpec("done", DoneMsg, _W, _C, DATA_CHANNEL, 2048),
    MsgSpec("error", ErrorMsg, _W, _C, DATA_CHANNEL, 512),
    MsgSpec("heartbeat", HeartbeatMsg, _W, _C, TELEMETRY_CHANNEL, 256),
    MsgSpec("shutdown", ShutdownMsg, _C, _W, DATA_CHANNEL, 128),
)

#: Message class -> its declaration: what an endpoint checks a send against.
WIRE = {m.cls: m for m in MESSAGES}

_NBYTES = {m.name: m.nbytes for m in MESSAGES}

#: Queue byte budgets the model proves are never exceeded.  Sized for
#: the small scope (<= 3 ranks, <= 2 attempts + reassign, bounded
#: beats); a model change that lets traffic accumulate without bound
#: trips M404 long before these numbers matter.
QUEUE_BUDGETS = {
    "inbox": _NBYTES["scatter"],           # one attempt at a time
    "gather": 8 * _NBYTES["done"],         # reports + stale retries
    "telemetry": 24 * _NBYTES["heartbeat"],
}

#: The per-rank worker: one scatter in, one report (or silence) out.
#:
#: ``idle`` is a freshly spawned process blocking on its inbox.  The
#: scatter moves it to ``running`` and emits the mandatory "worker up"
#: heartbeat (seq 0).  Work proceeds unit by unit; under checkpointing
#: each unit commits via ``act:store`` (block file fsynced) *then*
#: ``act:journal`` (renamed in): the crash-consistency order M406 defends.  The three fault excursions
#: mirror :class:`repro.dist.faults.FaultInjection`: ``kill`` exits
#: silently, ``abort`` exits with the reserved code, ``stall`` goes dark
#: (heartbeats stop, process alive).  ``act:raise`` is the
#: unplanned-exception path of ``worker_main`` — traceback shipped as an
#: ``error`` message, then a clean exit.
#:
#: After reporting, the worker parks in ``idle_done`` (the dispatch loop of
#: ``worker_main``): ``recv:shutdown`` ends a pooled worker between jobs,
#: ``recv:scatter`` starts its next job, and ``act:leave`` ends a one-shot
#: one once it has reported.
WORKER_MACHINE = RoleMachine(_W, "idle", (
    Transition("idle", "recv:scatter", "running",
               sends=("heartbeat",), action="attach_and_restore"),
    # Not explored (the model runs one job): an unused pooled worker's pill.
    Transition("idle", "recv:shutdown", "exited"),
    Transition("running", "act:work", "running", action="compute_unit"),
    Transition("running", "act:store", "running", action="store_unit"),
    Transition("running", "act:journal", "running", action="journal_unit"),
    Transition("running", "act:beat", "running", sends=("heartbeat",)),
    Transition("running", "act:report", "idle_done", sends=("done",)),
    Transition("running", "act:raise", "exited_err", sends=("error",)),
    Transition("running", "fault:kill", "exited_silent"),
    Transition("running", "fault:abort", "exited_abort"),
    Transition("running", "fault:stall", "stalled"),
    # Not explored (the model runs one job): the pill between jobs.
    Transition("idle_done", "recv:shutdown", "exited"),
    # Not explored (the model runs one job): a pooled worker's next job.
    Transition("idle_done", "recv:scatter", "running",
               sends=("heartbeat",), action="attach_and_restore"),
    Transition("idle_done", "act:leave", "exited"),
))

#: The coordinator: supervise, recover, drain — then reduce.
#:
#: ``supervising`` is the gather loop; the ``obs:*`` events are its
#: patrol — a dead worker's exit code, the missed-heartbeat stall
#: detector, the reserved abort exit code.  All three failure signals
#: funnel into the single ``recover_rank`` action (terminate, retry once,
#: then reassign inline).  Once every rank is complete the coordinator
#: drains residual telemetry (``draining``) and terminates in ``done``;
#: ``aborted`` and ``failed`` (recovery exhausted, timeout, any other
#: error — entered without a row) are the unrecoverable terminals.  A slow
#: rank has no row: the plan is static, so it keeps every block the
#: inspector gave it, and only the post-hoc audit (``repro explain``)
#: names it.
COORDINATOR_MACHINE = RoleMachine(_C, "supervising", (
    Transition("supervising", "recv:done", "supervising",
               action="complete_rank"),
    # Not explored (the model's grace window is ideal): a late report.
    Transition("supervising", "recv:done:stale", "supervising",
               action="discard"),
    Transition("supervising", "recv:error", "supervising",
               sends=("scatter",), action="recover_rank"),
    # Not explored (the model's grace window is ideal): a late traceback.
    Transition("supervising", "recv:error:stale", "supervising",
               action="discard"),
    Transition("supervising", "recv:heartbeat", "supervising",
               action="fold_health"),
    Transition("supervising", "recv:heartbeat:stale", "supervising",
               action="discard"),
    Transition("supervising", "obs:worker_exit", "supervising",
               sends=("scatter",), action="recover_rank"),
    Transition("supervising", "obs:stall", "supervising",
               sends=("scatter",), action="recover_rank"),
    Transition("supervising", "obs:abort", "aborted",
               action="abort_run"),
    Transition("supervising", "obs:all_done", "draining"),
    Transition("draining", "recv:heartbeat:stale", "draining",
               action="discard"),
    Transition("draining", "obs:drained", "done"),
))

#: The executor's declared protocol: what `repro analyze --model-check`
#: explores and what :mod:`repro.dist` dispatches on.
PROTOCOL = ProtocolModel(
    messages=MESSAGES,
    machines={_W: WORKER_MACHINE, _C: COORDINATOR_MACHINE},
    queue_budgets=QUEUE_BUDGETS,
)
