"""The declared protocol of the shipped distributed executor.

This is the one place the coordinator/worker message protocol is written
down as data: the wire alphabet (the typed messages of
:mod:`repro.dist.comm` / :mod:`repro.dist.worker` /
:mod:`repro.dist.health`), the two role state machines, the comm-layer
queue budgets, and the recovery / checkpoint disciplines.  The model
checker (:mod:`repro.analysis.protocol.checker`) explores exactly this
model; the conformance pass
(:mod:`repro.analysis.protocol.conformance`) pins it to the code.

Reading guide, message by message (the names match the docstring
``Protocol:`` annotations in ``src/repro/dist/``):

* ``scatter`` — coordinator -> worker, data channel.  The
  :class:`~repro.dist.worker.ScatterMsg` carrying one rank's
  :class:`~repro.core.plan.ProcPlan`, arena metadata, fault injection,
  and checkpoint restore list.  One per (rank, attempt).
* ``done`` — worker -> coordinator, data channel.  The
  :class:`~repro.dist.comm.DoneMsg` carrying the
  :class:`~repro.dist.worker.WorkerReport` that ends a successful attempt.
* ``error`` — worker -> coordinator, data channel.  The
  :class:`~repro.dist.comm.ErrorMsg`: a formatted traceback from a worker
  whose attempt raised.
* ``heartbeat`` — worker -> coordinator, telemetry channel.  The
  :class:`~repro.dist.health.HeartbeatMsg` liveness beat; rides the
  out-of-band queue so it can never delay or reorder control traffic.
* ``block_done`` — worker -> coordinator, telemetry channel.  The
  :class:`~repro.dist.comm.BlockDoneMsg` per-block completion report;
  progress telemetry, never control flow.
* ``relinquish`` — coordinator -> worker, data channel.  The
  :class:`~repro.dist.comm.RelinquishMsg` asking a flagged straggler to
  yield its unstarted blocks; pinned to one attempt.
* ``relinquished`` — worker -> coordinator, data channel.  The
  :class:`~repro.dist.comm.RelinquishedMsg`: the straggler's ack,
  carrying the yielded block positions (possibly none: the rank was
  already at its last block, or the request was stale).
* ``handoff`` — coordinator -> worker, data channel.  The
  :class:`~repro.dist.comm.HandoffMsg` shipping reclaimed blocks to a
  finished helper rank.
* ``handoff_done`` — worker -> coordinator, data channel.  The
  :class:`~repro.dist.comm.HandoffDoneMsg`: the helper's result (C index
  + stats), or a failure marker (``c_index=None``) that sends the blocks
  to the coordinator's in-process ``run_handoff``.

Stale variants (``recv:<msg>:stale``) cover traffic from superseded
attempts — a terminated worker's late heartbeat, a report that raced
the patrol's grace window, a relinquish ack from a rank that finished
or was retried in between — which the coordinator must *discard*:
acting on a stale report would credit a half-written C arena (or steal
blocks from an attempt that no longer owns them).
"""

from __future__ import annotations

from repro.analysis.protocol.model import (
    COORDINATOR_ROLE,
    DATA_CHANNEL,
    TELEMETRY_CHANNEL,
    WORKER_ROLE,
    MsgSpec,
    ProtocolModel,
    RoleMachine,
    Transition,
)

#: Nominal pickled sizes per message type (representative, not exact:
#: the budget check proves in-flight boundedness, not byte accounting —
#: that is :class:`repro.dist.comm.CommStats`'s job at runtime).
SCATTER_NBYTES = 4096
DONE_NBYTES = 2048
ERROR_NBYTES = 512
HEARTBEAT_NBYTES = 256
BLOCK_DONE_NBYTES = 128
RELINQUISH_NBYTES = 128
RELINQUISHED_NBYTES = 256
HANDOFF_NBYTES = 2048
HANDOFF_DONE_NBYTES = 1024

#: Queue byte budgets the model proves are never exceeded.  Sized for
#: the small scope (<= 3 ranks, <= 2 attempts + reassign, bounded
#: beats); a model change that lets traffic accumulate without bound
#: trips M404 long before these numbers matter.
QUEUE_BUDGETS = {
    # A retry can queue a fresh scatter behind an unconsumed relinquish;
    # a helper's inbox holds at most one handoff.
    "inbox": SCATTER_NBYTES + RELINQUISH_NBYTES + HANDOFF_NBYTES,
    "gather": 8 * DONE_NBYTES,         # reports + stale retries + acks
    "telemetry": 24 * HEARTBEAT_NBYTES,
}


def build_messages() -> tuple[MsgSpec, ...]:
    return (
        MsgSpec("scatter", COORDINATOR_ROLE, WORKER_ROLE, DATA_CHANNEL,
                SCATTER_NBYTES),
        MsgSpec("done", WORKER_ROLE, COORDINATOR_ROLE, DATA_CHANNEL,
                DONE_NBYTES),
        MsgSpec("error", WORKER_ROLE, COORDINATOR_ROLE, DATA_CHANNEL,
                ERROR_NBYTES),
        MsgSpec("heartbeat", WORKER_ROLE, COORDINATOR_ROLE,
                TELEMETRY_CHANNEL, HEARTBEAT_NBYTES),
        MsgSpec("block_done", WORKER_ROLE, COORDINATOR_ROLE,
                TELEMETRY_CHANNEL, BLOCK_DONE_NBYTES),
        MsgSpec("relinquish", COORDINATOR_ROLE, WORKER_ROLE, DATA_CHANNEL,
                RELINQUISH_NBYTES),
        MsgSpec("relinquished", WORKER_ROLE, COORDINATOR_ROLE, DATA_CHANNEL,
                RELINQUISHED_NBYTES),
        MsgSpec("handoff", COORDINATOR_ROLE, WORKER_ROLE, DATA_CHANNEL,
                HANDOFF_NBYTES),
        MsgSpec("handoff_done", WORKER_ROLE, COORDINATOR_ROLE, DATA_CHANNEL,
                HANDOFF_DONE_NBYTES),
    )


def build_worker_machine() -> RoleMachine:
    """The per-rank worker: one scatter in, one report (or silence) out.

    ``idle`` is a freshly spawned process blocking on its inbox.  The
    scatter moves it to ``running`` and emits the mandatory "worker up"
    heartbeat (seq 0).  Work proceeds unit by unit; under checkpointing
    each unit commits via ``act:store`` *then* ``act:journal`` (the
    crash-consistency order M406 defends).  The three fault excursions
    mirror :class:`repro.dist.faults.FaultInjection`: ``kill`` exits
    silently, ``abort`` exits with the reserved code, ``stall`` goes
    dark (heartbeats stop, process alive).  ``act:raise`` is the
    unplanned-exception path of ``worker_main`` — traceback shipped as
    an ``error`` message, then a clean exit.

    Rebalancing edges: ``recv:relinquish`` while running acks at the
    next block boundary with the unstarted positions; after reporting,
    the worker parks in ``idle_done`` (the dispatch loop of
    ``worker_main``) where it acks stray relinquish requests as stale
    and executes handoffs of blocks reclaimed from stragglers.  A
    relinquish landing on a freshly (re)spawned ``idle`` worker is from
    a superseded attempt — acked empty so the coordinator can retire
    the request (rule M408).  Unit completion also emits a
    ``block_done`` telemetry beat (on ``act:work`` without
    checkpointing, on the final ``act:journal`` substep with it).
    """
    t = [
        Transition("idle", "recv:scatter", "running",
                   sends=("heartbeat",), action="attach_and_restore"),
        Transition("idle", "recv:relinquish", "idle",
                   sends=("relinquished",), action="stale_ack"),
        Transition("running", "act:work", "running", action="compute_unit",
                   sends=("block_done",)),
        Transition("running", "act:store", "running", action="store_unit"),
        Transition("running", "act:journal", "running", action="journal_unit",
                   sends=("block_done",)),
        Transition("running", "act:beat", "running", sends=("heartbeat",)),
        Transition("running", "recv:relinquish", "running",
                   sends=("relinquished",), action="yield_unstarted"),
        Transition("running", "act:report", "idle_done", sends=("done",)),
        Transition("running", "act:raise", "exited_err", sends=("error",)),
        Transition("running", "fault:kill", "exited_silent"),
        Transition("running", "fault:abort", "exited_abort"),
        Transition("running", "fault:stall", "stalled"),
        Transition("idle_done", "recv:relinquish", "idle_done",
                   sends=("relinquished",), action="stale_ack"),
        Transition("idle_done", "recv:handoff", "idle_done",
                   sends=("handoff_done",), action="execute_handoff"),
    ]
    return RoleMachine(WORKER_ROLE, "idle", tuple(t))


def build_coordinator_machine() -> RoleMachine:
    """The coordinator: scatter, supervise, recover, drain, reduce.

    ``supervising`` is the gather loop of
    :func:`repro.dist.coordinator.execute_plan_distributed`; the
    ``obs:*`` events are its patrol — a dead worker's exit code, the
    missed-heartbeat stall detector, the reserved abort exit code.  All
    three failure signals funnel into the single ``recover_rank``
    action (terminate, retry once, then reassign inline), exactly like
    the code's ``on_failure``.  Once every rank is complete the
    coordinator drains residual telemetry (``draining``) and terminates
    in ``done``; ``aborted`` and ``failed`` are the unrecoverable
    terminals.

    Rebalancing edges: ``obs:straggler`` is the patrol's windowed-rate
    verdict requesting a cooperative relinquish; the ack
    (``recv:relinquished``) dispatches a handoff to a finished helper
    (or runs the blocks on the coordinator's inline spare) and
    ``recv:handoff_done`` absorbs the helper's C tiles into the reduce.
    ``block_done`` folds into progress telemetry in both supervising
    and draining, exactly like heartbeats.
    """
    t = [
        Transition("supervising", "recv:done", "supervising",
                   action="complete_rank"),
        Transition("supervising", "recv:done:stale", "supervising",
                   action="discard"),
        Transition("supervising", "recv:error", "supervising",
                   action="recover_rank"),
        Transition("supervising", "recv:error:stale", "supervising",
                   action="discard"),
        Transition("supervising", "recv:heartbeat", "supervising",
                   action="fold_health"),
        Transition("supervising", "recv:heartbeat:stale", "supervising",
                   action="discard"),
        Transition("supervising", "recv:block_done", "supervising",
                   action="fold_progress"),
        Transition("supervising", "recv:block_done:stale", "supervising",
                   action="discard"),
        Transition("supervising", "obs:straggler", "supervising",
                   sends=("relinquish",), action="request_relinquish"),
        Transition("supervising", "recv:relinquished", "supervising",
                   action="dispatch_handoff"),
        Transition("supervising", "recv:relinquished:stale", "supervising",
                   action="discard"),
        Transition("supervising", "recv:handoff_done", "supervising",
                   action="absorb_handoff"),
        Transition("supervising", "obs:worker_exit", "supervising",
                   action="recover_rank"),
        Transition("supervising", "obs:stall", "supervising",
                   action="recover_rank"),
        Transition("supervising", "obs:abort", "aborted",
                   action="abort_run"),
        Transition("supervising", "obs:all_done", "draining"),
        Transition("draining", "recv:heartbeat", "draining",
                   action="fold_health"),
        Transition("draining", "recv:heartbeat:stale", "draining",
                   action="discard"),
        Transition("draining", "recv:block_done", "draining",
                   action="fold_progress"),
        Transition("draining", "recv:block_done:stale", "draining",
                   action="discard"),
        Transition("draining", "recv:relinquished:stale", "draining",
                   action="discard"),
        Transition("draining", "obs:drained", "done"),
    ]
    return RoleMachine(COORDINATOR_ROLE, "supervising", tuple(t))


def build_protocol_model() -> ProtocolModel:
    """The executor's declared protocol (the model `repro analyze
    --model-check` explores and the conformance pass pins to the code)."""
    return ProtocolModel(
        messages=build_messages(),
        machines={
            WORKER_ROLE: build_worker_machine(),
            COORDINATOR_ROLE: build_coordinator_machine(),
        },
        queue_budgets=dict(QUEUE_BUDGETS),
        work_units=2,
        max_retries=1,
        allow_reassign=True,
        max_extra_beats=1,
        journal_after_store=True,
    )
