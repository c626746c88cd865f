"""Bounded exhaustive model checking of the executor protocol.

Small-scope hypothesis, applied: protocol bugs (lost wakeups, recovery
deadlocks, unbounded queues) almost always have counterexamples within a
tiny scope — one to three ranks, one injected fault, a couple of work
units, at most one steal excursion.  This module explores *every*
interleaving of the declared protocol model
(:mod:`repro.dist.protocol`) over exactly those scopes with an
explicit-state breadth-first search, and reports violations as ordinary
analysis findings (``M40x``) carrying a **reproducing trace**: the
ordered message/action sequence from the initial state to the bad one.

Checked properties:

* **M401 deadlock freedom** — every reachable non-terminal state has at
  least one enabled transition;
* **M402 no unhandled message** — whenever a message can reach the head
  of a role's queue, that role's declared machine has a transition for
  it (including the ``:stale`` variants for superseded-attempt traffic);
* **M403 no orphaned sends** — when a run terminates cleanly, no
  message from a rank's *final* attempt is still queued (superseded
  traffic is legitimately discarded at teardown; an abandoned
  relinquish/ack pair is M408's jurisdiction, not an orphan);
* **M404 queue byte budgets** — no interleaving pushes an inbox, the
  gather queue, or the telemetry queue past its declared byte budget;
* **M405 recovery / resume safety** — every fault schedule inside the
  scope that the retry->reassign policy is specified to survive ends in
  a completed run with each rank's work credited exactly once, and a
  checkpointed run killed by ``abort`` resumes to completion from its
  journal;
* **M406 journal ordering** — no reachable state journals a block whose
  tiles are not yet durably in the store;
* **M407 no lost or double-executed block** — under every steal x
  kill/stall/raise/abort interleaving each work unit is executed exactly
  once: a committed steal shrinks the origin's target by exactly the
  yielded units and those units run exactly once (on the helper or the
  coordinator's inline spare), while a steal superseded by the origin's
  failure reverts cleanly to the full re-executed plan;
* **M408 relinquish acked or superseded** — every relinquish request is
  acknowledged by the worker (live, empty or stale) or provably
  superseded by the rank's own completion or recovery; none is left
  dangling against a still-running attempt.

The semantics mirrored here are deliberately *idealized* in one place:
the patrol's grace window (the real coordinator waits ``_GRACE_SECONDS``
for a late report before declaring a visibly-exited worker dead) is
modeled as always sufficient — ``obs:worker_exit`` is not enabled while
a current-attempt report from that rank is still in flight.  The stale
``recv:*:stale`` transitions exist because the real window is finite;
the coordinator discards superseded reports by attempt number either
way.

The steal excursion models the dynamic rebalancing path end to end:
``obs:straggler`` (the windowed-rate patrol verdict) queues a
``relinquish`` pinned to the origin's current attempt; the origin acks
at its next block boundary with its unstarted units (possibly zero);
the coordinator hands the yielded units to a finished helper rank (or
the inline spare) and absorbs the ``handoff_done``.  Because both the
ack and the origin's ``done`` report ride the same FIFO gather queue, a
non-empty ack always reaches the coordinator before the origin's
report — the model exploits (and thereby checks) exactly the ordering
the implementation relies on.

Fault kinds match :class:`repro.dist.faults.FaultInjection` (``kill``,
``stall``, ``abort``) plus ``raise`` — the unplanned-exception path of
``worker_main`` that ships an ``error`` message home.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.analysis.findings import AnalysisReport
from repro.dist.protocol import COORDINATOR_ROLE, WORKER_ROLE, ProtocolModel

#: Longest counterexample trace rendered into a finding message.
_MAX_TRACE_STEPS = 60


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault in a scenario (mirrors ``FaultInjection``)."""

    rank: int
    kind: str  # kill | stall | abort | raise
    at_unit: int  # fires after this many computed units (1-based)
    once: bool = True  # first attempt only, like FaultInjection.once

    def armed(self, attempt: int) -> bool:
        return attempt == 0 or not self.once

    def label(self) -> str:
        return (f"{self.kind}@r{self.rank}u{self.at_unit}"
                f"{'' if self.once else '*'}")


@dataclass(frozen=True)
class Scenario:
    """One small-scope configuration the checker explores exhaustively."""

    nranks: int
    fault: FaultSpec | None = None
    checkpoint: bool = False
    #: Per-rank journaled unit counts a resume run starts from (the
    #: abort+checkpoint sub-check); None for a fresh run.
    initial_journal: tuple[int, ...] | None = None
    #: Enable the rebalancing excursion: the patrol may flag rank 0 a
    #: straggler and request a cooperative relinquish at any point while
    #: it is running (every such point, by exhaustiveness).
    steal: bool = False

    def label(self) -> str:
        parts = [f"ranks={self.nranks}"]
        parts.append(f"fault={self.fault.label() if self.fault else 'none'}")
        if self.checkpoint:
            parts.append("ckpt")
        if self.steal:
            parts.append("steal")
        if self.initial_journal is not None:
            parts.append(f"resume={list(self.initial_journal)}")
        return " ".join(parts)


def default_scenarios(max_ranks: int = 2) -> list[Scenario]:
    """The standard sweep: 1..max_ranks ranks x fault kinds x checkpoint.

    ``kill`` is armed at both work-unit boundaries and in both the
    retry-succeeds (``once``) and retry-also-dies (persistent) variants;
    ``stall`` and ``raise`` likewise; ``abort`` is always persistent
    (resuming the job is the only way past one).  Faults target rank 0 —
    by symmetry of the model a fault on any rank explores the same
    protocol states, while the remaining ranks run fault-free
    concurrently and supply the interleavings.

    The steal sweep crosses the rebalancing excursion with each fault
    kind once (the full once/at-unit matrix above already covers plain
    recovery; the product that matters for M407/M408 is steal x
    {clean, kill, stall, raise, abort}) — rank 0 is both the straggler
    and the fault target, the adversarial overlap.
    """
    scenarios: list[Scenario] = []
    for nranks in range(1, max_ranks + 1):
        for ckpt in (False, True):
            scenarios.append(Scenario(nranks, None, ckpt))
            for kind in ("kill", "stall", "raise"):
                for at_unit in (1, 2) if kind == "kill" else (1,):
                    for once in (True, False):
                        scenarios.append(Scenario(
                            nranks, FaultSpec(0, kind, at_unit, once), ckpt
                        ))
            scenarios.append(Scenario(
                nranks, FaultSpec(0, "abort", 1, once=False), ckpt
            ))
            scenarios.append(Scenario(nranks, None, ckpt, steal=True))
            for kind in ("kill", "stall", "raise"):
                scenarios.append(Scenario(
                    nranks, FaultSpec(0, kind, 1, True), ckpt, steal=True
                ))
            scenarios.append(Scenario(
                nranks, FaultSpec(0, "abort", 1, once=False), ckpt,
                steal=True,
            ))
    return scenarios


# ---------------------------------------------------------------------------
# State representation: plain nested tuples, hashable by construction.
# ---------------------------------------------------------------------------

#: Worker tuple fields (kept positional for hashing speed).
#: state, attempt, done, computed, substep, stored, journaled, beats
_W_STATE, _W_ATT, _W_DONE, _W_COMP, _W_SUB, _W_STORED, _W_JRN, _W_BEATS = range(8)

#: Steal-excursion tuple fields: phase, pinned origin attempt, units
#: yielded by the origin, sidecar-journaled flag.  Phases: none ->
#: requested -> acked/acked_empty -> handing -> done, with superseded
#: reachable from any pre-commit phase via the origin's recovery.
_S_PHASE, _S_ATT, _S_STOLEN, _S_JRN = range(4)

_STEAL_NONE = ("none", 0, 0, False)

#: Message tuple: (name, rank, attempt)
_TERMINAL_COORD = ("done", "failed", "aborted")


def _initial_state(model: ProtocolModel, sc: Scenario):
    journal = sc.initial_journal or (0,) * sc.nranks
    workers = tuple(
        ("idle", 0, 0, 0, 0, journal[r], journal[r], 0)
        for r in range(sc.nranks)
    )
    inboxes = tuple((("scatter", r, 0),) for r in range(sc.nranks))
    return (
        "supervising",      # coordinator machine state
        workers,            # per-rank worker tuples
        frozenset(),        # complete ranks
        inboxes,            # per-rank inbox queues
        (),                 # gather queue
        (),                 # telemetry queue
        _STEAL_NONE,        # steal excursion (rank 0 is the origin)
    )


def _queue_bytes(model: ProtocolModel, queue) -> int:
    return sum(model.message(m[0]).nbytes for m in queue)


class _Run:
    """One scenario's exhaustive exploration (shared violation sink)."""

    def __init__(self, model: ProtocolModel, sc: Scenario, sink: "_Sink"):
        self.model = model
        self.sc = sc
        self.sink = sink
        self.worker_m = model.machine(WORKER_ROLE)
        self.coord_m = model.machine(COORDINATOR_ROLE)
        self.states_explored = 0
        self.aborted_journals: set[tuple[int, ...]] = set()
        #: parent pointers for counterexample traces
        self._parent: dict = {}

    # -- trace rendering -----------------------------------------------------

    def trace(self, state, last_label: str | None = None) -> str:
        steps: list[str] = []
        cur = state
        while True:
            prev = self._parent.get(cur)
            if prev is None:
                break
            cur, label = prev
            steps.append(label)
        steps.reverse()
        if last_label:
            steps.append(last_label)
        if len(steps) > _MAX_TRACE_STEPS:
            steps = steps[:_MAX_TRACE_STEPS] + ["..."]
        return " -> ".join(steps) if steps else "(initial state)"

    def _violate(self, rule: str, key, message: str, state, label=None) -> None:
        self.sink.record(rule, key, message, self.sc, self.trace(state, label))

    # -- transition semantics ------------------------------------------------

    def _target(self, r: int, steal) -> int:
        """Units rank ``r`` must execute itself: shrunk by a committed
        steal (the origin stops at its ack point), full otherwise."""
        if r == 0 and steal[_S_PHASE] in ("acked", "handing", "done"):
            return self.model.work_units - steal[_S_STOLEN]
        return self.model.work_units

    def _send(self, state, queue_kind: str, queue, msg, label: str):
        """Push ``msg``; returns new queue or None on budget violation."""
        new = queue + (msg,)
        budget = self.model.queue_budgets.get(queue_kind, 1 << 62)
        if _queue_bytes(self.model, new) > budget:
            self._violate(
                "M404", ("budget", queue_kind),
                f"{queue_kind} queue exceeds its {budget} B budget "
                f"({_queue_bytes(self.model, new)} B in flight)",
                state, label,
            )
            return None
        if queue_kind == "telemetry":
            # Symmetry reduction: every telemetry consumption is
            # side-effect-free (fold or discard), so the queue's internal
            # order is unobservable — keep it in canonical sorted form to
            # collapse equivalent interleavings.  Byte accounting and
            # per-message staleness are unaffected.
            new = tuple(sorted(new))
        return new

    def _unhandled(self, role: str, mstate: str, event: str, state, label):
        self._violate(
            "M402", ("unhandled", role, mstate, event),
            f"{role} state {mstate!r} has no transition for {event!r}",
            state, label,
        )

    def _fault_outcome(self, state, w, rank: int, label: str):
        """Apply the armed fault to worker ``w`` (post-compute)."""
        kind = self.sc.fault.kind
        event = "act:raise" if kind == "raise" else f"fault:{kind}"
        tr = self.worker_m.on("running", event)
        if tr is None:
            self._unhandled(WORKER_ROLE, "running", event, state, label)
            return None
        (coord_state, workers, complete, inboxes, gather, telemetry,
         steal) = state
        new_w = list(w)
        new_w[_W_STATE] = tr.next_state
        if "error" in tr.sends:
            gather = self._send(
                state, "gather", gather, ("error", rank, w[_W_ATT]), label
            )
            if gather is None:
                return None
        workers = workers[:rank] + (tuple(new_w),) + workers[rank + 1:]
        return (coord_state, workers, complete, inboxes, gather, telemetry,
                steal)

    def _recover(self, state, rank: int, label: str):
        """The coordinator's on_failure: retry once, then reassign."""
        (coord_state, workers, complete, inboxes, gather, telemetry,
         steal) = state
        w = workers[rank]
        if rank == 0 and steal[_S_PHASE] in ("requested", "acked",
                                             "acked_empty"):
            # The failed attempt no longer owns its blocks: any
            # in-flight relinquish or ack is superseded and the new
            # attempt re-executes the full plan (the runtime pops
            # outstanding_relinquish in on_failure the same way).
            steal = ("superseded",) + steal[1:]
        if w[_W_ATT] + 1 <= self.model.max_retries:
            # Respawn + rescatter: a fresh attempt with persistent
            # store/journal state carried over.
            new_w = ("idle", w[_W_ATT] + 1, 0, 0, 0, w[_W_STORED], w[_W_JRN], 0)
            inbox = self._send(
                state, "inbox", inboxes[rank],
                ("scatter", rank, w[_W_ATT] + 1), label,
            )
            if inbox is None:
                return None
            inboxes = inboxes[:rank] + (inbox,) + inboxes[rank + 1:]
            workers = workers[:rank] + (new_w,) + workers[rank + 1:]
            return (coord_state, workers, complete, inboxes, gather,
                    telemetry, steal)
        if self.model.allow_reassign:
            # Inline reassignment: the coordinator-local spare executes
            # (and, under checkpointing, journals) the rank synchronously.
            units = self._target(rank, steal)
            stored = journaled = units if self.sc.checkpoint else w[_W_JRN]
            new_w = ("reassigned", w[_W_ATT] + 1, units, 0, 0,
                     max(stored, w[_W_STORED]), max(journaled, w[_W_JRN]), 0)
            workers = workers[:rank] + (new_w,) + workers[rank + 1:]
            complete = complete | {rank}
            return (coord_state, workers, complete, inboxes, gather,
                    telemetry, steal)
        return ("failed", workers, complete, inboxes, gather, telemetry,
                steal)

    def _dispatch(self, state, label: str):
        """The live relinquished ack: hand the yielded units to a
        finished helper rank, or the coordinator's inline spare."""
        (coord_state, workers, complete, inboxes, gather, telemetry,
         steal) = state
        phase, att, stolen, jrn = steal
        if stolen <= 0:
            # The origin was already at its last block: nothing moved.
            return (coord_state, workers, complete, inboxes, gather,
                    telemetry, ("done", att, 0, jrn))
        helpers = [r for r in sorted(complete)
                   if workers[r][_W_STATE] == "idle_done"]
        if helpers:
            h = helpers[0]
            inbox = self._send(
                state, "inbox", inboxes[h],
                ("handoff", h, workers[h][_W_ATT]), label,
            )
            if inbox is None:
                return None
            inboxes = inboxes[:h] + (inbox,) + inboxes[h + 1:]
            return (coord_state, workers, complete, inboxes, gather,
                    telemetry, ("handing", att, stolen, jrn))
        # No finished helper: the coordinator-local spare executes (and,
        # under checkpointing, sidecar-journals) the blocks inline.
        return (coord_state, workers, complete, inboxes, gather, telemetry,
                ("done", att, stolen, jrn or self.sc.checkpoint))

    # -- successor enumeration ----------------------------------------------

    def _worker_recv(self, state, r: int, out) -> None:
        """Consume the head of rank ``r``'s inbox (scatter, relinquish
        or handoff), per the declared worker machine."""
        (coord_state, workers, complete, inboxes, gather, telemetry,
         steal) = state
        w = workers[r]
        wstate, att = w[_W_STATE], w[_W_ATT]
        msg = inboxes[r][0]
        name, _mr, msg_att = msg
        label = f"rank{r}: recv {name} (attempt {msg_att})"
        tr = self.worker_m.on(wstate, f"recv:{name}")
        if tr is None:
            self._unhandled(WORKER_ROLE, wstate, f"recv:{name}", state, label)
            return
        new_inboxes = inboxes[:r] + (inboxes[r][1:],) + inboxes[r + 1:]

        if name == "scatter":
            restored = w[_W_JRN] if self.sc.checkpoint else 0
            new_w = (tr.next_state, att, restored, 0, 0,
                     w[_W_STORED], w[_W_JRN], 0)
            new_telemetry = telemetry
            if "heartbeat" in tr.sends:
                new_telemetry = self._send(
                    state, "telemetry", telemetry, ("heartbeat", r, att),
                    label,
                )
                if new_telemetry is None:
                    return
            out.append((label, (
                coord_state, workers[:r] + (new_w,) + workers[r + 1:],
                complete, new_inboxes, gather, new_telemetry, steal,
            )))
            return

        if name == "relinquish":
            new_steal = steal
            live = (wstate == "running" and msg_att == att
                    and steal[_S_PHASE] == "requested")
            if live:
                # Yield every unstarted unit at this block boundary; the
                # origin's target shrinks to exactly what it has done.
                stolen = self._target(r, steal) - w[_W_DONE]
                phase = "acked" if stolen > 0 else "acked_empty"
                new_steal = (phase, att, stolen, steal[_S_JRN])
                ack = ("relinquished", r, att)
            else:
                # Stale (respawned attempt, or already reported): empty
                # ack so the coordinator can retire the request.
                if r == 0 and steal[_S_PHASE] == "requested":
                    new_steal = ("superseded",) + steal[1:]
                ack = ("relinquished", r, msg_att)
            new_gather = self._send(state, "gather", gather, ack, label)
            if new_gather is None:
                return
            out.append((label, (
                coord_state, workers, complete, new_inboxes, new_gather,
                telemetry, new_steal,
            )))
            return

        if name == "handoff":
            new_gather = self._send(
                state, "gather", gather, ("handoff_done", r, att), label
            )
            if new_gather is None:
                return
            new_steal = steal
            if self.sc.checkpoint:
                # The helper journals the stolen blocks into the
                # origin's sidecar before reporting (store-then-journal
                # per block, same discipline M406 defends).
                new_steal = (steal[_S_PHASE], steal[_S_ATT],
                             steal[_S_STOLEN], True)
            out.append((label, (
                coord_state, workers, complete, new_inboxes, new_gather,
                telemetry, new_steal,
            )))

    def successors(self, state):
        """Every (label, next_state) enabled in ``state``."""
        out = []
        (coord_state, workers, complete, inboxes, gather, telemetry,
         steal) = state
        if coord_state in _TERMINAL_COORD:
            # Teardown: the coordinator terminates every worker and
            # discards residual queue traffic (the abort/fail paths) or
            # has already drained them (the done path — M403 audits it).
            return out
        model, sc = self.model, self.sc
        fault = sc.fault

        # ---- worker transitions -------------------------------------------
        for r, w in enumerate(workers):
            wstate = w[_W_STATE]
            att = w[_W_ATT]

            # Inbox consumption: idle blocks on recv, idle_done is the
            # worker_main dispatch loop, running drains relinquish
            # requests only at block boundaries (recv_nowait between
            # blocks — mid-checkpoint substeps defer, they don't drop).
            if (inboxes[r] and wstate in ("idle", "running", "idle_done")
                    and (wstate != "running" or w[_W_SUB] == 0)):
                self._worker_recv(state, r, out)

            # a finished one-shot worker may leave at any moment — unless the
            # run rebalances: then it is a helper, and stays for handoffs
            tr = self.worker_m.on(wstate, "act:leave")
            if tr is not None and not sc.steal:
                left = (tr.next_state,) + w[1:]
                out.append((f"rank{r}: leave", (
                    coord_state, workers[:r] + (left,) + workers[r + 1:],
                    complete, inboxes, gather, telemetry, steal,
                )))

            if wstate == "running":
                target = self._target(r, steal)
                armed = (fault is not None and fault.rank == r
                         and fault.armed(att))

                # compute the next unit (the fault hook lives here: the
                # real injection fires in on_task, after the unit's GEMMs
                # but before on_block stores/journals it)
                if w[_W_SUB] == 0 and w[_W_DONE] < target:
                    tr_work = self.worker_m.on("running", "act:work")
                    if tr_work is None:
                        self._unhandled(WORKER_ROLE, "running", "act:work",
                                        state, f"rank{r}: work")
                    else:
                        computed = w[_W_COMP] + 1
                        if armed and computed == fault.at_unit:
                            label = (f"rank{r}: {fault.kind} after unit "
                                     f"{computed} (attempt {att})")
                            nw = list(w)
                            nw[_W_COMP] = computed
                            res = self._fault_outcome(
                                state, tuple(nw), r, label,
                            )
                            if res is not None:
                                # _fault_outcome rebuilt from the pre-fault
                                # state; patch in the computed counter.
                                cs, ws, cm, ib, ga, te, st = res
                                fw = list(ws[r])
                                fw[_W_COMP] = computed
                                ws = ws[:r] + (tuple(fw),) + ws[r + 1:]
                                out.append((label,
                                            (cs, ws, cm, ib, ga, te, st)))
                        else:
                            label = f"rank{r}: compute unit (attempt {att})"
                            nw = list(w)
                            nw[_W_COMP] = computed
                            if sc.checkpoint:
                                nw[_W_SUB] = 1
                            else:
                                nw[_W_DONE] = w[_W_DONE] + 1
                            out.append((label, (
                                coord_state,
                                workers[:r] + (tuple(nw),) + workers[r + 1:],
                                complete, inboxes, gather, telemetry, steal,
                            )))

                # checkpoint micro-steps: store then journal (or the
                # mutated reverse order, which M406 condemns)
                elif w[_W_SUB] in (1, 2):
                    first, second = (
                        ("act:store", "act:journal")
                        if model.journal_after_store
                        else ("act:journal", "act:store")
                    )
                    step = first if w[_W_SUB] == 1 else second
                    tr_step = self.worker_m.on("running", step)
                    if tr_step is None:
                        self._unhandled(WORKER_ROLE, "running", step,
                                        state, f"rank{r}: {step}")
                    else:
                        label = f"rank{r}: {step.split(':')[1]} unit (attempt {att})"
                        nw = list(w)
                        if step == "act:store":
                            nw[_W_STORED] = w[_W_STORED] + 1
                        else:
                            nw[_W_JRN] = w[_W_JRN] + 1
                        if w[_W_SUB] == 2:
                            nw[_W_SUB] = 0
                            nw[_W_DONE] = w[_W_DONE] + 1
                        else:
                            nw[_W_SUB] = 2
                        out.append((label, (
                            coord_state,
                            workers[:r] + (tuple(nw),) + workers[r + 1:],
                            complete, inboxes, gather, telemetry, steal,
                        )))

                # extra heartbeat (bounded)
                if w[_W_SUB] == 0 and w[_W_BEATS] < model.max_extra_beats:
                    tr = self.worker_m.on("running", "act:beat")
                    if tr is not None and "heartbeat" in tr.sends:
                        label = f"rank{r}: heartbeat (attempt {att})"
                        new_telemetry = self._send(
                            state, "telemetry", telemetry,
                            ("heartbeat", r, att), label,
                        )
                        if new_telemetry is not None:
                            nw = list(w)
                            nw[_W_BEATS] = w[_W_BEATS] + 1
                            out.append((label, (
                                coord_state,
                                workers[:r] + (tuple(nw),) + workers[r + 1:],
                                complete, inboxes, gather, new_telemetry,
                                steal,
                            )))

                # report home
                if w[_W_SUB] == 0 and w[_W_DONE] >= target:
                    tr = self.worker_m.on("running", "act:report")
                    if tr is None:
                        self._unhandled(WORKER_ROLE, "running", "act:report",
                                        state, f"rank{r}: report")
                    elif "done" in tr.sends:
                        label = f"rank{r}: send done (attempt {att})"
                        new_gather = self._send(
                            state, "gather", gather, ("done", r, att), label
                        )
                        if new_gather is not None:
                            nw = list(w)
                            nw[_W_STATE] = tr.next_state
                            out.append((label, (
                                coord_state,
                                workers[:r] + (tuple(nw),) + workers[r + 1:],
                                complete, inboxes, new_gather, telemetry,
                                steal,
                            )))

        # ---- coordinator transitions --------------------------------------
        def coord_recv(queue_name: str, queue, set_queue):
            msg = queue[0]
            name, r, att = msg
            if name == "handoff_done":
                # The helper is in `complete` by construction: its
                # report is never superseded.
                stale = False
            elif name == "relinquished":
                stale = ((r in complete) or (att != workers[r][_W_ATT])
                         or steal[_S_PHASE] not in ("acked", "acked_empty"))
            else:
                stale = (r in complete) or (att != workers[r][_W_ATT])
            event = f"recv:{name}" + (":stale" if stale else "")
            label = (f"coord: recv {name}{' (stale)' if stale else ''} "
                     f"from rank {r} (attempt {att})")
            tr = self.coord_m.on(coord_state, event)
            if tr is None:
                self._unhandled(COORDINATOR_ROLE, coord_state, event,
                                state, label)
                return
            base = set_queue(queue[1:])
            base = (tr.next_state,) + base[1:]
            if tr.action == "complete_rank":
                base = base[:2] + (base[2] | {r},) + base[3:]
                out.append((label, base))
            elif tr.action == "recover_rank":
                res = self._recover(base, r, label)
                if res is not None:
                    out.append((label, res))
            elif tr.action == "dispatch_handoff":
                res = self._dispatch(base, label)
                if res is not None:
                    out.append((label, res))
            elif tr.action == "absorb_handoff":
                cs, ws, cm, ib, ga, te, st = base
                st = ("done", st[_S_ATT], st[_S_STOLEN], st[_S_JRN])
                out.append((label, (cs, ws, cm, ib, ga, te, st)))
            else:  # discard / fold_health
                out.append((label, base))

        if gather:
            coord_recv(
                "gather", gather,
                lambda q: (coord_state, workers, complete, inboxes, q,
                           telemetry, steal),
            )
        if telemetry:
            coord_recv(
                "telemetry", telemetry,
                lambda q: (coord_state, workers, complete, inboxes, gather,
                           q, steal),
            )

        if coord_state == "supervising":
            # patrol: the windowed-rate straggler verdict (sc.steal
            # scopes it; once per run — the phase latch bounds the model)
            if (sc.steal and steal[_S_PHASE] == "none"
                    and 0 not in complete
                    and workers[0][_W_STATE] == "running"):
                label = "coord: flag rank 0 as straggler (relinquish)"
                tr = self.coord_m.on(coord_state, "obs:straggler")
                if tr is None:
                    self._unhandled(COORDINATOR_ROLE, coord_state,
                                    "obs:straggler", state, label)
                elif "relinquish" in tr.sends:
                    inbox = self._send(
                        state, "inbox", inboxes[0],
                        ("relinquish", 0, workers[0][_W_ATT]), label,
                    )
                    if inbox is not None:
                        new_steal = ("requested", workers[0][_W_ATT], 0,
                                     steal[_S_JRN])
                        out.append((label, (
                            tr.next_state, workers, complete,
                            (inbox,) + inboxes[1:], gather, telemetry,
                            new_steal,
                        )))
            for r, w in enumerate(workers):
                if r in complete:
                    continue
                # patrol: a visibly dead worker (exit code readable).  The
                # grace window is modeled as sufficient: not enabled while
                # a current-attempt report from r is still in flight.
                if w[_W_STATE] in ("exited_silent", "exited_done",
                                   "exited_err"):
                    in_flight = any(
                        m[1] == r and m[2] == w[_W_ATT] for m in gather
                    )
                    if not in_flight:
                        label = f"coord: observe rank {r} exit"
                        tr = self.coord_m.on(coord_state, "obs:worker_exit")
                        if tr is None:
                            self._unhandled(COORDINATOR_ROLE, coord_state,
                                            "obs:worker_exit", state, label)
                        else:
                            res = self._recover(state, r, label)
                            if res is not None:
                                out.append((label, res))
                # missed-heartbeat stall detector (sound by construction:
                # only a truly silent rank trips it)
                if w[_W_STATE] == "stalled":
                    label = f"coord: stall-detect rank {r} (terminate)"
                    tr = self.coord_m.on(coord_state, "obs:stall")
                    if tr is None:
                        self._unhandled(COORDINATOR_ROLE, coord_state,
                                        "obs:stall", state, label)
                    else:
                        # terminate the hung process, then the shared
                        # recovery path
                        tw = ("terminated",) + w[1:]
                        term = (coord_state,
                                workers[:r] + (tw,) + workers[r + 1:],
                                complete, inboxes, gather, telemetry, steal)
                        res = self._recover(term, r, label)
                        if res is not None:
                            out.append((label, res))
                # the reserved abort exit code: whole job lost
                if w[_W_STATE] == "exited_abort":
                    label = f"coord: observe abort exit of rank {r}"
                    tr = self.coord_m.on(coord_state, "obs:abort")
                    if tr is None:
                        self._unhandled(COORDINATOR_ROLE, coord_state,
                                        "obs:abort", state, label)
                    else:
                        out.append((label, (tr.next_state,) + state[1:]))
            # the gather loop exits only once no rank and no handoff is
            # pending (`while pending or pending_handoffs`)
            if (len(complete) == sc.nranks
                    and steal[_S_PHASE] not in ("acked", "handing")):
                tr = self.coord_m.on(coord_state, "obs:all_done")
                if tr is None:
                    self._unhandled(COORDINATOR_ROLE, coord_state,
                                    "obs:all_done", state,
                                    "coord: all ranks done")
                else:
                    out.append(("coord: all ranks done",
                                (tr.next_state,) + state[1:]))

        if coord_state == "draining" and not telemetry:
            tr = self.coord_m.on(coord_state, "obs:drained")
            if tr is None:
                self._unhandled(COORDINATOR_ROLE, coord_state, "obs:drained",
                                state, "coord: telemetry drained")
            else:
                out.append(("coord: telemetry drained",
                            (tr.next_state,) + state[1:]))

        return out

    # -- property checks -----------------------------------------------------

    def _check_invariants(self, state) -> None:
        _, workers, _, _, _, _, steal = state
        for r, w in enumerate(workers):
            if w[_W_JRN] > w[_W_STORED]:
                self._violate(
                    "M406", ("journal-order", r),
                    f"rank {r} has journaled {w[_W_JRN]} unit(s) but only "
                    f"{w[_W_STORED]} are durably in the store: a crash here "
                    f"leaves a journal record promising tiles that do not "
                    f"exist (store must precede journal)",
                    state,
                )
            if w[_W_DONE] > self._target(r, steal):
                self._violate(
                    "M407", ("over-execute", r),
                    f"rank {r} has executed {w[_W_DONE]} unit(s) but owns "
                    f"only {self._target(r, steal)} after the steal: a "
                    f"yielded block ran twice (origin and helper both "
                    f"produced it)",
                    state,
                )

    def _check_terminal(self, state) -> None:
        (coord_state, workers, complete, inboxes, gather, telemetry,
         steal) = state
        sc = self.sc
        phase, s_att, stolen, _jrn = steal
        if coord_state == "done":
            if len(complete) != sc.nranks:
                self._violate(
                    "M405", ("incomplete",),
                    f"run completed with only {len(complete)} of "
                    f"{sc.nranks} rank(s) credited",
                    state,
                )
            for queue in (gather, telemetry, *inboxes):
                for name, r, att in queue:
                    if name in ("relinquish", "relinquished"):
                        # Abandonment is legal: the request raced the
                        # rank's own completion or recovery and was
                        # superseded — M408's jurisdiction, not M403's.
                        continue
                    if att == workers[r][_W_ATT]:
                        self._violate(
                            "M403", ("orphan", name),
                            f"message {name!r} from rank {r}'s final "
                            f"attempt {att} is still queued at clean "
                            f"termination: sent but never consumable",
                            state,
                        )
            for r, w in enumerate(workers):
                tgt = self._target(r, steal)
                if w[_W_DONE] != tgt:
                    self._violate(
                        "M407", ("credit", r),
                        f"rank {r} completed with {w[_W_DONE]} of "
                        f"{tgt} owned unit(s) executed: a block was "
                        f"{'double-executed' if w[_W_DONE] > tgt else 'lost'}"
                        f" across the steal/recovery interleaving",
                        state,
                    )
            if stolen > 0 and phase in ("acked", "handing"):
                self._violate(
                    "M407", ("stolen-lost",),
                    f"run completed with {stolen} yielded unit(s) never "
                    f"executed: the steal committed (phase {phase!r}) but "
                    f"no helper or inline spare absorbed the blocks",
                    state,
                )
            if (phase == "requested" and 0 not in complete
                    and s_att == workers[0][_W_ATT]):
                self._violate(
                    "M408", ("dangling-relinquish",),
                    "run completed with a relinquish request still "
                    "dangling against rank 0's live attempt: neither "
                    "acked nor superseded",
                    state,
                )
        elif coord_state == "failed":
            self._violate(
                "M405", ("failed",),
                "run failed although the retry->reassign recovery policy "
                "is specified to survive every in-scope fault schedule",
                state,
            )
        elif coord_state == "aborted":
            if sc.fault is None or sc.fault.kind != "abort":
                self._violate(
                    "M405", ("spurious-abort",),
                    "run aborted although no abort fault was injected",
                    state,
                )
            elif sc.checkpoint:
                journal = [w[_W_JRN] for w in workers]
                if steal[_S_JRN]:
                    # Stolen blocks live in the origin's sidecar journal:
                    # resume replays them as the origin's own.
                    journal[0] += steal[_S_STOLEN]
                self.aborted_journals.add(tuple(journal))

    # -- the search ----------------------------------------------------------

    def explore(self, max_states: int = 1_000_000) -> None:
        init = _initial_state(self.model, self.sc)
        seen = {init}
        frontier = deque([init])
        self._parent[init] = None
        while frontier:
            state = frontier.popleft()
            self.states_explored += 1
            if self.states_explored > max_states:
                self._violate(
                    "M404", ("state-bound",),
                    f"state space exceeds {max_states} states: the model "
                    f"is not bounded over this scope (runaway queue or "
                    f"counter growth)",
                    state,
                )
                return
            self._check_invariants(state)
            succ = self.successors(state)
            if not succ:
                if state[0] in _TERMINAL_COORD:
                    self._check_terminal(state)
                else:
                    self._violate(
                        "M401", ("deadlock", state[0],
                                 tuple(w[_W_STATE] for w in state[1])),
                        f"deadlock: coordinator {state[0]!r}, workers "
                        f"{[w[_W_STATE] for w in state[1]]}, no transition "
                        f"enabled and the run is not terminal",
                        state,
                    )
                continue
            for label, nxt in succ:
                if nxt not in seen:
                    seen.add(nxt)
                    self._parent[nxt] = (state, label)
                    frontier.append(nxt)


class _Sink:
    """Deduplicated violation collector shared across scenarios."""

    def __init__(self):
        self.violations: list[tuple[str, object, str, Scenario, str]] = []
        self._seen: set = set()

    def record(self, rule: str, key, message: str, sc: Scenario,
               trace: str) -> None:
        if (rule, key) in self._seen:
            return
        self._seen.add((rule, key))
        self.violations.append((rule, key, message, sc, trace))


@dataclass
class ModelCheckResult:
    """Outcome of one full protocol model check."""

    report: AnalysisReport
    scenarios: int = 0
    states: int = 0
    per_scenario: list[tuple[str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def summary(self) -> str:
        return (f"model check: {self.scenarios} scenario(s), "
                f"{self.states} state(s) explored, "
                f"{len(self.report.findings)} finding(s)")


def check_protocol(
    model: ProtocolModel,
    scenarios: list[Scenario] | None = None,
    *,
    max_states: int = 1_000_000,
) -> ModelCheckResult:
    """Exhaustively explore ``model`` over ``scenarios`` (default sweep).

    Abort faults under checkpointing additionally trigger a *resume*
    sub-run for every distinct journal vector an aborted terminal can
    leave behind (including sidecar journals a committed steal wrote):
    the resumed run (same model, no fault, journal carried over) must
    itself pass every property — that is the static twin of
    ``selftest --resume``.
    """
    if scenarios is None:
        scenarios = default_scenarios()
    sink = _Sink()
    result = ModelCheckResult(report=AnalysisReport())
    queue = list(scenarios)
    seen_scenarios = set()
    while queue:
        sc = queue.pop(0)
        if sc in seen_scenarios:
            continue
        seen_scenarios.add(sc)
        run = _Run(model, sc, sink)
        run.explore(max_states=max_states)
        result.scenarios += 1
        result.states += run.states_explored
        result.per_scenario.append((sc.label(), run.states_explored))
        for journal in sorted(run.aborted_journals):
            queue.append(Scenario(
                nranks=sc.nranks, fault=None, checkpoint=True,
                initial_journal=journal,
            ))
    for rule, _key, message, sc, trace in sink.violations:
        result.report.add(
            rule,
            f"{message}; scenario [{sc.label()}]; trace: {trace}",
            obj=f"protocol scenario {sc.label()}",
        )
    return result
