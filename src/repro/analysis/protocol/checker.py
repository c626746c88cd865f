"""Bounded exhaustive model checking of the executor protocol.

Small-scope hypothesis, applied: protocol bugs (lost wakeups, recovery
deadlocks, unbounded queues) almost always have counterexamples within a
tiny scope — one to three ranks, one injected fault, a couple of work
units, at most one steal excursion.  This module explores *every*
interleaving of the declared protocol (:mod:`repro.dist.protocol`) over
exactly those scopes with an explicit-state breadth-first search, and
reports violations as ordinary analysis findings (``M40x``) carrying a
**reproducing trace**: the ordered message/action sequence from the
initial state to the bad one.

The checker runs the table, as the coordinator and the worker do: every
step fires one row, and the row decides

* the state the role enters: its ``next_state`` (the exceptions are a
  respawn's initial state and the model-only markers ``reassigned``,
  ``terminated`` and ``failed``);
* the messages queued: each one its ``sends`` names, routed by the
  message's declared destination and channel — ``recover_rank`` and
  ``dispatch_handoff`` may withhold theirs, no row emits anything else;
* the effect on the run state: the function :data:`_EFFECTS` holds under
  its ``action``, named one-to-one with the methods the runtime calls.

What stays hand-written is the environment: when an event is enabled (a
unit computes, the armed fault fires, the patrol sees an exit, a stall, an
abort or a straggler), whether a reply is live or stale, and the checks:

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
  committed block files;
* **M406 commit ordering** — no reachable state renames a block file into
  place (journals it) before its tiles are fsynced (stored);
* **M407 no lost or double-executed block** — under every steal x fault
  interleaving each work unit runs exactly once: a committed steal shrinks
  the origin's target by exactly the yielded units, which run once on the
  helper or the inline spare; a steal superseded by the origin's failure
  reverts to the full re-executed plan;
* **M408 relinquish acked or superseded** — every relinquish request is
  acknowledged by the worker (live, empty or stale) or provably
  superseded by the rank's own completion or recovery; none is left
  dangling against a still-running attempt.

The environment is *idealized* in one place: the patrol's grace window
(the real coordinator waits ``_GRACE_SECONDS`` for a late report before
declaring a visibly-exited worker dead) is always sufficient —
``obs:worker_exit`` is not enabled while a current-attempt report from
that rank is in flight — so the stale ``done`` and ``error`` rows, which
exist because the real window is finite, are declared but not explored.

The steal excursion: the origin acks a ``relinquish`` at its next block
boundary with its unstarted units (possibly none), which go to a finished
helper rank or the inline spare.  Ack and ``done`` share the FIFO gather
queue, so a non-empty ack reaches the coordinator before the origin's
report — the ordering the implementation relies on.

Fault kinds match :class:`repro.dist.faults.FaultInjection` (``kill``,
``stall``, ``abort``) plus ``raise`` — the unplanned-exception path of
``worker_main`` that ships an ``error`` message home.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.analysis.findings import AnalysisReport
from repro.dist.comm import COORDINATOR_ROLE, TELEMETRY_CHANNEL, WORKER_ROLE
from repro.dist.protocol import ProtocolModel

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
    #: Per-rank committed unit counts (block files) a resume run starts
    #: from (the abort+checkpoint sub-check); None for a fresh run.
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
    abort = FaultSpec(0, "abort", 1, once=False)
    for nranks in range(1, max_ranks + 1):
        for ckpt in (False, True):
            scenarios.append(Scenario(nranks, None, ckpt))
            for kind in ("kill", "stall", "raise"):
                for at_unit in (1, 2) if kind == "kill" else (1,):
                    for once in (True, False):
                        scenarios.append(Scenario(
                            nranks, FaultSpec(0, kind, at_unit, once), ckpt
                        ))
            scenarios.append(Scenario(nranks, abort, ckpt))
            scenarios.append(Scenario(nranks, None, ckpt, steal=True))
            for kind in ("kill", "stall", "raise"):
                scenarios.append(Scenario(
                    nranks, FaultSpec(0, kind, 1, True), ckpt, steal=True
                ))
            scenarios.append(Scenario(nranks, abort, ckpt, steal=True))
    return scenarios


# -- State: plain nested tuples, hashable by construction. -------------------

#: Worker tuple fields (kept positional for hashing speed).
#: state, attempt, done, computed, substep, stored, journaled, beats
_W_STATE, _W_ATT, _W_DONE, _W_COMP, _W_SUB, _W_STORED, _W_JRN, _W_BEATS = range(8)

#: Steal-excursion tuple fields: phase, pinned origin attempt, units
#: yielded by the origin, committed-under-the-origin flag.  Phases: none ->
#: requested -> acked/acked_empty -> handing -> done, with superseded
#: reachable from any pre-commit phase via the origin's recovery.
_S_PHASE, _S_ATT, _S_STOLEN, _S_JRN = range(4)

_STEAL_NONE = ("none", 0, 0, False)

#: Run-state slots: coordinator state, worker tuples, complete ranks, inbox
#: queues, gather queue, telemetry queue, steal excursion.  A message is a
#: ``(name, rank, attempt)`` tuple.
_INBOXES, _GATHER, _TELEMETRY, _STEAL = 3, 4, 5, 6
_TERMINAL_COORD = ("done", "failed", "aborted")


def _initial_state(sc: Scenario):
    journal = sc.initial_journal or (0,) * sc.nranks
    workers = tuple(("idle", 0, 0, 0, 0, j, j, 0) for j in journal)
    inboxes = tuple((("scatter", r, 0),) for r in range(sc.nranks))
    return ("supervising", workers, frozenset(), inboxes, (), (), _STEAL_NONE)


def _put(seq: tuple, i: int, item) -> tuple:
    return seq[:i] + (item,) + seq[i + 1:]


def _with_worker(s, r: int, w):
    return (s[0], _put(s[1], r, w)) + s[2:]


def _with_steal(s, steal):
    return s[:_STEAL] + (steal,)


# -- Effects: what a row's ``action`` does to the run state (_EFFECTS). ------
# Each takes the state after the row's ``next_state`` is entered, the rank
# the event concerns, the consumed message (or None) and the ``(rank,
# attempt)`` the row's sends go to, and returns the new state and address:
# None withholds the sends (``recover_rank`` and ``dispatch_handoff`` *may*
# send).

def _keep(run, s, r, msg, to):
    return s, to


def _recover_rank(run, s, r, msg, to):
    """Retry once (respawn + rescatter), then reassign inline, else fail."""
    w, steal = s[1][r], s[_STEAL]
    if r == 0 and steal[_S_PHASE] in ("requested", "acked", "acked_empty"):
        # The failed attempt no longer owns its blocks: any in-flight
        # relinquish or ack is superseded and the new attempt re-executes
        # the full plan (the runtime pops outstanding_relinquish the same way).
        steal = ("superseded",) + steal[1:]
        s = _with_steal(s, steal)
    att = w[_W_ATT] + 1
    if att <= run.model.max_retries:
        # A fresh attempt; store and journal persist across it.
        w = (run.model.machine(WORKER_ROLE).initial, att, 0, 0, 0,
             w[_W_STORED], w[_W_JRN], 0)
        return _with_worker(s, r, w), (r, att)
    if run.model.allow_reassign:
        # The coordinator-local spare executes (and, under checkpointing,
        # journals) the rank synchronously.
        units = run._target(r, steal)
        journaled = units if run.sc.checkpoint else w[_W_JRN]
        w = ("reassigned", att, units, 0, 0, max(journaled, w[_W_STORED]),
             max(journaled, w[_W_JRN]), 0)
        s = _with_worker(s, r, w)
        return s[:2] + (s[2] | {r},) + s[3:], None
    return ("failed",) + s[1:], None


def _dispatch_handoff(run, s, r, msg, to):
    """Hand the yielded units to a finished helper rank, or run them on the
    coordinator's inline spare (committed under the origin's name)."""
    workers, (_phase, att, stolen, jrn) = s[1], s[_STEAL]
    if stolen <= 0:  # the origin was already at its last block
        return _with_steal(s, ("done", att, 0, jrn)), None
    for h in sorted(s[2]):
        if workers[h][_W_STATE] == "idle_done":
            return (_with_steal(s, ("handing", att, stolen, jrn)),
                    (h, workers[h][_W_ATT]))
    return _with_steal(s, ("done", att, stolen, jrn or run.sc.checkpoint)), None


def _attach_and_restore(run, s, r, msg, to):
    w = s[1][r]
    restored = w[_W_JRN] if run.sc.checkpoint else 0
    return _with_worker(s, r, (w[_W_STATE], w[_W_ATT], restored, 0, 0,
                               w[_W_STORED], w[_W_JRN], 0)), to


def _stale_ack(run, s, r, msg, to):
    """Ack empty: the request is from a superseded attempt, or the rank has
    reported; either way the coordinator retires it on the ack."""
    steal = s[_STEAL]
    if r == 0 and steal[_S_PHASE] == "requested":
        s = _with_steal(s, ("superseded",) + steal[1:])
    return s, to


def _yield_unstarted(run, s, r, msg, to):
    """Yield every unstarted unit at this block boundary: the origin's target
    shrinks to exactly what it has done."""
    w, steal = s[1][r], s[_STEAL]
    if msg[2] != w[_W_ATT] or steal[_S_PHASE] != "requested":
        return _stale_ack(run, s, r, msg, to)
    stolen = run._target(r, steal) - w[_W_DONE]
    phase = "acked" if stolen > 0 else "acked_empty"
    return _with_steal(s, (phase, w[_W_ATT], stolen, steal[_S_JRN])), to


def _execute_handoff(run, s, r, msg, to):
    # Under checkpointing the helper commits the stolen blocks under the
    # origin's name (store-then-journal per block) before reporting.
    if run.sc.checkpoint:
        s = _with_steal(s, s[_STEAL][:_S_JRN] + (True,))
    return s, to


def _compute_unit(run, s, r, msg, to):
    # Under checkpointing the unit first commits in two substeps.
    w = s[1][r]
    w = _put(w, _W_SUB, 1) if run.sc.checkpoint else _put(w, _W_DONE, w[_W_DONE] + 1)
    return _with_worker(s, r, w), to


def _commit(s, r, field: int):
    """Advance one checkpoint substep; the second completes the unit."""
    w = list(s[1][r])
    w[field] += 1
    if w[_W_SUB] == 2:
        w[_W_SUB], w[_W_DONE] = 0, w[_W_DONE] + 1
    else:
        w[_W_SUB] = 2
    return _with_worker(s, r, tuple(w))


_EFFECTS = {
    "complete_rank": lambda run, s, r, msg, to: (s[:2] + (s[2] | {r},) + s[3:], to),
    "discard": _keep,
    "recover_rank": _recover_rank,
    "fold_health": _keep,
    "request_relinquish": lambda run, s, r, msg, to: (_with_steal(
        s, ("requested", s[1][r][_W_ATT], 0, s[_STEAL][_S_JRN])), to),
    "dispatch_handoff": _dispatch_handoff,
    "absorb_handoff": lambda run, s, r, msg, to: (
        _with_steal(s, ("done",) + s[_STEAL][1:]), to),
    "abort_run": _keep,
    "attach_and_restore": _attach_and_restore,
    "stale_ack": _stale_ack,
    "yield_unstarted": _yield_unstarted,
    "execute_handoff": _execute_handoff,
    "compute_unit": _compute_unit,
    "store_unit": lambda run, s, r, msg, to: (_commit(s, r, _W_STORED), to),
    "journal_unit": lambda run, s, r, msg, to: (_commit(s, r, _W_JRN), to),
}


class _Run:
    """One scenario's exhaustive exploration.  ``sink`` is shared across
    scenarios: (rule, key) -> (message, scenario, trace) of its first
    violation."""

    def __init__(self, model: ProtocolModel, sc: Scenario, sink: dict):
        self.model, self.sc, self.sink = model, sc, sink
        #: (role, state, event) -> its row (the first wins, as in .on)
        self.rows = {(role, tr.state, tr.event): tr
                     for role, machine in model.machines.items()
                     for tr in reversed(machine.transitions)}
        self.fired: set = set()
        self._nbytes = {m.name: m.nbytes for m in model.messages}
        #: message name -> (queue kind, run-state slot), from its MsgSpec
        self._route = {m.name: (
            ("inbox", _INBOXES) if m.dst == WORKER_ROLE
            else ("telemetry", _TELEMETRY) if m.channel == TELEMETRY_CHANNEL
            else ("gather", _GATHER)) for m in model.messages}
        self.states_explored = 0
        self.aborted_journals: set[tuple[int, ...]] = set()
        #: parent pointers for counterexample traces
        self._parent: dict = {}

    # -- trace rendering -----------------------------------------------------

    def trace(self, state, last_label: str | None = None) -> str:
        steps = [last_label] if last_label else []
        while self._parent.get(state) is not None:
            state, label = self._parent[state]
            steps.append(label)
        steps.reverse()
        if len(steps) > _MAX_TRACE_STEPS:
            steps = steps[:_MAX_TRACE_STEPS] + ["..."]
        return " -> ".join(steps) if steps else "(initial state)"

    def _violate(self, rule: str, key, message: str, state, label=None) -> None:
        if (rule, key) not in self.sink:
            self.sink[rule, key] = (message, self.sc, self.trace(state, label))

    # -- the row interpreter -------------------------------------------------

    def _target(self, r: int, steal) -> int:
        """Units rank ``r`` must execute itself: shrunk by a committed
        steal (the origin stops at its ack point), full otherwise."""
        if r == 0 and steal[_S_PHASE] in ("acked", "handing", "done"):
            return self.model.work_units - steal[_S_STOLEN]
        return self.model.work_units

    def _send(self, state, label: str, s, msg):
        """Queue ``msg`` where its MsgSpec routes it; None on a budget
        violation (``state`` and ``label`` locate it in the trace)."""
        kind, slot = self._route[msg[0]]
        queue = s[slot][msg[1]] if slot == _INBOXES else s[slot]
        new = queue + (msg,)
        budget = self.model.queue_budgets.get(kind, 1 << 62)
        nbytes = sum(self._nbytes[m[0]] for m in new)
        if nbytes > budget:
            self._violate("M404", ("budget", kind), f"{kind} queue exceeds its "
                          f"{budget} B budget ({nbytes} B in flight)", state, label)
            return None
        if slot == _TELEMETRY:
            # Symmetry reduction: every telemetry consumption is
            # side-effect-free (fold or discard), so the queue's internal
            # order is unobservable — keep it in canonical sorted form to
            # collapse equivalent interleavings.  Byte accounting and
            # per-message staleness are unaffected.
            new = tuple(sorted(new))
        elif slot == _INBOXES:
            new = _put(s[slot], msg[1], new)
        return _put(s, slot, new)

    def _fire(self, out, state, role: str, r, event: str, label: str,
              base=None, msg=None) -> None:
        """Fire ``role``'s row for ``event`` from ``base`` (``state`` with
        the consumed ``msg`` popped or an environment step applied): enter
        the row's ``next_state``, apply the effect its ``action`` names, and
        queue each message its ``sends`` names, addressed by default to rank
        ``r`` at the attempt being answered."""
        s = state if base is None else base
        workers = s[1]
        mstate = s[0] if role == COORDINATOR_ROLE else workers[r][_W_STATE]
        key = (role, mstate, event)
        tr = self.rows.get(key)
        if tr is None:
            self._violate("M402", ("unhandled",) + key, f"{role} state {mstate!r} "
                          f"has no transition for {event!r}", state, label)
            return
        if tr.next_state != mstate:  # most steps stay put: skip the copy
            if role == COORDINATOR_ROLE:
                s = (tr.next_state,) + s[1:]
            else:
                s = _with_worker(s, r, (tr.next_state,) + workers[r][1:])
        to = None if r is None else (r, workers[r][_W_ATT] if msg is None else msg[2])
        if tr.action:
            s, to = _EFFECTS[tr.action](self, s, r, msg, to)
        for name in tr.sends if to else ():
            s = self._send(state, label, s, (name,) + to)
            if s is None:
                return
        self.fired.add(key)
        out.append((label, s))

    # -- the environment: which events are enabled --------------------------

    def successors(self, state):
        """Every (label, next_state) enabled in ``state``."""
        out: list = []
        cs, workers, complete, inboxes, gather, telemetry, steal = state
        if cs in _TERMINAL_COORD:
            # Teardown: the coordinator terminates every worker and
            # discards residual queue traffic (the abort/fail paths) or
            # has already drained them (the done path — M403 audits it).
            return out
        sc, fault, W, C = self.sc, self.sc.fault, WORKER_ROLE, COORDINATOR_ROLE

        for r, w in enumerate(workers):
            wstate, att, sub = w[_W_STATE], w[_W_ATT], w[_W_SUB]
            # Inbox consumption: idle blocks on recv, idle_done is the
            # worker_main dispatch loop, running drains relinquish requests
            # only at block boundaries (recv_nowait between blocks —
            # mid-checkpoint substeps defer, they don't drop).
            if (inboxes[r] and wstate in ("idle", "running", "idle_done")
                    and (wstate != "running" or sub == 0)):
                msg = inboxes[r][0]
                popped = _put(state, _INBOXES, _put(inboxes, r, inboxes[r][1:]))
                self._fire(out, state, W, r, f"recv:{msg[0]}",
                           f"rank{r}: recv {msg[0]} (attempt {msg[2]})",
                           popped, msg)

            # A finished one-shot worker may leave at any moment where its
            # machine lets it — unless the run rebalances: then it is a
            # helper, and stays for handoffs.
            if not sc.steal and (W, wstate, "act:leave") in self.rows:
                self._fire(out, state, W, r, "act:leave", f"rank{r}: leave")

            if wstate != "running":
                continue
            target = self._target(r, steal)
            if sub == 0 and w[_W_DONE] < target:
                # A unit computes; the armed fault fires right after its
                # GEMMs (on_task), before on_block stores/journals it.
                computed = w[_W_COMP] + 1
                ran = _with_worker(state, r, _put(w, _W_COMP, computed))
                if (fault is not None and fault.rank == r
                        and fault.armed(att) and computed == fault.at_unit):
                    event = ("act:raise" if fault.kind == "raise"
                             else f"fault:{fault.kind}")
                    label = (f"rank{r}: {fault.kind} after unit {computed} "
                             f"(attempt {att})")
                else:
                    event = "act:work"
                    label = f"rank{r}: compute unit (attempt {att})"
                self._fire(out, state, W, r, event, label, ran)
            elif sub:
                # Checkpoint substeps: store then journal (or the mutated
                # reverse order, which M406 condemns).
                order = (("act:store", "act:journal")
                         if self.model.journal_after_store
                         else ("act:journal", "act:store"))
                step = order[sub - 1]
                self._fire(out, state, W, r, step,
                           f"rank{r}: {step[4:]} unit (attempt {att})")
            if sub == 0 and w[_W_BEATS] < self.model.max_extra_beats:
                self._fire(out, state, W, r, "act:beat",
                           f"rank{r}: heartbeat (attempt {att})",
                           _with_worker(state, r, _put(w, _W_BEATS,
                                                       w[_W_BEATS] + 1)))
            if sub == 0 and w[_W_DONE] >= target:
                self._fire(out, state, W, r, "act:report",
                           f"rank{r}: send done (attempt {att})")

        # The coordinator consumes the head of the gather and telemetry
        # queues, classifying each reply live or stale.
        for slot in (_GATHER, _TELEMETRY):
            if not state[slot]:
                continue
            msg = state[slot][0]
            name, r, att = msg
            # A helper is in ``complete`` by construction: its handoff
            # report is never superseded.
            stale = name != "handoff_done" and (
                r in complete or att != workers[r][_W_ATT]
                or (name == "relinquished"
                    and steal[_S_PHASE] not in ("acked", "acked_empty")))
            self._fire(out, state, C, r,
                       f"recv:{name}" + (":stale" if stale else ""),
                       f"coord: recv {name}{' (stale)' if stale else ''} "
                       f"from rank {r} (attempt {att})",
                       _put(state, slot, state[slot][1:]), msg)

        if cs == "supervising":
            # Patrol: the windowed-rate straggler verdict (sc.steal scopes
            # it; once per run — the phase latch bounds the model).
            if (sc.steal and steal[_S_PHASE] == "none" and 0 not in complete
                    and workers[0][_W_STATE] == "running"):
                self._fire(out, state, C, 0, "obs:straggler",
                           "coord: flag rank 0 as straggler (relinquish)")
            for r, w in enumerate(workers):
                if r in complete:
                    continue
                # A visibly dead worker (exit code readable).  The grace
                # window is modeled as sufficient: not enabled while a
                # current-attempt report from r is still in flight.
                if (w[_W_STATE] in ("exited_silent", "exited_err")
                        and not any(m[1] == r and m[2] == w[_W_ATT]
                                    for m in gather)):
                    self._fire(out, state, C, r, "obs:worker_exit",
                               f"coord: observe rank {r} exit")
                # The missed-heartbeat stall detector (sound by
                # construction: only a truly silent rank trips it)
                # terminates the hung process, then recovers.
                if w[_W_STATE] == "stalled":
                    self._fire(out, state, C, r, "obs:stall",
                               f"coord: stall-detect rank {r} (terminate)",
                               _with_worker(state, r, ("terminated",) + w[1:]))
                # The reserved abort exit code: whole job lost.
                if w[_W_STATE] == "exited_abort":
                    self._fire(out, state, C, r, "obs:abort",
                               f"coord: observe abort exit of rank {r}")
            # The gather loop exits only once no rank and no handoff is
            # pending (`while pending or pending_handoffs`).
            if (len(complete) == sc.nranks
                    and steal[_S_PHASE] not in ("acked", "handing")):
                self._fire(out, state, C, None, "obs:all_done",
                           "coord: all ranks done")

        if cs == "draining" and not telemetry:
            self._fire(out, state, C, None, "obs:drained",
                       "coord: telemetry drained")
        return out

    # -- property checks -----------------------------------------------------

    def _check_invariants(self, state) -> None:
        _, workers, _, _, _, _, steal = state
        for r, w in enumerate(workers):
            if w[_W_JRN] > w[_W_STORED]:
                self._violate(
                    "M406", ("journal-order", r),
                    f"rank {r} has renamed {w[_W_JRN]} block file(s) into "
                    f"place but only {w[_W_STORED]} are durably stored "
                    f"(fsynced): a crash here leaves a committed block file "
                    f"missing tiles (the store must precede the rename)",
                    state,
                )
            if w[_W_DONE] > self._target(r, steal):
                self._violate(
                    "M407", ("over-execute", r),
                    f"rank {r} has executed {w[_W_DONE]} unit(s) but owns only "
                    f"{self._target(r, steal)} after the steal: a yielded block "
                    f"ran twice (origin and helper both produced it)",
                    state,
                )

    def _check_terminal(self, state) -> None:
        coord_state, workers, complete, inboxes, gather, telemetry, steal = state
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
                    # Stolen blocks are committed under the origin's name:
                    # resume replays them as the origin's own.
                    journal[0] += steal[_S_STOLEN]
                self.aborted_journals.add(tuple(journal))

    # -- the search ----------------------------------------------------------

    def explore(self, max_states: int = 1_000_000) -> None:
        init = _initial_state(self.sc)
        seen = {init}
        frontier = deque([init])
        self._parent[init] = None
        while frontier:
            state = frontier.popleft()
            self.states_explored += 1
            if self.states_explored > max_states:
                self._violate(
                    "M404", ("state-bound",),
                    f"state space exceeds {max_states} states: the model is not "
                    f"bounded over this scope (runaway queue or counter growth)",
                    state,
                )
                return
            self._check_invariants(state)
            succ = self.successors(state)
            if not succ:
                if state[0] in _TERMINAL_COORD:
                    self._check_terminal(state)
                else:
                    wstates = [w[_W_STATE] for w in state[1]]
                    self._violate(
                        "M401", ("deadlock", state[0], tuple(wstates)),
                        f"deadlock: coordinator {state[0]!r}, workers {wstates}, "
                        f"no transition enabled and the run is not terminal",
                        state,
                    )
                continue
            for label, nxt in succ:
                if nxt not in seen:
                    seen.add(nxt)
                    self._parent[nxt] = (state, label)
                    frontier.append(nxt)


@dataclass
class ModelCheckResult:
    """Outcome of one full protocol model check."""

    report: AnalysisReport
    scenarios: int = 0
    states: int = 0
    per_scenario: list[tuple[str, int]] = field(default_factory=list)
    #: Rows declared, and the ``(role, state, event)`` of those none fired.
    rows: int = 0
    unfired: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def summary(self) -> str:
        return (f"model check: {self.scenarios} scenario(s), "
                f"{self.states} state(s) explored, "
                f"rows fired {self.rows - len(self.unfired)} of {self.rows}, "
                f"{len(self.report.findings)} finding(s)")


def check_protocol(
    model: ProtocolModel,
    scenarios: list[Scenario] | None = None,
    *,
    max_states: int = 1_000_000,
) -> ModelCheckResult:
    """Exhaustively explore ``model`` over ``scenarios`` (default sweep).

    Abort faults under checkpointing additionally trigger a *resume*
    sub-run for every distinct vector of committed blocks an aborted
    terminal can leave behind (a committed steal's under the origin's
    name): the resumed run (same model, no fault, blocks kept) must
    itself pass every property — that is the static twin of
    ``selftest --resume``.
    """
    if scenarios is None:
        scenarios = default_scenarios()
    sink: dict = {}
    result = ModelCheckResult(report=AnalysisReport())
    queue = list(scenarios)
    seen_scenarios = set()
    fired: set = set()
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
        fired |= run.fired
        for journal in sorted(run.aborted_journals):
            queue.append(Scenario(
                nranks=sc.nranks, fault=None, checkpoint=True,
                initial_journal=journal,
            ))
    rows = [(role, tr.state, tr.event)
            for role, machine in model.machines.items() for tr in machine.transitions]
    result.rows = len(rows)
    result.unfired = [row for row in rows if row not in fired]
    for (rule, _key), (message, sc, trace) in sink.items():
        result.report.add(
            rule,
            f"{message}; scenario [{sc.label()}]; trace: {trace}",
            obj=f"protocol scenario {sc.label()}",
        )
    return result
