"""Live run health: heartbeats, stall detection, event log.

The post-mortem observability layer (:mod:`repro.runtime.tracing`) tells
you what happened *after* a run finishes; this module is the live layer —
what the coordinator knows *while* workers run, and the only signal that
can save a multi-hour allocation from a hung rank.

Two pieces, fed by the workers' :class:`~repro.dist.comm.HeartbeatMsg`:

* :class:`RunHealth` — the coordinator's aggregate: per-rank
  :class:`RankHealth` state machines, a *fold of the event log*
  (:meth:`RunHealth.apply`, run on every record emitted and, by
  :func:`replay_health`, on every record read back — the live table and
  ``repro monitor``'s cannot disagree).  One detector runs on it:
  **stall** — a rank whose last signal (scatter or heartbeat) is older
  than ``stall_after_beats * heartbeat_interval`` is declared stalled.
  The coordinator feeds that flag into the *same* fault-recovery path a
  crashed worker takes (retry once, then reassign), so a hung worker's
  columns are re-executed, not waited on.  Before a rank's first beat of
  an attempt the window is widened by a startup grace (process spawn +
  interpreter import can dwarf the heartbeat interval).  A slow rank gets
  no live verdict: the plan is static, so nothing would act on one;
  ``repro explain``'s audit names it from the run's trace.

* :class:`EventLog` — the run's one record, a structured stream of its
  life-cycle: ``plan_accepted``, ``worker_up``, ``heartbeat``, ``stall``,
  ``retry``, ``reassign``, ``rank_done``, and exactly one
  terminal record — ``done``, or ``aborted`` / ``failed`` with a
  ``reason`` (:data:`TERMINAL_EVENTS`).  Every record is folded into the
  health and tallied (the ``events`` rows of
  :data:`~repro.runtime.metrics.SERIES`: the coordinator's counters);
  given a path it is also a JSONL file (``run-events.jsonl``), append-only,
  one JSON object per line — the attach point for ``repro monitor`` and
  the artifact CI uploads when a distributed test fails.

Clock policy: detection runs on deltas of the run clock — its pool's,
which the :class:`EventLog` is handed and folds every record at; the single
wall-clock stamp per event only labels log lines for humans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass

from repro.dist.comm import HeartbeatMsg
from repro.util.jsonl import read_jsonl

#: The events that end a run's log; ``repro monitor --follow`` stops at one.
TERMINAL_EVENTS = ("done", "aborted", "failed")

#: Events that only move a rank to a state (:meth:`RunHealth.apply`).
_STATE_OF_EVENT = {
    "stall": "stalled",
    "retry": "retried",
}

#: Extra seconds granted before a rank's *first* heartbeat of an attempt
#: counts as missing (process spawn + import can dwarf the interval).
STARTUP_GRACE_SECONDS = 5.0


@dataclass
class RankHealth:
    """One rank's live state as the coordinator sees it.

    ``last_signal``/``first_beat`` are instants of the run clock;
    ``state`` walks ``scattered -> up -> running -> done`` with
    ``stalled``/``retried``/``reassigned``/``failed`` excursions.
    """

    rank: int
    tasks_total: int = 0
    state: str = "scattered"
    attempt: int = 0
    beats: int = 0
    seq: int = -1
    tasks_done: int = 0
    last_signal: float = 0.0
    first_beat: float | None = None
    stalls: int = 0

    @property
    def progress(self) -> float:
        """Fraction of the rank's planned tasks executed (0..1)."""
        if self.tasks_total <= 0:
            return 1.0 if self.state == "done" else 0.0
        return min(1.0, self.tasks_done / self.tasks_total)


class RunHealth:
    """Aggregated live health of one distributed run.

    A fold of the run's event records (:meth:`apply`); queried by the stall
    detector and rendered by :meth:`table` (the ``repro monitor`` view).
    Picklable — it rides inside :class:`DistReport` so post-mortem
    consumers see the final health picture too.
    """

    def __init__(self, heartbeat_interval: float = 0.0,
                 stall_after_beats: int = 8):
        self.heartbeat_interval = heartbeat_interval
        self.stall_after_beats = stall_after_beats
        self.ranks: dict[int, RankHealth] = {}

    @property
    def enabled(self) -> bool:
        return self.heartbeat_interval > 0.0

    def apply(self, record: dict, now: float) -> None:
        """Fold one event record in — the one way a run's health changes:
        its :class:`EventLog` calls it on every record emitted (``now`` = the
        run's clock), :func:`replay_health` on every one read back
        (``now`` = the logged ``t``)."""
        kind, rank = record.get("event"), record.get("rank")

        def num(name: str) -> int:
            return int(record.get(name, 0))

        if kind == "plan_accepted":
            self.heartbeat_interval = record.get("heartbeat_interval", 0.0)
            for r, total in (record.get("tasks_per_rank") or {}).items():
                self.on_scatter(int(r), int(total), attempt=0, now=now)
        elif kind in ("aborted", "failed"):
            # The run's terminal record: whatever had not finished never will.
            for rh in self.ranks.values():
                if rh.state not in ("done", "reassigned"):
                    rh.state = "failed"
        elif rank is None:
            return
        elif kind == "scatter":
            self.on_scatter(int(rank), num("tasks_total"), num("attempt"), now)
        elif kind == "heartbeat":
            self.on_heartbeat(
                HeartbeatMsg(int(rank), num("attempt"), num("seq"), num("tasks_done")),
                now,
            )
        elif kind == "rank_done":
            self.on_done(int(rank), now)
        elif kind in _STATE_OF_EVENT:
            self.mark(int(rank), _STATE_OF_EVENT[kind])
        elif kind == "reassign":
            # Logged once the inline spare has run the rank to its end.
            self.on_done(int(rank), now)
            self.mark(int(rank), "reassigned")

    def on_scatter(self, rank: int, tasks_total: int, attempt: int,
                   now: float) -> None:
        """A (re)scatter resets the rank's attempt-local signal state."""
        self.ranks[rank] = RankHealth(
            rank=rank,
            tasks_total=tasks_total,
            attempt=attempt,
            last_signal=now,
            stalls=self.ranks[rank].stalls if rank in self.ranks else 0,
        )

    def expects(self, hb: HeartbeatMsg) -> bool:
        """Whether ``hb`` is live: from the rank's current attempt (not a
        terminated one) and not racing the rank's final report."""
        rh = self.ranks.get(hb.rank)
        return (
            rh is not None and hb.attempt == rh.attempt
            and rh.state not in ("done", "reassigned", "failed")
        )

    def on_heartbeat(self, hb: HeartbeatMsg, now: float) -> bool:
        """Fold one heartbeat in; returns False for stale or late beats."""
        if not self.expects(hb):
            return False
        rh = self.ranks[hb.rank]
        rh.beats += 1
        rh.seq = max(rh.seq, hb.seq)
        rh.tasks_done = max(rh.tasks_done, hb.tasks_done)
        rh.last_signal = now
        if rh.first_beat is None:
            rh.first_beat = now
            rh.state = "up"
        if hb.tasks_done > 0 and rh.state == "up":
            rh.state = "running"
        return True

    def on_done(self, rank: int, now: float) -> None:
        """Fold a rank's final report in: all tasks done."""
        rh = self.ranks.get(rank)
        if rh is None:
            return
        rh.state = "done"
        rh.tasks_done = rh.tasks_total
        rh.last_signal = now

    def mark(self, rank: int, state: str) -> None:
        rh = self.ranks.get(rank)
        if rh is not None:
            rh.state = state
            if state == "stalled":
                rh.stalls += 1

    def stalled_ranks(self, now: float, pending) -> list[int]:
        """Ranks whose silence exceeds the missed-heartbeat window.

        ``pending`` restricts the check to ranks the coordinator is still
        waiting on.  Before a rank's first beat of the current attempt
        the window is widened by :data:`STARTUP_GRACE_SECONDS`.
        """
        if not self.enabled:
            return []
        window = self.stall_after_beats * self.heartbeat_interval
        out = []
        for rank in sorted(pending):
            rh = self.ranks.get(rank)
            if rh is None or rh.state in ("done", "reassigned", "failed"):
                continue
            allowed = window if rh.first_beat is not None else window + STARTUP_GRACE_SECONDS
            if now - rh.last_signal > allowed:
                out.append(rank)
        return out

    def table(self, now: float | None = None) -> str:
        """The per-rank health table ``repro monitor`` renders."""
        if not self.ranks:
            return "(no ranks)"
        lines = [
            f"{'rank':>4s} {'state':<10s} {'att':>3s} {'beats':>5s} "
            f"{'tasks':>11s} {'prog':>6s} {'silent':>7s}"
        ]
        for rank in sorted(self.ranks):
            rh = self.ranks[rank]
            silent = f"{now - rh.last_signal:6.1f}s" if now is not None else "     --"
            lines.append(
                f"{rank:>4d} {rh.state:<10s} {rh.attempt:>3d} {rh.beats:>5d} "
                f"{rh.tasks_done:>5d}/{rh.tasks_total:<5d} {rh.progress:>6.0%} "
                f"{silent}"
            )
        return "\n".join(lines)


def run_scoped_events_path(path: str, run_id: str) -> str:
    """The per-run event-log filename for a base path and a run id.

    ``run-events.jsonl`` + run ``r42`` becomes ``run-events.r42.jsonl``
    (the run id slots in before the extension); a path without a
    ``.jsonl`` suffix gets ``.<run_id>.jsonl`` appended.  Concurrent jobs
    each write their own file instead of clobbering one shared name.
    """
    if path.endswith(".jsonl"):
        return f"{path[:-len('.jsonl')]}.{run_id}.jsonl"
    return f"{path}.{run_id}.jsonl"


def resolve_events_path(path: str, run_id: str | None = None) -> str:
    """Pick the concrete event-log file a monitor should read.

    ``run_id`` selects that run's per-run file (``run-events.<id>.jsonl``)
    — unless ``path`` already names an existing file scoped to it.  With
    no run id, a ``path`` that exists wins (the classic single-run
    layout); otherwise the most recently modified per-run sibling is
    chosen, so ``repro monitor --follow`` attaches to the newest job of a
    serving pool without being told its id.  Falls back to ``path``
    verbatim when nothing matches yet (a monitor may start first).
    """
    import glob
    import os

    if run_id:
        scoped = run_scoped_events_path(path, run_id)
        if os.path.exists(path) and not os.path.exists(scoped):
            for ev in read_events(path):
                if ev.get("run") == run_id:
                    return path
        return scoped
    if os.path.exists(path):
        return path
    pattern = run_scoped_events_path(path, "*")
    siblings = glob.glob(pattern)
    if siblings:
        return max(siblings, key=os.path.getmtime)
    return path


class EventLog:
    """The run's one record: every life-cycle event, as it happens.

    ``emit`` builds the record ``{"t": <wall seconds>, "event": <kind>,
    ...fields}``, folds it into ``health`` at ``clock()`` — the run's clock,
    not one of the log's own (:meth:`RunHealth.apply`) — and
    tallies it (:meth:`total`); with a ``path`` it also appends it to a
    JSONL file, one object per line.  The coordinator is the only writer,
    so lines are never interleaved, and each ``emit`` flushes — a monitor
    tailing the file (or a human with ``tail -f``) sees events as they
    happen, and a crashed coordinator loses nothing.

    A ``run_id`` redirects the log to the per-run filename
    (:func:`run_scoped_events_path`) and stamps every record with a
    ``run`` field, so concurrent jobs sharing one events directory never
    clobber each other; ``path`` reports the file actually written.
    """

    def __init__(self, path: str | None, run_id: str | None = None,
                 health: RunHealth | None = None, clock=None):
        if path and run_id:
            path = run_scoped_events_path(path, run_id)
        self.path, self.run_id, self.health, self.clock = path, run_id, health, clock
        self._fh = open(path, "w", encoding="utf-8") if path else None  # repro: noqa[L308] - handle owned by the log, closed in close()
        #: event kind -> records so far.
        self.totals: Counter = Counter()

    def emit(self, event: str, **fields) -> None:
        record = {"t": time.time(), "event": event}  # repro: noqa[L306]
        if self.run_id:
            record["run"] = self.run_id
        record.update(fields)
        self.totals[event] += 1
        if self.health is not None:
            self.health.apply(record, self.clock())
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def total(self, event: str) -> int:
        """Records of kind ``event`` so far."""
        return self.totals[event]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_events(path: str, run_id: str | None = None) -> list[dict]:
    """Parse a ``run-events.jsonl`` file (skipping torn trailing lines).

    Crash consistency: a coordinator killed mid-``write`` leaves a torn
    final line, and a monitor replaying the log must shrug, not raise;
    :func:`~repro.util.jsonl.read_jsonl` skips it.

    Back-compat across the per-run split: legacy single-run logs (no
    ``run`` field) and per-run logs parse identically.  ``run_id``
    filters to one run's records; records without a ``run`` stamp pass
    the filter (a legacy log *is* its only run).
    """
    return [
        record for record in read_jsonl(path)
        if run_id is None or record.get("run", run_id) == run_id
    ]


def replay_health(events: list[dict]) -> RunHealth:
    """Rebuild a :class:`RunHealth` view from logged events.

    This is how ``repro monitor`` attaches to a run it does not own: the
    same :meth:`RunHealth.apply` the run folded each record through when
    it emitted it, over the records read back.  Wall timestamps in the log
    stand in for the run clock — fine for display,
    never used for detection.  Events whose fields do not parse (a
    half-flushed record from a killed coordinator) are skipped; replay
    never raises on a readable log.
    """
    health = RunHealth()
    for ev in events:
        try:
            health.apply(ev, ev.get("t", 0.0))
        except (TypeError, ValueError, KeyError):
            continue  # malformed fields in a torn/foreign record
    return health
