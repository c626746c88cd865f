"""Unit tests for live run health (:mod:`repro.dist.health`).

Everything here drives :class:`RunHealth` with a synthetic clock — no
processes, no sleeping — so the stall window, startup grace, straggler
median and the state machine are checked deterministically.  The event
log and the ``replay_health`` reconstruction (what ``repro monitor``
attaches through) round-trip through a real file.
"""

import json

import numpy as np
import pytest

from repro.dist import (
    EventLog,
    HeartbeatMsg,
    RunHealth,
    read_events,
    replay_health,
)
from repro.dist.health import STARTUP_GRACE_SECONDS
from repro.store.tilestore import TileStore, read_store_stats


def _one_record_log(tmp_path, log):
    """``(path, count)``: a JSONL log of kind ``log`` holding one record, and
    how many records its reader returns."""
    root = str(tmp_path)
    if log == "events":
        path = str(tmp_path / "run-events.jsonl")
        with open(path, "wb") as fh:
            fh.write(json.dumps({"t": 1.0, "event": "done"}).encode() + b"\n")
        return path, lambda: len(read_events(path))
    store = TileStore(root)
    try:
        store.put("ns", (0,), np.ones((2, 2)))
    finally:
        store.close()
    return store.stats_path, lambda: read_store_stats(root).puts


def _health(**kwargs):
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("stall_after_beats", 4)
    return RunHealth(**kwargs)


def _beat(health, rank, seq, tasks_done, now, attempt=0):
    return health.on_heartbeat(
        HeartbeatMsg(rank=rank, attempt=attempt, seq=seq, tasks_done=tasks_done),
        now=now,
    )


class TestStateMachine:
    def test_scatter_then_beats_walk_states(self):
        h = _health()
        h.on_scatter(0, tasks_total=10, attempt=0, now=0.0)
        assert h.ranks[0].state == "scattered"
        assert _beat(h, 0, seq=0, tasks_done=0, now=0.05)
        assert h.ranks[0].state == "up"
        assert _beat(h, 0, seq=1, tasks_done=3, now=0.15)
        assert h.ranks[0].state == "running"
        assert h.ranks[0].progress == pytest.approx(0.3)
        assert h.heartbeats == 2

    def test_stale_attempt_beat_discarded(self):
        h = _health()
        h.on_scatter(0, tasks_total=10, attempt=1, now=0.0)
        assert not _beat(h, 0, seq=5, tasks_done=9, now=0.1, attempt=0)
        assert h.ranks[0].beats == 0

    def test_unknown_rank_beat_discarded(self):
        h = _health()
        assert not _beat(h, 7, seq=0, tasks_done=0, now=0.0)

    def test_terminal_state_beat_discarded(self):
        # Regression: a heartbeat drained *after* the rank's final report
        # must not resurrect the rank to "up": ``done`` / ``reassigned`` /
        # ``failed`` are terminal, and a late beat is discarded.
        h = _health()
        h.on_scatter(0, tasks_total=10, attempt=0, now=0.0)
        _beat(h, 0, seq=0, tasks_done=0, now=0.05)
        h.mark(0, "done")
        assert not _beat(h, 0, seq=1, tasks_done=10, now=0.1)
        assert h.ranks[0].state == "done"
        for terminal in ("reassigned", "failed"):
            h.mark(0, terminal)
            assert not _beat(h, 0, seq=2, tasks_done=10, now=0.2)

    def test_rescatter_resets_attempt_but_keeps_stall_count(self):
        h = _health()
        h.on_scatter(1, tasks_total=8, attempt=0, now=0.0)
        _beat(h, 1, seq=0, tasks_done=2, now=0.1)
        h.mark(1, "stalled")
        assert h.ranks[1].stalls == 1
        h.on_scatter(1, tasks_total=8, attempt=1, now=1.0)
        rh = h.ranks[1]
        assert rh.attempt == 1
        assert rh.state == "scattered"
        assert rh.beats == 0 and rh.tasks_done == 0
        assert rh.stalls == 1  # the run-level stall history survives

    def test_progress_with_zero_planned_tasks(self):
        h = _health()
        h.on_scatter(0, tasks_total=0, attempt=0, now=0.0)
        assert h.ranks[0].progress == 0.0
        h.mark(0, "done")
        assert h.ranks[0].progress == 1.0

    def test_rate_is_tasks_per_second_since_first_beat(self):
        h = _health()
        h.on_scatter(0, tasks_total=100, attempt=0, now=0.0)
        assert h.ranks[0].rate(5.0) == 0.0  # no beat yet
        _beat(h, 0, seq=0, tasks_done=0, now=1.0)
        _beat(h, 0, seq=1, tasks_done=20, now=3.0)
        assert h.ranks[0].rate(3.0) == pytest.approx(10.0)
        assert h.ranks[0].rate(1.0) == 0.0  # degenerate elapsed <= 0


class TestStallDetection:
    def test_silence_past_window_flags_rank(self):
        h = _health()  # window = 4 * 0.1 = 0.4 s
        h.on_scatter(0, tasks_total=10, attempt=0, now=0.0)
        _beat(h, 0, seq=0, tasks_done=1, now=0.1)
        assert h.stalled_ranks(now=0.4, pending=[0]) == []
        assert h.stalled_ranks(now=0.51, pending=[0]) == [0]

    def test_startup_grace_widens_window_before_first_beat(self):
        h = _health()
        h.on_scatter(0, tasks_total=10, attempt=0, now=0.0)
        # No beat yet: the plain window must NOT flag (spawn takes time)...
        assert h.stalled_ranks(now=0.5, pending=[0]) == []
        # ...but silence beyond window + grace does.
        assert h.stalled_ranks(now=0.4 + STARTUP_GRACE_SECONDS + 0.01,
                               pending=[0]) == [0]

    def test_only_pending_ranks_checked(self):
        h = _health()
        for r in (0, 1):
            h.on_scatter(r, tasks_total=10, attempt=0, now=0.0)
        assert h.stalled_ranks(now=100.0, pending=[1]) == [1]

    def test_terminal_ranks_never_stall(self):
        h = _health()
        h.on_scatter(0, tasks_total=10, attempt=0, now=0.0)
        h.mark(0, "done")
        assert h.stalled_ranks(now=100.0, pending=[0]) == []

    def test_disabled_without_heartbeats(self):
        h = RunHealth(heartbeat_interval=0.0)
        assert not h.enabled
        h.on_scatter(0, tasks_total=10, attempt=0, now=0.0)
        assert h.stalled_ranks(now=1e9, pending=[0]) == []


class TestStragglerDetection:
    def _three_ranks(self, rates, now=10.0):
        h = _health(straggler_fraction=0.25)
        for r, tasks in enumerate(rates):
            h.on_scatter(r, tasks_total=100, attempt=0, now=0.0)
            _beat(h, r, seq=0, tasks_done=0, now=0.0)
            _beat(h, r, seq=1, tasks_done=tasks, now=now)
        return h

    def test_slow_rank_flagged_against_median(self):
        # Rates 10, 10, 1 tasks/s: median 10, threshold 2.5 -> rank 2 lags.
        h = self._three_ranks([100, 100, 10])
        assert h.straggler_ranks(now=10.0) == [2]

    def test_needs_three_active_ranks(self):
        h = self._three_ranks([100, 1])
        assert h.straggler_ranks(now=10.0) == []

    def test_done_ranks_anchor_median(self):
        # A finished fast rank keeps contributing its final rate to the
        # median, so the slow rank stays flagged after the field thins —
        # exactly when the rebalancer has an idle helper to offer.
        h = self._three_ranks([100, 100, 10])
        h.mark(0, "done")
        assert h.straggler_ranks(now=10.0) == [2]

    def test_all_done_flags_nothing(self):
        h = self._three_ranks([100, 100, 10])
        for r in range(3):
            h.mark(r, "done")
        assert h.straggler_ranks(now=10.0) == []

    def test_zero_median_is_noise(self):
        h = self._three_ranks([0, 0, 0])
        assert h.straggler_ranks(now=10.0) == []

    def test_windowed_rate_decays_for_fast_then_hung_rank(self):
        # Rank 2 races through 90 tasks, then hangs on a huge block while
        # still heartbeating.  Its lifetime average would coast above the
        # threshold; the windowed rate collapses within rate_window beats.
        h = _health(straggler_fraction=0.25)
        for r in range(3):
            h.on_scatter(r, tasks_total=100, attempt=0, now=0.0)
            h.ranks[r].rate_window = 4
        for beat in range(1, 21):
            now = float(beat)
            for r in (0, 1):
                _beat(h, r, seq=beat, tasks_done=5 * beat, now=now)
            _beat(h, 2, seq=beat, tasks_done=min(90, 9 * beat), now=now)
        # Lifetime average of rank 2 is 90/20 = 4.5 > 0.25 * 5; the
        # 4-beat window has seen no progress at all.
        assert h.ranks[2].rate(20.0) == 0.0
        assert h.straggler_ranks(now=20.0) == [2]

    def test_flagged_straggler_does_not_flicker_back_on_a_beat(self):
        h = self._three_ranks([100, 100, 10])
        assert h.straggler_ranks(now=10.0) == [2]
        h.mark(2, "straggler")
        _beat(h, 2, seq=2, tasks_done=11, now=10.5)
        assert h.ranks[2].state == "straggler"  # still below threshold
        h.mark(2, "running")  # the detector's recovery path clears it
        assert h.ranks[2].state == "running"

    def test_rate_window_is_trimmed(self):
        h = _health()
        h.on_scatter(0, tasks_total=100, attempt=0, now=0.0)
        h.ranks[0].rate_window = 3
        for beat in range(10):
            _beat(h, 0, seq=beat, tasks_done=beat, now=float(beat))
        assert len(h.ranks[0].samples) == 3
        assert h.ranks[0].samples[0] == (7.0, 7)

    def test_beatless_done_ranks_still_anchor_median(self):
        # Regression: ranks 0 and 1 finish before their first heartbeat
        # ever fires.  Without the synthesized baseline in on_done their
        # rate was 0.0 (one sample, zero elapsed), the median collapsed,
        # and the genuinely slow rank 2 was never flagged — exactly the
        # moment two idle helpers were available to take its blocks.
        h = _health(straggler_fraction=0.25)
        for r in range(3):
            h.on_scatter(r, tasks_total=100, attempt=0, now=0.0)
        h.on_done(0, now=1.0)
        h.on_done(1, now=1.0)
        _beat(h, 2, seq=0, tasks_done=0, now=0.0)
        _beat(h, 2, seq=1, tasks_done=10, now=10.0)
        # the anchor is the done rank's *final* rate, frozen at its
        # last signal: 100 tasks in 1s
        assert h.ranks[0].rate(h.ranks[0].last_signal) == pytest.approx(100.0)
        assert h.straggler_ranks(now=10.0) == [2]

    def test_flag_recover_reflag_lifecycle(self):
        # A rank that recovers (coordinator clears the flag and marks it
        # running) must be flaggable *again* if it slows back down — the
        # old set-once bookkeeping silenced every later excursion.
        h = _health(straggler_fraction=0.25)
        for r in range(3):
            h.on_scatter(r, tasks_total=100, attempt=0, now=0.0)
            h.ranks[r].rate_window = 3

        def tick(beat, slow_tasks):
            now = float(beat)
            for r in (0, 1):
                _beat(h, r, seq=beat, tasks_done=10 * beat, now=now)
            _beat(h, 2, seq=beat, tasks_done=slow_tasks, now=now)
            return now

        # slow phase: 1 task/beat against the field's 10 -> flagged
        for beat in range(1, 5):
            now = tick(beat, slow_tasks=beat)
        assert h.straggler_ranks(now=now) == [2]
        h.mark(2, "straggler")
        # recovery: three fast beats push the 3-beat window to 10/s
        for beat, tasks in ((5, 14), (6, 24), (7, 34)):
            now = tick(beat, slow_tasks=tasks)
        assert h.straggler_ranks(now=now) == []
        h.mark(2, "running")  # the coordinator's recovery path
        # relapse: the window decays again and the re-flag fires
        for beat, tasks in ((8, 35), (9, 36), (10, 37)):
            now = tick(beat, slow_tasks=tasks)
        assert h.straggler_ranks(now=now) == [2]

    def test_rescatter_clears_straggler_state(self):
        # A flagged rank that is retried gets a fresh RankHealth: the new
        # attempt starts from "scattered", not from the stale flag.
        h = self._three_ranks([100, 100, 10])
        h.mark(2, "straggler")
        h.on_scatter(2, tasks_total=100, attempt=1, now=10.0)
        assert h.ranks[2].state == "scattered"
        assert h.straggler_ranks(now=10.0) == []


class TestTable:
    def test_renders_every_rank(self):
        h = _health()
        for r in (0, 1):
            h.on_scatter(r, tasks_total=5, attempt=0, now=0.0)
        _beat(h, 0, seq=0, tasks_done=2, now=0.2)
        text = h.table(now=1.0)
        lines = text.splitlines()
        assert len(lines) == 3  # header + two ranks
        assert "rank" in lines[0] and "state" in lines[0]
        assert "up" in lines[1] or "running" in lines[1]
        assert "scattered" in lines[2]

    def test_empty_health(self):
        assert RunHealth().table() == "(no ranks)"


class TestEventLog:
    def test_none_path_disables(self):
        log = EventLog(None)
        log.emit("heartbeat", rank=0)
        assert log.path is None  # nothing is written ...
        assert log.total("heartbeat") == 1  # ... the record still counts
        log.close()

    def test_emit_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "run-events.jsonl")
        log = EventLog(path)
        log.emit("plan_accepted", nranks=2)
        log.emit("heartbeat", rank=0, seq=1)
        log.close()
        events = read_events(path)
        assert [e["event"] for e in events] == ["plan_accepted", "heartbeat"]
        assert events[1]["rank"] == 0
        assert all("t" in e for e in events)

    def test_flush_per_emit_visible_to_tailer(self, tmp_path):
        # The monitor attaches while the run is live: every emit must be
        # durable immediately, not buffered until close().
        path = str(tmp_path / "run-events.jsonl")
        log = EventLog(path)
        log.emit("plan_accepted", nranks=1)
        assert len(read_events(path)) == 1
        log.close()

    def test_torn_trailing_line_skipped(self, tmp_path):
        path = str(tmp_path / "run-events.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"t": 1.0, "event": "heartbeat", "rank": 0}) + "\n")
            fh.write('{"t": 2.0, "event": "hea')  # coordinator died mid-write
        events = read_events(path)
        assert len(events) == 1

    @pytest.mark.parametrize("log", ["events", "store-stats"])
    def test_torn_multibyte_tail_skipped(self, tmp_path, log):
        # A SIGKILL can land mid-UTF-8-sequence; the partial bytes must
        # not poison the whole file (UnicodeDecodeError), only the line.
        # Both JSONL logs share one reader, so both shrug.
        path, count = _one_record_log(tmp_path, log)
        with open(path, "ab") as fh:
            fh.write('{"t": 2.0, "label": "café'.encode("utf-8")[:-1])
        assert count() == 1

    def test_non_dict_json_line_skipped(self, tmp_path):
        path = str(tmp_path / "run-events.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"t": 1.0, "event": "done"}) + "\n")
            fh.write("42\n")           # valid JSON, not an event record
            fh.write('"surprise"\n')
        assert len(read_events(path)) == 1


class TestReplay:
    def _log(self, tmp_path, emits):
        path = str(tmp_path / "run-events.jsonl")
        log = EventLog(path)
        for event, fields in emits:
            log.emit(event, **fields)
        log.close()
        return read_events(path)

    def test_replay_rebuilds_rank_table(self, tmp_path):
        events = self._log(tmp_path, [
            ("plan_accepted", dict(nranks=2, heartbeat_interval=0.1,
                                   tasks_per_rank={"0": 6, "1": 4})),
            ("scatter", dict(rank=0, attempt=0, tasks_total=6)),
            ("scatter", dict(rank=1, attempt=0, tasks_total=4)),
            ("heartbeat", dict(rank=0, attempt=0, seq=0, tasks_done=0)),
            ("heartbeat", dict(rank=0, attempt=0, seq=1, tasks_done=3)),
            ("heartbeat", dict(rank=1, attempt=0, seq=0, tasks_done=0)),
            ("rank_done", dict(rank=0, attempt=0, tasks=6)),
        ])
        health = replay_health(events)
        assert health.heartbeat_interval == 0.1
        assert health.ranks[0].state == "done"
        assert health.ranks[0].tasks_done == 6
        assert health.ranks[1].state == "up"
        assert health.ranks[1].tasks_total == 4
        assert health.heartbeats == 3

    def test_replay_stall_retry_reassign_excursion(self, tmp_path):
        events = self._log(tmp_path, [
            ("plan_accepted", dict(nranks=1, heartbeat_interval=0.1,
                                   tasks_per_rank={"1": 8})),
            ("scatter", dict(rank=1, attempt=0, tasks_total=8)),
            ("heartbeat", dict(rank=1, attempt=0, seq=0, tasks_done=2)),
            ("stall", dict(rank=1, attempt=0, silent_seconds=0.6)),
            ("retry", dict(rank=1, attempt=0, reason="stalled")),
            ("scatter", dict(rank=1, attempt=1, tasks_total=8)),
            ("stall", dict(rank=1, attempt=1, silent_seconds=0.6)),
            ("reassign", dict(rank=1, attempt=2)),
        ])
        health = replay_health(events)
        rh = health.ranks[1]
        assert rh.state == "reassigned"
        assert rh.stalls == 2
        assert rh.tasks_total == 8  # carried across the rescatter
        # And the reconstructed view renders (the monitor's whole job).
        assert "reassigned" in health.table(now=events[-1]["t"])

    def test_replay_shrinks_a_rebalanced_rank(self, tmp_path):
        """Blocks a straggler gave away leave its denominator, in this
        attempt (``relinquished``) and in a retry (net ``scatter`` total)."""
        events = self._log(tmp_path, [
            ("plan_accepted", dict(nranks=1, heartbeat_interval=0.1,
                                   tasks_per_rank={"0": 245})),
            ("scatter", dict(rank=0, attempt=0, tasks_total=245)),
            ("relinquished", dict(rank=0, attempt=0, blocks=5, tasks=198)),
            ("rank_done", dict(rank=0, attempt=0, tasks=47)),
        ])
        rh = replay_health(events).ranks[0]
        assert (rh.tasks_done, rh.tasks_total, rh.progress) == (47, 47, 1.0)
        events += self._log(tmp_path, [
            ("retry", dict(rank=0, attempt=0, reason="killed")),
            ("scatter", dict(rank=0, attempt=1, tasks_total=47)),
        ])
        assert replay_health(events).ranks[0].tasks_total == 47

    def test_replay_clears_a_recovered_straggler_and_closes_the_rate(self, tmp_path):
        """The replayed table is the live one: ``straggler_recovered`` puts
        the rank back to ``running`` (it used to stay ``straggler`` until
        ``rank_done``), and a finished rank carries the closing ``(t,
        tasks_total)`` sample its frozen rate is read from."""
        events = self._log(tmp_path, [
            ("plan_accepted", dict(nranks=1, heartbeat_interval=0.1,
                                   tasks_per_rank={"0": 10})),
            ("scatter", dict(rank=0, attempt=0, tasks_total=10)),
            ("heartbeat", dict(rank=0, attempt=0, seq=0, tasks_done=2)),
            ("straggler", dict(rank=0)),
            ("straggler_recovered", dict(rank=0)),
            ("rank_done", dict(rank=0, attempt=0, tasks=10)),
        ])
        assert replay_health(events[:4]).ranks[0].state == "straggler"
        assert replay_health(events[:5]).ranks[0].state == "running"
        rh = replay_health(events).ranks[0]
        assert rh.state == "done"
        assert rh.samples[-1] == (events[-1]["t"], 10)
        assert rh.last_signal == events[-1]["t"]
        assert rh.rate(rh.last_signal) > 0.0

    def test_replay_is_the_fold_the_log_ran_live(self, tmp_path):
        """One ``apply``: the health an ``EventLog`` folds its records into
        as it emits them is the health ``replay_health`` rebuilds from the
        file, and the log's tallies are the counts / sums of its records."""
        live = RunHealth()
        path = str(tmp_path / "run-events.jsonl")
        log = EventLog(path, health=live)
        log.emit("plan_accepted", nranks=2, heartbeat_interval=0.1,
                 tasks_per_rank={0: 8, 1: 8})
        for rank in (0, 1):
            log.emit("scatter", rank=rank, attempt=0, tasks_total=8)
            log.emit("heartbeat", rank=rank, attempt=0, seq=0, tasks_done=1)
        log.emit("stall", rank=1, attempt=0, silent_seconds=0.5)
        log.emit("retry", rank=1, attempt=1, reason="stalled")
        log.emit("scatter", rank=1, attempt=1, tasks_total=8)
        log.emit("relinquished", rank=0, attempt=0, blocks=2, tasks=5)
        log.emit("handoff", handoff=0, origin=0, helper=1, blocks=2, tasks=5)
        log.emit("handoff", handoff=1, origin=0, helper=None, blocks=1, tasks=2)
        log.emit("rank_done", rank=0, attempt=0, tasks=3)
        log.emit("reassign", rank=1, attempt=3)
        log.close()
        replayed = replay_health(read_events(path))
        for rank, rh in live.ranks.items():
            for name in ("state", "attempt", "beats", "seq", "tasks_done",
                         "tasks_total", "stalls"):
                assert getattr(replayed.ranks[rank], name) == getattr(rh, name)
        assert (live.ranks[0].state, live.ranks[0].tasks_total) == ("done", 3)
        assert (live.ranks[1].state, live.ranks[1].stalls) == ("reassigned", 1)
        assert live.ranks[1].progress == 1.0  # the spare ran it to its end
        assert log.total("heartbeat") == live.heartbeats == 2
        assert log.total("handoff") == 2
        assert log.total("handoff", "blocks") == 3
        assert log.total("handoff", "tasks") == 7
        assert log.total("no_such_event") == 0

    def test_replay_tolerates_malformed_fields(self, tmp_path):
        # A record with the right event name but a garbage payload (hand
        # edits, version skew) must degrade to "skip that event", not
        # crash the monitor attached to a live run.
        events = self._log(tmp_path, [
            ("plan_accepted", dict(nranks=1, heartbeat_interval=0.1,
                                   tasks_per_rank={"0": 4})),
            ("scatter", dict(rank=0, attempt=0, tasks_total=4)),
            ("heartbeat", dict(rank="bogus", attempt=0, seq=0)),
            ("heartbeat", dict(rank=0, attempt=0, seq=0, tasks_done=2)),
        ])
        health = replay_health(events)
        assert health.ranks[0].tasks_done == 2
        assert health.heartbeats == 1

    def test_replay_tolerates_unknown_events(self, tmp_path):
        events = self._log(tmp_path, [
            ("plan_accepted", dict(nranks=1, heartbeat_interval=0.1,
                                   tasks_per_rank={"0": 2})),
            ("straggler", dict(rank=0)),
            ("some_future_event", dict(rank=0, detail="ignored")),
            ("done", dict(ntasks=2)),
        ])
        health = replay_health(events)
        assert health.ranks[0].state == "straggler"


class TestRunScopedEventLog:
    """Per-run event files: satellite fix for concurrent-run clobbering."""

    def test_run_id_scopes_path_and_stamps_records(self, tmp_path):
        from repro.dist import resolve_events_path, run_scoped_events_path

        base = str(tmp_path / "run-events.jsonl")
        log = EventLog(base, run_id="job-7")
        assert log.path == run_scoped_events_path(base, "job-7")
        assert log.path.endswith("run-events.job-7.jsonl")
        log.emit("plan_accepted", nranks=1)
        log.close()
        events = read_events(log.path)
        assert events and all(e["run"] == "job-7" for e in events)
        assert resolve_events_path(base, "job-7") == log.path

    def test_concurrent_runs_do_not_clobber(self, tmp_path):
        base = str(tmp_path / "run-events.jsonl")
        log_a = EventLog(base, run_id="a")
        log_b = EventLog(base, run_id="b")
        log_a.emit("plan_accepted", nranks=1)
        log_b.emit("plan_accepted", nranks=2)
        log_a.emit("done", ntasks=1)
        log_b.emit("done", ntasks=2)
        log_a.close()
        log_b.close()
        ev_a = read_events(log_a.path)
        ev_b = read_events(log_b.path)
        assert [e["run"] for e in ev_a] == ["a", "a"]
        assert [e["run"] for e in ev_b] == ["b", "b"]
        assert ev_b[0]["nranks"] == 2

    def test_read_events_filters_mixed_file_by_run(self, tmp_path):
        # A legacy shared file with interleaved runs: filtering recovers
        # one run's stream; unstamped legacy records pass through.
        path = str(tmp_path / "run-events.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"t": 1.0, "event": "x", "run": "a"}) + "\n")
            fh.write(json.dumps({"t": 2.0, "event": "y", "run": "b"}) + "\n")
            fh.write(json.dumps({"t": 3.0, "event": "legacy"}) + "\n")
        assert [e["event"] for e in read_events(path, run_id="a")] == [
            "x", "legacy"
        ]
        assert len(read_events(path)) == 3

    def test_resolve_prefers_base_then_newest_sibling(self, tmp_path):
        import os
        import time

        from repro.dist import resolve_events_path

        base = str(tmp_path / "run-events.jsonl")
        # No file at all: the base path comes back unchanged.
        assert resolve_events_path(base) == base
        old = str(tmp_path / "run-events.old.jsonl")
        new = str(tmp_path / "run-events.new.jsonl")
        for p in (old, new):
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"t": 1.0, "event": "done"}) + "\n")
        past = time.time() - 60
        os.utime(old, (past, past))
        # No run id: newest run-scoped sibling wins.
        assert resolve_events_path(base) == new
        # An existing base file wins over siblings.
        with open(base, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"t": 1.0, "event": "done"}) + "\n")
        assert resolve_events_path(base) == base

    def test_unscoped_log_stays_backward_compatible(self, tmp_path):
        path = str(tmp_path / "run-events.jsonl")
        log = EventLog(path)
        log.emit("done", ntasks=1)
        log.close()
        events = read_events(path)
        assert log.path == path
        assert events and "run" not in events[0]
