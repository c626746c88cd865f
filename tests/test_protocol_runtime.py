"""The declared protocol is the runtime's: one table, dispatched and enforced.

No process is started here.  `repro.dist.protocol` declares the wire
vocabulary and both role machines; these tests hold the places that
consume it to the declaration — the checker explores the *same objects*
the coordinator and the worker dispatch on, every row's action is a
handler of its role, every reply is classified live or stale by one
function, a message a role has no row for fails (the run or the attempt),
and an endpoint refuses what is not declared.
"""

import dataclasses
import os
import queue
import subprocess
import sys

import pytest

import repro.analysis
import repro.analysis.protocol
from repro.analysis.protocol import checker
from repro.core.inspector import inspect
from repro.dist import protocol
from repro.dist.comm import (
    COORDINATOR,
    DoneMsg,
    Endpoint,
    ErrorMsg,
    HeartbeatMsg,
    ProtocolError,
    ShutdownMsg,
)
from repro.dist.coordinator import (
    _LIVE,
    DistExecutionError,
    RunConfig,
    _Coordinator,
    execute_plan_distributed,
)
from repro.dist.pool import WorkerPool
from repro.dist.worker import WorkerReport, _Worker, worker_main
from repro.machine import summit
from repro.runtime.numeric import NumericStats
from repro.sparse import random_block_sparse
from repro.tiling import random_tiling

HANDLERS = {
    "complete_rank", "discard", "recover_rank", "fold_health", "abort_run",
}

#: What a worker's ``recv:`` rows name, all in ``worker_main``'s loop.
WORKER_HANDLERS = {"attach_and_restore"}


class TestOneDeclaration:
    def test_checker_explores_the_objects_the_runtime_dispatches_on(self):
        """Identity, not equality: there is no second copy to drift."""
        assert repro.analysis.PROTOCOL is protocol.PROTOCOL
        assert repro.analysis.protocol.PROTOCOL is protocol.PROTOCOL
        assert protocol.PROTOCOL.machine("coordinator") is _Coordinator.machine
        assert protocol.PROTOCOL.messages is protocol.MESSAGES
        assert all(protocol.WIRE[m.cls] is m for m in protocol.MESSAGES)

    def test_dist_loads_without_the_analysis_package(self):
        """The declaration lives in `repro.dist`; the checker imports it,
        never the other way round."""
        code = ("import sys, repro.dist; "
                "sys.exit(any(m.startswith('repro.analysis') for m in sys.modules))")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_every_action_is_a_coordinator_method_and_vice_versa(self):
        actions = {tr.action for tr in _Coordinator.machine.transitions if tr.action}
        assert actions == HANDLERS
        assert all(callable(getattr(_Coordinator, name)) for name in actions)

    def test_the_checker_has_one_effect_per_action_of_both_machines(self):
        """The checker's effects and the runtime's methods share one vocabulary."""
        actions = {
            tr.action for machine in protocol.PROTOCOL.machines.values()
            for tr in machine.transitions if tr.action
        }
        assert set(checker._EFFECTS) == actions

    def test_every_message_class_is_a_dist_dataclass(self):
        for spec in protocol.MESSAGES:
            assert dataclasses.is_dataclass(spec.cls), spec.name
            assert spec.cls.__module__.startswith("repro.dist."), spec.name
        assert len(protocol.WIRE) == len(protocol.MESSAGES)  # one class, one name

    def test_every_reply_has_a_liveness_rule(self):
        replies = {m.name for m in protocol.MESSAGES if m.dst == "coordinator"}
        assert set(_LIVE) == replies

    def test_shutdown_is_declared_and_ends_an_idle_worker(self):
        spec = protocol.WIRE[ShutdownMsg]
        assert (spec.src, spec.dst, spec.channel) == ("coordinator", "worker", "data")
        worker = protocol.WORKER_MACHINE
        for state in ("idle", "idle_done"):
            assert worker.on(state, "recv:shutdown").next_state == "exited"

    def test_every_worker_recv_action_is_dispatched_and_vice_versa(self):
        recv = [tr for tr in protocol.WORKER_MACHINE.transitions
                if tr.event.startswith("recv:")]
        assert {tr.action for tr in recv if tr.action} == WORKER_HANDLERS
        # A running worker reads no inbox: the plan it runs is static.
        assert not [tr for tr in recv if tr.state == "running"]
        methods = {name for name, v in vars(_Worker).items()
                   if callable(v) and not name.startswith("_")}
        assert methods - {"fire"} == WORKER_HANDLERS

    def test_a_pooled_worker_takes_its_next_job_in_idle_done(self):
        row = protocol.WORKER_MACHINE.on("idle_done", "recv:scatter")
        first = protocol.WORKER_MACHINE.on("idle", "recv:scatter")
        assert (row.next_state, row.sends, row.action) == (
            first.next_state, first.sends, first.action
        )


def _fabric():
    inboxes, gather, telemetry = [queue.Queue()], queue.Queue(), queue.Queue()
    return [
        Endpoint(rank=r, inboxes=inboxes, gather=gather, telemetry=telemetry)
        for r in (COORDINATOR, 0)
    ]


class TestEndpointRefusals:
    def test_undeclared_class_is_refused(self):
        @dataclasses.dataclass(frozen=True)
        class GoodbyeMsg:
            rank: int

        coord, worker = _fabric()
        with pytest.raises(ProtocolError, match="undeclared message class GoodbyeMsg"):
            worker.send(COORDINATOR, GoodbyeMsg(0))
        assert not worker.link_bytes and worker.gather.empty()

    def test_wrong_sender_role_is_refused(self):
        coord, worker = _fabric()
        with pytest.raises(ProtocolError, match="coordinator -> worker"):
            worker.send(COORDINATOR, ShutdownMsg())
        assert coord.send(0, ShutdownMsg()) > 0

    def test_wrong_channel_is_refused(self):
        coord, worker = _fabric()
        done = DoneMsg(0, WorkerReport(0, 0, NumericStats(), c_index={}))
        with pytest.raises(ProtocolError, match=r"\[data\]"):
            worker.send_telemetry(done)
        with pytest.raises(ProtocolError, match=r"\[telemetry\]"):
            worker.send(COORDINATOR, HeartbeatMsg(0, 0, 0, 0))
        assert worker.send(COORDINATOR, done) > 0
        assert worker.send_telemetry(HeartbeatMsg(0, 0, 0, 0)) > 0

    def test_builtin_payloads_are_not_messages(self):
        """The fabric's accounting tests and the benchmark's ping send raw
        tuples; no role machine has a row for one, so no rule is bent."""
        coord, worker = _fabric()
        assert coord.send(0, ("ping", 1)) > 0
        assert worker.recv(timeout=1)[1] == ("ping", 1)


@pytest.fixture
def run():
    """A coordinator over a 2-rank plan, set up but never scattered: the
    live attempt of each rank is 0."""
    rows = random_tiling(60, 10, 20, seed=0)
    inner = random_tiling(120, 10, 20, seed=1)
    a = random_block_sparse(rows, inner, 0.8, seed=2)
    b = random_block_sparse(inner, inner, 0.8, seed=3)
    plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2)
    coordinator = _Coordinator(plan, a, b, None, 1.0, 1.0, RunConfig(heartbeat_interval=0.0))
    try:
        yield coordinator
    finally:
        coordinator.teardown()


def _done(rank, attempt):
    return DoneMsg(rank, WorkerReport(rank, attempt, NumericStats(), c_index={}))


class TestEventOf:
    @pytest.mark.parametrize("msg,event", [
        (_done(0, 0), "recv:done"),
        (_done(0, 7), "recv:done:stale"),
        (ErrorMsg(0, 0, "tb"), "recv:error"),
        (ErrorMsg(0, -1, "tb"), "recv:error"),  # failed before any scatter
        (ErrorMsg(0, 7, "tb"), "recv:error:stale"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_reply_is_live_or_stale(self, run, msg, event):
        assert run.event_of(msg) == event
        assert run.machine.on("supervising", event) is not None

    def test_finished_rank_makes_every_later_reply_stale(self, run):
        run.pending.discard(0)
        for msg in (_done(0, 0), ErrorMsg(0, 0, "tb")):
            assert run.event_of(msg).endswith(":stale")

    def test_an_earlier_jobs_reply_on_the_same_pool_is_stale(self, run):
        """The pool numbers attempts over its life: the second job's rank 0
        runs attempt 1, so the first job's attempt-0 report is not its own
        even when it arrives late, after that job has ended."""
        pool = WorkerPool(2)
        try:
            first = _Coordinator(run.plan, run.a, run.b, None, 1.0, 1.0,
                                 RunConfig(heartbeat_interval=0.0, pool=pool))
            second = _Coordinator(run.plan, run.a, run.b, None, 1.0, 1.0,
                                  RunConfig(heartbeat_interval=0.0, pool=pool))
            assert (first.live_attempt(0), second.live_attempt(0)) == (0, 1)
            assert first.event_of(_done(0, 0)) == "recv:done"
            assert second.event_of(_done(0, 0)) == "recv:done:stale"
            assert second.event_of(_done(0, 1)) == "recv:done"
        finally:
            pool.close()

    def test_what_no_worker_may_send_is_not_an_event(self, run):
        for msg in (("done", 0, None), ShutdownMsg()):
            with pytest.raises(DistExecutionError, match="unexpected message"):
                run.event_of(msg)


class TestFire:
    def test_state_follows_the_table(self, run):
        assert run.state == "supervising"
        run.fire("obs:all_done")
        assert run.state == "draining"
        run.fire("obs:drained")
        assert run.state == "done"

    def test_stale_reply_goes_to_discard(self, run, monkeypatch):
        seen = []
        monkeypatch.setattr(run, "discard", seen.append)
        stale = _done(0, 7)
        run.fire(run.event_of(stale), stale)
        assert seen == [stale] and 0 in run.pending

    def test_no_row_no_run(self, run):
        """M402 at runtime: a reply the table has no row for fails the run."""
        run.fire("obs:all_done")
        with pytest.raises(DistExecutionError, match="'draining' has no transition"):
            run.fire("recv:done", _done(0, 0))

    def test_mutated_table_is_convicted_at_dispatch(self, run):
        run.machine = protocol.PROTOCOL.without(
            "coordinator", "supervising", "recv:done"
        ).machine("coordinator")
        with pytest.raises(DistExecutionError, match="no transition for 'recv:done'"):
            run.fire(run.event_of(_done(0, 0)), _done(0, 0))
        assert 0 in run.pending  # nothing was credited


def _worker_replies(*msgs):
    """Run a pooled ``worker_main`` (started ahead of its scatter: nothing
    ``os._exit``s) over an inbox holding ``msgs``; what it sent the
    coordinator, in order."""
    coord, worker = _fabric()
    for msg in msgs:
        coord.send(0, msg)
    worker_main(0, worker)
    replies = []
    while not worker.gather.empty():
        replies.append(coord.recv(timeout=1)[1])
    return replies


class TestWorkerTable:
    """The worker runs WORKER_MACHINE: a message its state has no row for
    fails the attempt (M402 at runtime) instead of being dropped or run."""

    def test_an_undeclared_payload_fails_naming_the_row(self):
        """The fabric carries a builtin payload; no worker row takes one."""
        [reply] = _worker_replies(("ping", 1))
        assert isinstance(reply, ErrorMsg) and reply.attempt == -1
        assert "state 'idle' has no transition for 'recv:tuple'" in reply.traceback

    def test_shutdown_returns_with_nothing_sent(self):
        assert _worker_replies(ShutdownMsg()) == []

class TestRunConfig:
    def test_public_keywords_are_the_config_fields(self):
        fields = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        assert fields == dict(
            fault_plan=None, timeout=120.0, verify_plan=False, trace=True,
            heartbeat_interval=0.25, stall_after_beats=8,
            metrics=True, events_path=None,
            checkpoint_dir=None, store_dir=None, pool=None, run_id=None,
        )

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="no_such_knob"):
            execute_plan_distributed(None, None, None, no_such_knob=1)
