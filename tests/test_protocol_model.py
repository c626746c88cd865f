"""Protocol model checker: the real spec proves clean, mutations are caught.

The mutation tests are the subsystem's own soundness check: for each
protocol property there is a deliberately broken model (a dropped
transition, a reversed journal order, a starved queue budget) and the
checker must convict it with the right M4xx rule *and* a reproducing
trace — while the shipped spec passes every scope clean.
"""

from dataclasses import replace

import pytest

from repro.analysis.protocol import (
    PROTOCOL,
    FaultSpec,
    Scenario,
    check_protocol,
    default_scenarios,
)
from tests.findings import by_rule, rules_fired


@pytest.fixture(scope="module")
def model():
    return PROTOCOL


@pytest.fixture(scope="module")
def default_sweep(model):
    """The one default sweep (~5 s) every test of it shares."""
    return check_protocol(model)


def with_sends(model, role, state, event, sends):
    """``model`` with one row's ``sends`` replaced (a declaration mutant)."""
    machine = model.machine(role)
    rows = tuple(
        replace(tr, sends=sends) if (tr.state, tr.event) == (state, event) else tr
        for tr in machine.transitions
    )
    return replace(
        model, machines={**model.machines, role: replace(machine, transitions=rows)}
    )


class TestCleanProtocol:
    def test_default_sweep_is_clean(self, default_sweep):
        """The shipped protocol survives every small-scope fault schedule."""
        result = default_sweep
        assert result.ok, result.report.render()
        assert result.scenarios >= 40  # 2 ranks x ckpt x fault kinds + resumes
        assert result.states > 10_000  # genuinely exhaustive, not a smoke run

    def test_two_rank_fault_scope_is_explored(self, model):
        """The acceptance scope: 2 ranks x {fail, stall, abort} explicitly."""
        scenarios = [
            Scenario(2, FaultSpec(0, kind, 1, once=(kind != "abort")), ckpt)
            for kind in ("kill", "stall", "abort")
            for ckpt in (False, True)
        ]
        result = check_protocol(model, scenarios)
        assert result.ok, result.report.render()
        # abort+ckpt spawns resume sub-scenarios beyond the 6 requested
        assert result.scenarios > len(scenarios)
        assert any("resume=" in label for label, _ in result.per_scenario)

    def test_three_ranks_still_clean(self, model):
        result = check_protocol(model, [Scenario(3, FaultSpec(0, "kill", 1))])
        assert result.ok, result.report.render()

    def test_unfired_rows_are_the_ones_declared_not_explored(self, default_sweep):
        """The rows the sweep never fires are the six the table marks "Not
        explored"; a row that drops out of the sweep shows up here."""
        assert set(default_sweep.unfired) == {
            ("worker", "idle", "recv:shutdown"),
            ("worker", "idle_done", "recv:shutdown"),
            ("worker", "idle_done", "recv:scatter"),
            ("coordinator", "supervising", "recv:done:stale"),
            ("coordinator", "supervising", "recv:error:stale"),
            ("coordinator", "supervising", "recv:handoff_done:stale"),
        }
        assert "rows fired 30 of 36" in default_sweep.summary()


class TestDroppedAckMutation:
    """The ISSUE's seeded bug: drop the WorkerReport ack transition."""

    def test_deadlock_reported_with_trace(self, model):
        mutated = model.without("coordinator", "supervising", "recv:done")
        result = check_protocol(mutated, [Scenario(1), Scenario(2)])
        fired = rules_fired(result.report)
        assert "M401" in fired  # the run wedges: report sent, never consumed
        assert "M402" in fired  # the message reaches an ack-less machine
        deadlock = by_rule(result.report, "M401")[0]
        # The counterexample is an ordered message trace ending in the wedge.
        assert "trace:" in deadlock.message
        assert "->" in deadlock.message
        assert "send done" in deadlock.message
        assert "recv scatter" in deadlock.message.split("->")[0]

    def test_mutating_a_missing_edge_is_an_error(self, model):
        with pytest.raises(KeyError):
            model.without("coordinator", "supervising", "recv:nonsense")


class TestRecoveryMutations:
    def test_no_reassign_with_persistent_fault_loses_work(self, model):
        bad = replace(model, allow_reassign=False)
        sc = Scenario(1, FaultSpec(0, "kill", 1, once=False))
        result = check_protocol(bad, [sc])
        assert rules_fired(result.report) == {"M405"}
        assert "failed" in by_rule(result.report, "M405")[0].message

    def test_dropped_stale_heartbeat_discard_is_unhandled(self, model):
        """A retried rank's late beat must have a discard edge."""
        mutated = model.without(
            "coordinator", "supervising", "recv:heartbeat:stale"
        )
        sc = Scenario(1, FaultSpec(0, "stall", 1, once=True))
        result = check_protocol(mutated, [sc])
        assert "M402" in rules_fired(result.report)
        msg = by_rule(result.report, "M402")[0].message
        assert "recv:heartbeat:stale" in msg

    def test_dropped_worker_exit_observation_deadlocks(self, model):
        """Without the patrol, a silently dead rank wedges the run."""
        mutated = model.without(
            "coordinator", "supervising", "obs:worker_exit"
        )
        result = check_protocol(
            mutated, [Scenario(1, FaultSpec(0, "kill", 1, once=True))]
        )
        assert "M401" in rules_fired(result.report)


class TestDisciplineMutations:
    def test_journal_before_store_violates_m406(self, model):
        bad = replace(model, journal_after_store=False)
        result = check_protocol(bad, [Scenario(1, None, checkpoint=True)])
        assert "M406" in rules_fired(result.report)
        assert "store" in by_rule(result.report, "M406")[0].message

    def test_correct_journal_order_is_clean_under_faults(self, model):
        result = check_protocol(
            model,
            [Scenario(1, FaultSpec(0, "kill", 2, once=True), checkpoint=True)],
        )
        assert result.ok, result.report.render()

    def test_report_that_also_sends_error_orphans_it(self, model):
        """M403: a row may emit only what it declares, and the checker emits
        all of it — a report that also sends ``error`` leaves the final
        attempt's traceback queued when ``draining`` ends."""
        bad = with_sends(model, "worker", "running", "act:report", ("done", "error"))
        result = check_protocol(bad, [Scenario(1)])
        assert "M403" in rules_fired(result.report)
        orphan = by_rule(result.report, "M403")[0].message
        assert "'error'" in orphan and "send done" in orphan

    def test_starved_telemetry_budget_overflows(self, model):
        bad = replace(
            model, queue_budgets={**model.queue_budgets, "telemetry": 256}
        )
        result = check_protocol(bad, [Scenario(2)])
        assert "M404" in rules_fired(result.report)
        assert "telemetry" in by_rule(result.report, "M404")[0].message


class TestRebalanceModel:
    """The steal excursion: M407/M408 proven clean, mutations convicted."""

    def test_steal_scenarios_are_swept(self):
        steals = [sc for sc in default_scenarios() if sc.steal]
        assert len(steals) >= 10
        kinds = {sc.fault.kind for sc in steals if sc.fault is not None}
        assert kinds == {"kill", "stall", "raise", "abort"}

    def test_steal_label(self):
        sc = Scenario(2, FaultSpec(0, "kill", 1), steal=True)
        assert sc.label() == "ranks=2 fault=kill@r0u1 steal"

    def test_steal_with_faults_is_clean(self, model):
        """M407/M408 over every steal x kill/stall/abort interleaving."""
        scenarios = [
            Scenario(2, FaultSpec(0, kind, 1, once=(kind != "abort")), ckpt,
                     steal=True)
            for kind in ("kill", "stall", "abort")
            for ckpt in (False, True)
        ]
        result = check_protocol(model, scenarios)
        assert result.ok, result.report.render()
        # ckpt aborts leave committed blocks (a committed steal's under
        # the origin's name): the resume sub-scenarios must run and pass too
        assert any("resume=" in label for label, _ in result.per_scenario)

    def test_three_rank_steal_is_clean(self, model):
        small = replace(model, max_extra_beats=0)
        result = check_protocol(
            small, [Scenario(3, FaultSpec(0, "kill", 1), steal=True)]
        )
        assert result.ok, result.report.render()

    def test_worker_ignoring_relinquish_is_convicted(self, model):
        """A running worker with no relinquish yield point strands the
        request — M408's failure mode, convicted as unhandled."""
        mutated = model.without("worker", "running", "recv:relinquish")
        result = check_protocol(mutated, [Scenario(1, None, steal=True)])
        assert "M402" in rules_fired(result.report)
        assert "recv:relinquish" in by_rule(result.report, "M402")[0].message

    def test_finished_worker_must_still_ack_relinquish(self, model):
        """The dispatch loop's stale-ack edge is load-bearing: drop it
        and a relinquish racing the rank's own report goes unhandled."""
        mutated = model.without("worker", "idle_done", "recv:relinquish")
        result = check_protocol(mutated, [Scenario(1, None, steal=True)])
        assert "M402" in rules_fired(result.report)

    def test_dropped_dispatch_edge_loses_stolen_blocks(self, model):
        """Without recv:relinquished the yielded blocks have no owner:
        the ack wedges the gather queue and the run deadlocks."""
        mutated = model.without(
            "coordinator", "supervising", "recv:relinquished"
        )
        result = check_protocol(mutated, [Scenario(2, None, steal=True)])
        fired = rules_fired(result.report)
        assert "M402" in fired
        assert "M401" in fired

    def test_dropped_relinquished_ack_is_convicted(self, model):
        """A live relinquish whose ack is not declared yields the blocks but
        never tells the coordinator: the steal never commits."""
        mutated = with_sends(model, "worker", "running", "recv:relinquish", ())
        result = check_protocol(
            mutated, [Scenario(1, steal=True), Scenario(2, steal=True)]
        )
        assert rules_fired(result.report) & {"M401", "M407", "M408"}

    def test_dropped_handoff_consumption_wedges(self, model):
        mutated = model.without("worker", "idle_done", "recv:handoff")
        result = check_protocol(mutated, [Scenario(2, None, steal=True)])
        fired = rules_fired(result.report)
        assert "M401" in fired or "M402" in fired

    def test_dropped_handoff_absorb_is_convicted(self, model):
        mutated = model.without(
            "coordinator", "supervising", "recv:handoff_done"
        )
        result = check_protocol(mutated, [Scenario(2, None, steal=True)])
        assert "M402" in rules_fired(result.report)


class TestScenarioVocabulary:
    def test_labels_are_descriptive(self):
        sc = Scenario(2, FaultSpec(0, "stall", 1, once=False), checkpoint=True)
        assert sc.label() == "ranks=2 fault=stall@r0u1* ckpt"
        assert Scenario(1).label() == "ranks=1 fault=none"

    def test_default_sweep_covers_all_fault_kinds(self):
        kinds = {
            sc.fault.kind for sc in default_scenarios() if sc.fault is not None
        }
        assert kinds == {"kill", "stall", "abort", "raise"}

    def test_fault_arming_mirrors_fault_injection(self):
        once = FaultSpec(0, "kill", 1, once=True)
        persistent = FaultSpec(0, "kill", 1, once=False)
        assert once.armed(0) and not once.armed(1)
        assert persistent.armed(0) and persistent.armed(1)
