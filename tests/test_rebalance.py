"""End-to-end tests for dynamic block rebalancing (steal + handoff).

When ``rebalance=True`` a flagged straggler is asked to relinquish its
unstarted blocks at the next block boundary and the coordinator hands
the yielded work to a finished rank (or its inline spare).  The serial
executor stays the bit-for-bit oracle under every fault combination, and
the merged statistics still attribute handed-off work to the origin rank
— stats parity is the proof that no block ran twice or vanished.

The deterministic straggler here is a ``slow`` fault: rank 0 sleeps on
every task, the others race ahead, the windowed-rate patrol flags it.
"""

import glob
import os

import numpy as np
import pytest

from repro.core import psgemm_distributed, psgemm_numeric, psgemm_plan
from repro.dist import FaultInjection, FaultPlan, read_events
from repro.machine import summit
from repro.runtime import GeneratedCollection
from repro.sparse import random_block_sparse
from repro.store import read_snapshot
from repro.tiling import random_tiling
from tests.test_dist_executor import (
    assert_report_folds_its_log,
    assert_resident,
    mapped_segments,
    pack_spans,
    segment_tags,
    start_method,
)


def operands(seed=0, m=300, nk=900, density=0.5):
    rows = random_tiling(m, 20, 80, seed=seed)
    inner = random_tiling(nk, 20, 80, seed=seed + 1)
    a = random_block_sparse(rows, inner, density, seed=seed + 2)
    b = random_block_sparse(inner, inner, density, seed=seed + 3)
    return a, b


#: Knobs that make the patrol flag the slow rank within the run: tight
#: heartbeat cadence and a permissive rate threshold.  ``summit(3)`` with
#: ``p=3`` gives every rank 6 GPU blocks, so there are block boundaries
#: left to steal when the flag lands.
REBALANCE_KWARGS = dict(
    heartbeat_interval=0.05,
    straggler_fraction=0.5,
    rebalance=True,
    timeout=120,
)


def slow_rank0(seconds=0.05):
    return FaultPlan.slow(0, at_task=1, seconds=seconds)


def kinds(events):
    return [e.get("event") for e in events]


class TestRebalanceParity:
    def _rebalanced_run(self, tmp_path, **kwargs):
        """One slow-rank-0 rebalanced run, checked against the oracle."""
        a, b = operands(seed=0)
        c_serial, s_serial = psgemm_numeric(a, b, summit(3), p=3)
        events = str(tmp_path / "events.jsonl")
        c_dist, rep = psgemm_distributed(
            a, b, summit(3), p=3, fault_plan=slow_rank0(),
            events_path=events, **REBALANCE_KWARGS, **kwargs,
        )
        assert np.array_equal(c_dist.to_dense(), c_serial.to_dense())
        assert rep.stats == s_serial
        assert rep.blocks_rebalanced > 0
        assert rep.handoffs >= 1
        assert rep.tasks_rebalanced > 0
        # Handed-off work is in the series too: they are folds of this report
        # (a handoff used to run with a disabled registry and go uncounted).
        assert rep.metrics.get("repro_gemm_tasks_total") == rep.stats.ntasks
        assert rep.metrics.get("repro_gemm_flops_total") == rep.stats.flops
        assert (rep.metrics.get("repro_b_service_misses_total")
                == rep.stats.b_tiles_generated)
        evs = read_events(events)
        # the other ranks finished long ago, so a helper *rank* (not the
        # coordinator's inline spare) ran at least one handoff
        assert any(
            e.get("helper") is not None for e in evs if e.get("event") == "handoff"
        )
        # ``repro monitor`` replays the log: a rank that gave blocks away
        # must end at 100 % of what it kept, exactly as the live view does.
        assert_report_folds_its_log(rep)
        assert all(rh.progress == 1.0 for rh in rep.health.ranks.values())
        assert rep.health.ranks[0].tasks_total < s_serial.per_proc_tasks[0]
        return rep, kinds(evs)

    def test_rebalanced_run_matches_serial_bit_for_bit(self, tmp_path):
        """The tentpole invariant: steal + handoff changes *where* blocks
        run, never *what* they produce — C and merged stats are identical
        to the serial oracle, with stolen work attributed to the origin.
        The helper rank was forked holding A and B: no arena anywhere."""
        rep, seen = self._rebalanced_run(tmp_path)
        assert_resident(rep)
        # the full excursion is journaled: flag -> request -> ack ->
        # handoff -> absorb (patrol-under-load: traffic never stops, so
        # the bounded-interval patrol is what makes "straggler" appear)
        for kind in ("straggler", "rebalance", "relinquished", "handoff",
                     "handoff_done"):
            assert kind in seen, f"missing {kind!r} in {sorted(set(seen))}"

    @pytest.mark.dist
    def test_rebalanced_spawn_run_hands_off_over_arenas(self, tmp_path):
        """The arena plane's handoff: a spawned helper attaches A and B."""
        with start_method("spawn"):
            rep, _ = self._rebalanced_run(tmp_path)
        assert pack_spans(rep) == ["pack.a", "pack.b"]

    @pytest.mark.dist
    def test_rebalance_is_off_by_default(self):
        """Without opting in, a slow rank is flagged but never stolen
        from — the run just takes longer and stays bit-identical."""
        a, b = operands(seed=1)
        c_serial, _ = psgemm_numeric(a, b, summit(3), p=3)
        c_dist, rep = psgemm_distributed(
            a, b, summit(3), p=3, fault_plan=slow_rank0(),
            heartbeat_interval=0.05, straggler_fraction=0.5, timeout=120,
        )
        assert np.array_equal(c_dist.to_dense(), c_serial.to_dense())
        assert rep.handoffs == 0
        assert rep.blocks_rebalanced == 0

    @pytest.mark.dist
    @pytest.mark.parametrize("kind", ["kill", "stall"])
    def test_slow_straggler_plus_fault_on_helper_rank(self, kind, tmp_path):
        """Steal x recovery: rank 0 drags (and is stolen from) while
        rank 1 dies mid-run and is retried — parity must survive the
        overlap of both excursions."""
        a, b = operands(seed=2)
        c_serial, s_serial = psgemm_numeric(a, b, summit(3), p=3)
        plan = FaultPlan(injections=(
            FaultInjection(rank=0, at_task=1, kind="slow",
                           delay_seconds=0.05, once=False),
            FaultInjection(rank=1, at_task=5, kind=kind, once=True),
        ))
        kwargs = dict(REBALANCE_KWARGS)
        if kind == "stall":
            kwargs["stall_after_beats"] = 5
        events = str(tmp_path / "events.jsonl")
        c_dist, rep = psgemm_distributed(
            a, b, summit(3), p=3, fault_plan=plan, events_path=events,
            **kwargs,
        )
        assert np.array_equal(c_dist.to_dense(), c_serial.to_dense())
        assert rep.stats == s_serial
        assert any(att > 1 for att in rep.attempts.values())
        seen = kinds(read_events(events))
        assert "retry" in seen
        assert_report_folds_its_log(rep)

    @pytest.mark.dist
    def test_flagged_rank_can_be_reflagged_after_retry(self, tmp_path):
        """The flagged_stragglers bookkeeping must clear on retry: a
        persistently slow rank that is also killed once gets flagged,
        recovered (retried), and flagged again on the new attempt."""
        a, b = operands(seed=3)
        c_serial, _ = psgemm_numeric(a, b, summit(3), p=3)
        plan = FaultPlan(injections=(
            FaultInjection(rank=0, at_task=1, kind="slow",
                           delay_seconds=0.08, once=False),
            FaultInjection(rank=1, at_task=3, kind="kill", once=True),
        ))
        events = str(tmp_path / "events.jsonl")
        c_dist, rep = psgemm_distributed(
            a, b, summit(3), p=3, fault_plan=plan, events_path=events,
            **REBALANCE_KWARGS,
        )
        assert np.array_equal(c_dist.to_dense(), c_serial.to_dense())
        evs = read_events(events)
        flagged = [e for e in evs if e.get("event") == "straggler"]
        # rank 0 drags for the whole run: with the stale-flag bug the
        # set was never cleared and a rank could be flagged at most once
        # per run even across recoveries
        assert any(e.get("rank") == 0 for e in flagged)
        assert_report_folds_its_log(rep)


@pytest.mark.dist
class TestInlineHandoff:
    """The coordinator's fallback producer is ``run_handoff`` in-process:
    its tiles are adopted from an ``h<id>`` arena like a helper's."""

    def _adopted_handoff_arenas(self, c, rep):
        assert not any(c.get(key).flags.owndata for key in c.keys())
        assert not set(rep.segments) & set(os.listdir("/dev/shm"))
        return [
            n for n in mapped_segments(rep.segments)
            if n.rsplit("-", 1)[1].startswith("h")
        ]

    def test_no_helper_free_runs_the_handoff_inline(self, tmp_path):
        """Ranks 1 and 2 race to their last task and sit on it for longer
        than rank 0 needs to reach its first block boundary: when it yields
        there is nobody to send to, so the coordinator runs the blocks."""
        a, b = operands(seed=0)
        c_serial, s_serial = psgemm_numeric(a, b, summit(3), p=3)
        plan = FaultPlan(injections=(
            FaultInjection(rank=0, at_task=1, kind="slow", delay_seconds=0.03,
                           once=False),
            *(
                FaultInjection(rank=r, at_task=s_serial.per_proc_tasks[r],
                               kind="delay", delay_seconds=4.0)
                for r in (1, 2)
            ),
        ))
        events = str(tmp_path / "events.jsonl")
        c, rep = psgemm_distributed(
            a, b, summit(3), p=3, fault_plan=plan, events_path=events,
            **REBALANCE_KWARGS,
        )
        assert np.array_equal(c.to_dense(), c_serial.to_dense())
        assert rep.stats == s_serial
        handoffs = [e for e in read_events(events) if e.get("event") == "handoff"]
        assert handoffs and handoffs[0]["helper"] is None
        assert_report_folds_its_log(rep)
        assert "h0" in segment_tags(rep)
        assert len(self._adopted_handoff_arenas(c, rep)) == rep.handoffs

    def test_dead_helper_is_superseded_by_the_inline_run(self, tmp_path, monkeypatch):
        """A helper that dies mid-handoff leaves an ``h<id>`` arena nobody
        adopts; the inline re-execution gets a fresh one."""
        from repro.dist import worker

        coordinator_pid, real = os.getpid(), worker.run_handoff

        def dying(msg, *args, **kwargs):
            if os.getpid() != coordinator_pid:
                os._exit(1)  # forked workers inherit the patch
            return real(msg, *args, **kwargs)

        monkeypatch.setattr(worker, "run_handoff", dying)
        a, b = operands(seed=0)
        c_serial, s_serial = psgemm_numeric(a, b, summit(3), p=3)
        events = str(tmp_path / "events.jsonl")
        with start_method("fork"):
            c, rep = psgemm_distributed(
                a, b, summit(3), p=3, fault_plan=slow_rank0(), events_path=events,
                **REBALANCE_KWARGS,
            )
        assert np.array_equal(c.to_dense(), c_serial.to_dense())
        assert rep.stats == s_serial
        evs = read_events(events)
        failed = [e for e in evs if e.get("event") == "handoff_failed"]
        assert failed and {e["reason"] for e in failed} == {"helper died"}
        assert_report_folds_its_log(rep)
        hid = failed[0]["handoff"]
        assert [
            e["helper"] for e in evs
            if e.get("event") == "handoff_done" and e["handoff"] == hid
        ] == [None]
        # Two arenas carry the failed handoff's tag, one is adopted.
        tag = f"h{hid}"
        assert segment_tags(rep).count(tag) == 2
        adopted = self._adopted_handoff_arenas(c, rep)
        assert [n.rsplit("-", 1)[1] for n in adopted].count(tag) == 1
        assert len(adopted) == rep.handoffs


@pytest.mark.dist
class TestCheckpointedHandoff:
    def test_handoff_commits_origin_block_files_and_resumes(self, tmp_path):
        """A checkpointed rebalanced run commits handed-off blocks under
        the *origin* rank's name; a second invocation restores every
        block — including the stolen ones — bit-for-bit."""
        a, b = operands(seed=4)
        b_shape = b.sparse_shape()
        bgen = GeneratedCollection(b_shape, seed=4 + 3)
        c_serial, _ = psgemm_numeric(
            a, bgen, summit(3), p=3, b_shape=b_shape
        )
        ckpt = str(tmp_path / "ckpt")
        c1, r1 = psgemm_distributed(
            a, bgen, summit(3), p=3, b_shape=b_shape, checkpoint_dir=ckpt,
            fault_plan=slow_rank0(), **REBALANCE_KWARGS,
        )
        assert np.array_equal(c1.to_dense(), c_serial.to_dense())
        assert r1.blocks_rebalanced > 0
        # One file per planned block, the handed-off ones committed by
        # their helper under the straggler's (the origin's) name: rank 0
        # relinquished blocks, yet every block of its plan has its file.
        plan = psgemm_plan(a.sparse_shape(), b_shape, summit(3), p=3)
        blocks = os.path.join(ckpt, "blocks", read_snapshot(ckpt)["run"])
        assert [
            len(glob.glob(os.path.join(blocks, f"r{r}.*.blk"))) for r in range(3)
        ] == [len(proc.blocks) for proc in plan.procs]
        assert not glob.glob(os.path.join(ckpt, "journal-rank*"))

        # resume: the second invocation restores the origin-named blocks
        c2, r2 = psgemm_distributed(
            a, bgen, summit(3), p=3, b_shape=b_shape, checkpoint_dir=ckpt,
            timeout=120,
        )
        assert np.array_equal(c2.to_dense(), c_serial.to_dense())
        assert r2.blocks_restored > 0
        assert r2.tasks_skipped > 0
        # nothing is restored twice: restored blocks across ranks can
        # never exceed the plan's block count
        assert r2.handoffs == 0

    def test_abort_after_steal_resumes_bit_identical(self, tmp_path):
        """Kill the whole run (reserved abort exit) while rank 0 drags
        and rebalancing is live, then resume from the block files: the
        resumed run completes bit-for-bit whether or not the handoff
        landed before the abort — handed-off blocks replay as the origin's."""
        from repro.dist import DistExecutionError

        a, b = operands(seed=5)
        b_shape = b.sparse_shape()
        bgen = GeneratedCollection(b_shape, seed=5 + 3)
        c_serial, _ = psgemm_numeric(
            a, bgen, summit(3), p=3, b_shape=b_shape
        )
        ckpt = str(tmp_path / "ckpt")
        plan = FaultPlan(injections=(
            FaultInjection(rank=0, at_task=1, kind="slow",
                           delay_seconds=0.05, once=False),
            FaultInjection(rank=2, at_task=40, kind="abort", once=False),
        ))
        with pytest.raises(DistExecutionError):
            psgemm_distributed(
                a, bgen, summit(3), p=3, b_shape=b_shape,
                checkpoint_dir=ckpt, fault_plan=plan, **REBALANCE_KWARGS,
            )
        c2, r2 = psgemm_distributed(
            a, bgen, summit(3), p=3, b_shape=b_shape, checkpoint_dir=ckpt,
            timeout=120,
        )
        assert np.array_equal(c2.to_dense(), c_serial.to_dense())
        assert r2.blocks_restored > 0
