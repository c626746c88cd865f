"""Checkpoint/resume end-to-end tests (kill → resume → bit parity).

The contract under test: a distributed run with ``checkpoint_dir`` can be
killed at any instant and resumed — in the same run (the coordinator's
retry path) or by a brand-new invocation over the same directory — and
the final C is bit-for-bit identical to the uninterrupted serial oracle,
with committed blocks restored from their block files instead of
recomputed.

Fast single-process pieces are in ``tests/test_store.py``; everything
here spawns real workers, so the slow scenarios carry the ``dist`` mark
(run via ``make test-dist``).
"""

import glob
import hashlib
import os

import numpy as np
import pytest

from repro.core import inspect, psgemm_distributed, psgemm_numeric
from repro.dist import DistExecutionError, FaultPlan, active_segments, coordinator
from repro.machine import summit
from repro.runtime import GeneratedCollection
from repro.sparse import random_block_sparse
from repro.store import read_snapshot, read_store_stats, run_fingerprint
from repro.tiling import random_tiling
from tests.test_dist_executor import assert_report_folds_its_log, assert_resident


def operands(seed=0, m=200, nk=600, density=0.5):
    rows = random_tiling(m, 20, 80, seed=seed)
    inner = random_tiling(nk, 20, 80, seed=seed + 1)
    a = random_block_sparse(rows, inner, density, seed=seed + 2)
    b_shape = random_block_sparse(inner, inner, density, seed=seed + 3).sparse_shape()
    return a, GeneratedCollection(b_shape, seed=seed + 3), b_shape


def serial_oracle(a, b, b_shape, p=2):
    c, _ = psgemm_numeric(a, b, summit(p), p=p, b_shape=b_shape)
    return c.to_dense()


def fault_after_first_block(a, b_shape, rank, p=2):
    """A task index safely past the victim rank's first completed block.

    A fault that fires before any block completes commits nothing and
    restores nothing — which is a valid resume, but not the one these
    tests exist to exercise.
    """
    plan = inspect(a.sparse_shape(), b_shape, summit(p), p=p)
    proc = next(pp for pp in plan.procs if pp.rank == rank)
    for g in range(plan.grid.gpus_per_proc):
        blocks = proc.gpu_blocks(g)
        if blocks:
            return blocks[0].ntasks + 2
    return 2


class TestCheckpointParity:
    def test_clean_checkpointed_run_matches_serial(self, tmp_path):
        """Checkpointing must be invisible: bit parity AND stats parity."""
        a, b, b_shape = operands(seed=0)
        c_serial, s_serial = psgemm_numeric(
            a, b, summit(2), p=2, b_shape=b_shape
        )
        c_dist, report = psgemm_distributed(
            a, b, summit(2), p=2, b_shape=b_shape,
            checkpoint_dir=str(tmp_path),
        )
        assert np.array_equal(c_serial.to_dense(), c_dist.to_dense())
        assert s_serial == report.stats
        assert report.blocks_restored == 0
        assert report.store_puts > 0  # generated B tiles landed on disk
        assert not active_segments()
        # Checkpoint time is on the trace: one span per committed block, and
        # the duration series is the fold of exactly those spans.
        run = read_snapshot(str(tmp_path))["run"]
        committed = glob.glob(os.path.join(str(tmp_path), "blocks", run, "r*.blk"))
        ckpt_spans = [e for e in report.trace.events
                      if e.task.startswith("writeback.ckpt.block")]
        assert len(ckpt_spans) == len(committed) > 0
        assert {e.resource for e in ckpt_spans} <= {"net.0", "net.1"}
        assert report.metrics.histograms["repro_checkpoint_seconds"].count == len(committed)
        assert not glob.glob(os.path.join(str(tmp_path), "journal-rank*"))
        # coordinator.json is the run's identity; progress is not its job.
        assert sorted(read_snapshot(str(tmp_path))) == [
            "a", "alpha", "b", "nranks", "plan", "run", "v",
        ]


@pytest.mark.dist
class TestKillResume:
    def test_in_run_kill_resumes_from_journal(self, tmp_path):
        """The retry after a mid-run kill restores the dead attempt's
        committed blocks instead of recomputing them."""
        a, b, b_shape = operands(seed=1)
        at = fault_after_first_block(a, b_shape, rank=1)
        c_dist, report = psgemm_distributed(
            a, b, summit(2), p=2, b_shape=b_shape,
            checkpoint_dir=str(tmp_path),
            fault_plan=FaultPlan.parse(f"1:{at}:kill"),
        )
        assert np.array_equal(c_dist.to_dense(), serial_oracle(a, b, b_shape))
        assert report.blocks_restored >= 1
        assert report.tasks_skipped > 0
        assert not active_segments()
        assert_resident(report)  # the re-forked retry read A in place too

    def test_second_invocation_resumes_completed_run(self, tmp_path):
        """A finished checkpointed run re-executed over the same directory
        restores every block and recomputes nothing."""
        a, b, b_shape = operands(seed=2)
        kwargs = dict(b_shape=b_shape, checkpoint_dir=str(tmp_path))
        c1, r1 = psgemm_distributed(a, b, summit(2), p=2, **kwargs)
        c2, r2 = psgemm_distributed(a, b, summit(2), p=2, **kwargs)
        assert np.array_equal(c1.to_dense(), c2.to_dense())
        assert np.array_equal(c2.to_dense(), serial_oracle(a, b, b_shape))
        assert r1.blocks_restored == 0
        # Every planned block of run 2 came off disk: run 1 executed the
        # whole plan, run 2 skipped exactly that many tasks.
        assert r2.blocks_restored > 0
        assert r2.tasks_skipped == r1.stats.ntasks
        assert not active_segments()
        # Restored tiles land in arena slots exactly like computed ones: the
        # result adopted all of them, and the arenas held nothing else.
        assert not any(c2.get(key).flags.owndata for key in c2.keys())
        assert all(c2.get(key).flags.writeable for key in c2.keys())
        assert r2.shm_bytes == c2.nbytes == r1.stats.d2h_bytes

    @pytest.mark.parametrize("tag", [b"repro-run-v1", b"repro-run-v2", b"repro-run-v3"])
    def test_journal_of_the_per_pair_kernel_is_not_resumed(self, tag, tmp_path, monkeypatch):
        """A checkpoint written under an older build's tag — ``v1``, C tiles
        summed pair by pair; ``v2``, products scaled and added in separate
        passes; ``v3``, a run identity without A — is another namespace:
        none of its blocks is restored and the run is the oracle's, not a
        tile-by-tile mix of two kernels."""
        a, b, b_shape = operands(seed=2)
        kwargs = dict(b_shape=b_shape, checkpoint_dir=str(tmp_path))

        def old_fingerprint(plan_hash, a_hash, b_hash, alpha):
            h = hashlib.sha256(tag)
            for part in (plan_hash, b_hash, repr(float(alpha))):
                h.update(part.encode())
            return h.hexdigest()

        assert old_fingerprint("p", "a", "b", 1.0) != run_fingerprint("p", "a", "b", 1.0)
        with monkeypatch.context() as patch:
            patch.setattr(coordinator, "run_fingerprint", old_fingerprint)
            _, r1 = psgemm_distributed(a, b, summit(2), p=2, **kwargs)
        assert r1.store_puts > 0
        c2, r2 = psgemm_distributed(a, b, summit(2), p=2, **kwargs)
        assert r2.blocks_restored == 0 and r2.tasks_skipped == 0
        assert np.array_equal(c2.to_dense(), serial_oracle(a, b, b_shape))
        # Its own block files are resumed as ever.
        _, r3 = psgemm_distributed(a, b, summit(2), p=2, **kwargs)
        assert r3.tasks_skipped == r2.stats.ntasks
        assert not active_segments()

    def test_abort_then_resume_bit_identical(self, tmp_path):
        """The unrecoverable fault: abort raises with a resume hint, and a
        fresh invocation completes bit-identically, skipping committed work."""
        a, b, b_shape = operands(seed=3)
        at = fault_after_first_block(a, b_shape, rank=1)
        with pytest.raises(DistExecutionError, match="resume"):
            psgemm_distributed(
                a, b, summit(2), p=2, b_shape=b_shape,
                checkpoint_dir=str(tmp_path),
                fault_plan=FaultPlan.abort(1, at),
            )
        assert not active_segments()  # the failed run cleaned up after itself
        # The lost run claimed the directory before its workers started.
        with pytest.raises(DistExecutionError, match="different plan"):
            psgemm_distributed(
                a, b, summit(2), p=1, b_shape=b_shape,
                checkpoint_dir=str(tmp_path),
            )
        c_dist, report = psgemm_distributed(
            a, b, summit(2), p=2, b_shape=b_shape,
            checkpoint_dir=str(tmp_path),
            events_path=str(tmp_path / "resumed-events.jsonl"),
        )
        assert np.array_equal(c_dist.to_dense(), serial_oracle(a, b, b_shape))
        assert report.blocks_restored >= 1
        assert report.tasks_skipped > 0
        assert not active_segments()
        assert_report_folds_its_log(report)

    def test_checkpoint_of_another_a_is_not_resumed(self, tmp_path):
        """B stays and A changes every CCSD iteration: a run aborted under
        A and resumed from its directory with -3·A (same shapes, same plan)
        restores none of A's blocks and is the new oracle's, bit for bit."""
        a, b, b_shape = operands(seed=3)
        at = fault_after_first_block(a, b_shape, rank=1)
        kwargs = dict(b_shape=b_shape, checkpoint_dir=str(tmp_path))
        with pytest.raises(DistExecutionError, match="resume"):
            psgemm_distributed(
                a, b, summit(2), p=2, fault_plan=FaultPlan.abort(1, at), **kwargs
            )
        a_next = a.copy().scale(-3.0)
        c_dist, report = psgemm_distributed(a_next, b, summit(2), p=2, **kwargs)
        assert report.blocks_restored == 0 and report.tasks_skipped == 0
        assert np.array_equal(c_dist.to_dense(), serial_oracle(a_next, b, b_shape))
        assert not active_segments()

    def test_mismatched_plan_refused(self, tmp_path):
        """A checkpoint directory is married to its plan: reusing it with a
        different grid must be refused before any worker spawns."""
        a, b, b_shape = operands(seed=4)
        psgemm_distributed(
            a, b, summit(2), p=2, b_shape=b_shape, checkpoint_dir=str(tmp_path)
        )
        with pytest.raises(DistExecutionError, match="different plan"):
            psgemm_distributed(
                a, b, summit(2), p=1, b_shape=b_shape,
                checkpoint_dir=str(tmp_path),
            )
        assert not active_segments()


@pytest.mark.dist
class TestPersistentBTier:
    def test_second_run_hits_the_store(self, tmp_path):
        """Acceptance criterion: two identical runs over one store — the
        second serves every B pull from disk and the aggregate hit rate
        is nonzero."""
        a, b, b_shape = operands(seed=5)
        store = str(tmp_path / "btiles")
        kwargs = dict(b_shape=b_shape, store_dir=store)
        c_serial, s_serial = psgemm_numeric(
            a, b, summit(2), p=2, b_shape=b_shape
        )
        c1, r1 = psgemm_distributed(a, b, summit(2), p=2, **kwargs)
        c2, r2 = psgemm_distributed(a, b, summit(2), p=2, **kwargs)
        for c, r in ((c1, r1), (c2, r2)):
            assert np.array_equal(c.to_dense(), c_serial.to_dense())
            assert s_serial == r.stats  # store tier preserves stat parity
        assert r1.store_puts > 0
        assert r2.store_hits > 0 and r2.store_misses == 0 and r2.store_puts == 0
        assert read_store_stats(store).hit_rate > 0
        assert not active_segments()
