"""Plan-verifier tests: zero findings on healthy plans, mutations caught.

The mutation suite corrupts inspector-built plans one invariant at a time
and asserts the verifier fires the matching rule id — the static-analysis
twin of the numeric crosscheck.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis import PlanVerificationError, assert_plan_valid, verify_plan
from repro.core import inspect, psgemm_plan
from repro.core.block_partition import InfeasiblePartitionError
from repro.core.inspector import DTYPE_BYTES
from repro.dist import active_segments, execute_plan_distributed
from repro.machine import summit
from repro.sparse import random_block_sparse
from repro.sparse.shape import SparseShape
from repro.tiling import random_tiling
from tests.test_property_plans import instances, machines
from tests.findings import by_rule, rules_fired


def _instance(seed=0, n=400, k=1200):
    rows = random_tiling(n, 30, 120, seed=seed)
    inner = random_tiling(k, 30, 120, seed=seed + 1)
    a = random_block_sparse(rows, inner, 0.5, seed=seed + 2)
    b = random_block_sparse(inner, inner, 0.5, seed=seed + 3)
    return a, b


@pytest.fixture(scope="module")
def healthy():
    """A 2x2-grid plan (two procs per grid row, for ownership mutations)."""
    a, b = _instance()
    plan = psgemm_plan(a.sparse_shape(), b.sparse_shape(), summit(4), p=2)
    return plan


@pytest.fixture()
def plan(healthy):
    """A mutable deep copy of the healthy plan for mutation tests."""
    return copy.deepcopy(healthy)


def _drop_tile(shape: SparseShape, i: int, k: int) -> SparseShape:
    csr = shape.csr.copy().tolil()
    csr[i, k] = 0.0
    return SparseShape(shape.rows, shape.cols, csr.tocsr())


class TestHealthyPlans:
    def test_zero_findings(self, healthy):
        report = verify_plan(healthy)
        assert report.ok, report.render()
        assert report.exit_code() == 0
        assert "no findings" in report.render()

    def test_assert_plan_valid_passes(self, healthy):
        assert assert_plan_valid(healthy).ok

    def test_single_rank_plan_clean(self):
        a, b = _instance(seed=7, n=300, k=900)
        plan = psgemm_plan(a.sparse_shape(), b.sparse_shape(), summit(1), p=1)
        assert verify_plan(plan).ok

    @settings(max_examples=15, deadline=None)
    @given(instances(), machines())
    def test_property_inspector_plans_verify_clean(self, inst, machine):
        """Any plan the inspector accepts must pass static verification."""
        a, b = inst
        try:
            plan = inspect(a, b, machine, p=1)
        except InfeasiblePartitionError:
            return
        report = verify_plan(plan)
        assert report.ok, report.render()


class TestMutations:
    def test_missing_a_tile_fires_p101(self, plan):
        chunk = plan.procs[0].blocks[0].chunks[0]
        i, k = int(chunk.a_rows[0]), int(chunk.a_cols[0])
        plan.a_shape = _drop_tile(plan.a_shape, i, k)
        report = verify_plan(plan)
        assert "P101" in rules_fired(report), report.render()

    def test_missing_b_tile_fires_p102(self, plan):
        block = plan.procs[0].blocks[0]
        j = int(block.columns[0])
        csc = plan.b_shape.csr.tocsc()
        k = int(csc.indices[csc.indptr[j]])
        plan.b_shape = _drop_tile(plan.b_shape, k, j)
        report = verify_plan(plan)
        assert "P102" in rules_fired(report), report.render()

    def test_inconsistent_b_footprint_fires_p102(self, plan):
        plan.procs[0].blocks[0].b_tile_count += 3
        report = verify_plan(plan)
        assert "P102" in rules_fired(report), report.render()

    def test_duplicated_c_ownership_fires_p103(self, plan):
        row0 = [p for p in plan.procs if p.row == 0]
        assert len(row0) >= 2, "need two procs in one grid row"
        a, b = row0[0], row0[1]
        b.columns = np.concatenate([b.columns, a.columns[:1]])
        report = verify_plan(plan)
        assert "P103" in rules_fired(report), report.render()
        assert any("write race" in f.message for f in report.findings)

    def test_dropped_column_fires_p104_and_p103(self, plan):
        proc = plan.procs[0]
        proc.columns = proc.columns[1:]
        report = verify_plan(plan)
        assert "P104" in rules_fired(report), report.render()
        # The orphaned column's C tiles are now owned by nobody.
        assert "P103" in rules_fired(report), report.render()

    def test_duplicated_block_columns_fire_p104(self, plan):
        """A rank whose block claims a sibling rank's columns writes C tiles
        it does not own: convicted by name, not only by P102's footprint."""
        src, dst = [p for p in plan.procs if p.row == 0][:2]
        dst.blocks[0].columns = np.array(src.blocks[0].columns, copy=True)
        report = verify_plan(plan)
        p104 = by_rule(report, "P104")
        assert any("not assigned to the rank" in f.message for f in p104), report.render()
        assert any("in no block" in f.message for f in p104), report.render()

    @pytest.mark.parametrize("where", ["same rank", "sibling rank"])
    def test_stolen_column_fires_p104(self, plan, where):
        """Bugfix regression: a block that also takes one column of a sibling
        block, with its B footprint recomputed honestly, double-writes that
        column's C tiles while every footprint, ownership and volume check
        passes."""
        row0 = [p for p in plan.procs if p.row == 0]
        thief = row0[0].blocks[0]
        victim = row0[0].blocks[1] if where == "same rank" else row0[1].blocks[0]
        thief.columns = np.append(thief.columns, victim.columns[0])
        csc = plan.b_shape.csr.tocsc()
        k_sizes, n_sizes = plan.a_shape.cols.sizes, plan.b_shape.cols.sizes
        tiles = [(k, j) for j in thief.columns
                 for k in csc.indices[csc.indptr[j]:csc.indptr[j + 1]]]
        thief.b_tile_count = len(tiles)
        thief.b_bytes = int(sum(k_sizes[k] * n_sizes[j] for k, j in tiles)) * DTYPE_BYTES
        report = verify_plan(plan)
        assert rules_fired(report) == {"P104"}, report.render()
        with pytest.raises(PlanVerificationError, match="P104"):
            assert_plan_valid(plan)

    def test_oversized_block_fires_p110(self, plan):
        plan.procs[0].blocks[0].c_bytes = plan.gpu_memory_bytes
        report = verify_plan(plan)
        assert "P110" in rules_fired(report), report.render()

    def test_over_budget_chunk_fires_p111(self, plan):
        chunk = plan.procs[0].blocks[0].chunks[0]
        assert chunk.ntiles > 1
        chunk.a_bytes = int(plan.gpu_memory_bytes * 0.9)
        report = verify_plan(plan)
        assert "P111" in rules_fired(report), report.render()
        assert "P112" in rules_fired(report)  # double-buffering overflows too

    def test_gpu_imbalance_fires_p113(self):
        from repro.machine.spec import GpuSpec, MachineSpec, NodeSpec

        a, b = _instance(seed=3, n=400, k=2500)
        machine = MachineSpec(
            nnodes=1, node=NodeSpec(ngpus=2), gpu=GpuSpec(memory_bytes=8 * 2**20)
        )
        plan = inspect(a.sparse_shape(), b.sparse_shape(), machine, p=1)
        proc = plan.procs[0]
        movable = [blk for blk in proc.blocks if blk.gpu == 1]
        assert len(movable) >= 2, "instance too small to unbalance"
        movable[0].gpu = 0
        report = verify_plan(plan)
        assert "P113" in rules_fired(report), report.render()

    def test_comm_volume_mismatch_fires_p120(self, plan):
        plan.procs[0].a_recv_bytes += 4096
        report = verify_plan(plan)
        assert rules_fired(report) == {"P120"}, report.render()
        assert len(report.findings) == 1

    def test_assert_plan_valid_raises_with_report(self, plan):
        plan.procs[0].a_recv_bytes += 4096
        with pytest.raises(PlanVerificationError) as ei:
            assert_plan_valid(plan)
        assert "P120" in str(ei.value)
        assert not ei.value.report.ok


class TestDistributedGate:
    def test_corrupted_plan_rejected_before_spawn(self, plan):
        """verify_plan=True rejects the plan before any worker or shared
        memory segment exists."""
        a, b = _instance()
        plan.procs[0].a_recv_bytes += 4096
        before = active_segments()
        with pytest.raises(PlanVerificationError):
            execute_plan_distributed(plan, a, b, verify_plan=True)
        assert active_segments() == before

    def test_nonconforming_c_rejected_before_spawn(self, plan, tmp_path):
        """Bugfix regression: a C input with the wrong tilings was only
        checked at the reduce, after a full run had been paid for."""
        from repro.dist import WorkerPool

        a, b = _instance()
        bad_c = random_block_sparse(a.cols, b.cols, 0.3, seed=5)  # rows of B, not of A
        assert bad_c.rows != a.rows
        events = tmp_path / "events.jsonl"
        pool = WorkerPool(plan.grid.nprocs)
        before = active_segments()
        try:
            with pytest.raises(ValueError, match="C tilings do not conform"):
                execute_plan_distributed(
                    plan, a, b, c=bad_c, pool=pool, events_path=str(events)
                )
            assert pool.spawns == 0
        finally:
            pool.close()
        assert active_segments() == before
        assert not events.exists()  # not even ``plan_accepted`` was logged

    def test_fault_rank_out_of_plan_rejected(self, plan):
        from repro.dist import FaultPlan

        a, b = _instance()
        bad = FaultPlan.kill(rank=plan.grid.nprocs + 3, at_task=1)
        with pytest.raises(Exception, match="fault injection targets rank"):
            execute_plan_distributed(plan, a, b, fault_plan=bad)
