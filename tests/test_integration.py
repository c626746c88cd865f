"""End-to-end integration: chemistry -> planning -> numeric execution.

These tests exercise the entire stack on a small molecule: the generated
ABCD problem is executed numerically by the serial executor through a
two-rank plan (with on-demand generated V tiles, as in the paper) and
checked against both the serial block GEMM and the order-4 tensor API.
"""

import numpy as np
import pytest

from repro.analysis import assert_plan_valid
from repro.chem import ScreeningModel, TilingVariant, alkane, build_abcd_problem
from repro.core import inspect, psgemm_simulate, tune_grid_rows
from repro.machine import summit
from repro.runtime import GeneratedCollection, execute_plan
from repro.sparse.construct import from_shape
from repro.sparse.gemm_ref import block_gemm_reference
from repro.tensor import BlockSparseTensor, contract


@pytest.fixture(scope="module")
def small_abcd():
    """ABCD problem for butane (C4H10, U = 106, O = 13) — small enough to
    execute numerically on one core while keeping nontrivial sparsity."""
    return build_abcd_problem(
        alkane(4),
        TilingVariant("test", occ_clusters=4, ao_clusters=10),
        screening=ScreeningModel(),
        seed=0,
    )


class TestChemToNumeric:
    def test_serial_executor_matches_block_reference_on_abcd_plan(self, small_abcd):
        """The serial executor runs a two-rank plan of the ABCD problem, V
        generated on demand, to the block GEMM reference."""
        prob = small_abcd
        t_mat = from_shape(prob.t_shape, fill="random", seed=1)
        v_gen = GeneratedCollection(prob.v_shape, seed=2)
        plan = inspect(prob.t_shape, prob.v_shape, summit(2), p=2, gpus_per_proc=3)
        r, stats = execute_plan(plan, t_mat, v_gen)
        ref = block_gemm_reference(t_mat, v_gen.as_matrix())
        assert r.allclose(ref)
        assert stats.ntasks == plan.total_tasks
        assert stats.b_max_instantiations == 1

    def test_r_occupancy_matches_inferred_shape(self, small_abcd):
        prob = small_abcd
        t_mat = from_shape(prob.t_shape, fill="random", seed=3)
        v_mat = from_shape(prob.v_shape, fill="random", seed=4)
        plan = inspect(prob.t_shape, prob.v_shape, summit(1))
        r, _ = execute_plan(plan, t_mat, v_mat)
        # Numerical cancellation to exactly zero is measure-zero with
        # random tiles, so the occupancies agree.
        assert r.sparse_shape() == prob.r_shape

    def test_matricized_equals_tensor_contraction(self):
        """The matricized GEMM path and the order-4 tensor path agree.

        Uses ethane (U = 38, O = 7) — dense order-4 reference arrays for
        anything larger would not fit in test memory.
        """
        prob = build_abcd_problem(
            alkane(2), TilingVariant("tiny", occ_clusters=3, ao_clusters=4), seed=0
        )
        o_t = prob.tilings.occ.tiling
        u_t = prob.tilings.ao.tiling
        rng = np.random.default_rng(5)

        # Build the order-4 T from dense and matricize through the tensor
        # API; V likewise.
        t_dense4 = rng.standard_normal((o_t.extent, o_t.extent, u_t.extent, u_t.extent))
        v_dense4 = rng.standard_normal((u_t.extent,) * 4)
        T4 = BlockSparseTensor.from_dense(t_dense4, "ijcd", [o_t, o_t, u_t, u_t])
        V4 = BlockSparseTensor.from_dense(v_dense4, "cdab", [u_t] * 4)
        R4 = contract("ijcd,cdab->ijab", T4, V4)
        ref = np.einsum("ijcd,cdab->ijab", t_dense4, v_dense4)
        assert np.allclose(R4.to_dense(), ref)

    def test_simulation_runs_on_chem_problem(self, small_abcd):
        prob = small_abcd
        plan, rep = psgemm_simulate(prob.t_shape, prob.v_shape, summit(2), p=1)
        assert_plan_valid(plan)
        assert rep.makespan > 0

    def test_autotune_on_chem_problem(self, small_abcd):
        prob = small_abcd
        res = tune_grid_rows(
            prob.t_shape, prob.v_shape, summit(2), candidates=[1, 2], gpus_per_proc=3
        )
        assert res.best_p in (1, 2)


class TestScalingConsistency:
    def test_numeric_result_independent_of_grid(self, small_abcd):
        """The same problem through three different grids produces the
        same numbers — distribution must not change the mathematics."""
        prob = small_abcd
        t_mat = from_shape(prob.t_shape, fill="random", seed=6)
        v_mat = from_shape(prob.v_shape, fill="random", seed=7)
        results = []
        for p, gpp, nodes in ((1, 6, 1), (2, 3, 2), (1, 2, 3)):
            plan = inspect(prob.t_shape, prob.v_shape, summit(nodes), p=p, gpus_per_proc=gpp)
            r, _ = execute_plan(plan, t_mat, v_mat)
            results.append(r)
        for other in results[1:]:
            assert results[0].allclose(other)

    def test_simulated_time_decreases_with_gpus(self, small_abcd):
        prob = small_abcd
        t_prev = None
        for nodes in (1, 2, 4):
            _, rep = psgemm_simulate(prob.t_shape, prob.v_shape, summit(nodes), p=1)
            if t_prev is not None:
                assert rep.makespan <= t_prev * 1.001
            t_prev = rep.makespan
