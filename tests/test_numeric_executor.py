"""Numeric execution of plans: exactness and runtime invariants.

These are the tests that justify calling the plans *correct*: whatever
grid, memory budget or screening is used, executing the plan with real
tiles reproduces the dense reference, and the run respects the paper's
memory and generation invariants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import inspect, psgemm_numeric
from repro.machine import summit
from repro.runtime import BService, ConcreteBSource, GeneratedCollection, execute_plan, numeric
from repro.sparse import random_block_sparse
from repro.sparse.construct import from_shape
from repro.sparse.gemm_ref import block_gemm_reference, gemm_against_dense
from repro.sparse.random_sparsity import random_shape_with_density
from repro.tiling import random_tiling
from repro.tiling.tiling import Tiling


def operands(density=0.5, seed=0, m=600, nk=3000):
    rows = random_tiling(m, 40, 160, seed=seed)
    inner = random_tiling(nk, 40, 160, seed=seed + 1)
    a = random_block_sparse(rows, inner, density, seed=seed + 2)
    b = random_block_sparse(inner, inner, density, seed=seed + 3)
    return a, b


class TestExactness:
    @pytest.mark.parametrize("p,gpp", [(1, 6), (2, 6), (1, 3), (3, 2)])
    def test_matches_dense_across_grids(self, p, gpp):
        a, b = operands(seed=p * 10 + gpp)
        c, stats = psgemm_numeric(a, b, summit(3), p=p, gpus_per_proc=gpp)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b))
        assert stats.ntasks > 0

    @pytest.mark.parametrize("density", [1.0, 0.5, 0.1])
    def test_matches_dense_across_densities(self, density):
        a, b = operands(density=density, seed=42)
        c, _ = psgemm_numeric(a, b, summit(2), p=1)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b))

    def test_accumulates_into_c_input(self):
        a, b = operands(seed=1)
        c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=9)
        c, _ = psgemm_numeric(a, b, summit(1), c=c0)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b, c0))
        # Input not mutated.
        assert c0.allclose(random_block_sparse(a.rows, b.cols, 0.3, seed=9))

    def test_generated_b_source(self):
        a, bmat = operands(seed=2)
        b_shape = bmat.sparse_shape()
        gen = GeneratedCollection(b_shape, seed=77)
        c, stats = psgemm_numeric(a, gen, summit(2), p=1, b_shape=b_shape)
        ref = block_gemm_reference(a, gen.as_matrix())
        assert c.allclose(ref)
        assert stats.b_tiles_generated > 0

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.15, max_value=1.0),
        st.integers(min_value=1, max_value=3),
    )
    def test_property_exact_for_random_instances(self, seed, density, p):
        rng = np.random.default_rng(seed)
        rows = random_tiling(int(rng.integers(100, 400)), 20, 80, seed=rng)
        inner = random_tiling(int(rng.integers(300, 900)), 20, 80, seed=rng)
        a = random_block_sparse(rows, inner, density, seed=rng)
        b = random_block_sparse(inner, inner, density, seed=rng)
        c, _ = psgemm_numeric(a, b, summit(2), p=min(p, rows.ntiles), gpus_per_proc=3)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b))


class TestInvariants:
    def test_task_count_matches_plan(self):
        a, b = operands(seed=4)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2)
        _, stats = execute_plan(plan, a, b)
        assert stats.ntasks == plan.total_tasks
        assert stats.flops == pytest.approx(plan.total_flops)

    def test_gpu_memory_never_exceeded(self):
        a, b = operands(seed=5)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1))
        _, stats = execute_plan(plan, a, b)
        assert 0 < stats.gpu_peak_bytes <= plan.gpu_memory_bytes

    def test_b_generated_once_per_proc(self):
        a, bmat = operands(seed=6)
        b_shape = bmat.sparse_shape()
        gen = GeneratedCollection(b_shape, seed=1)
        plan = inspect(a.sparse_shape(), b_shape, summit(2), p=2, gpus_per_proc=3)
        _, stats = execute_plan(plan, a, gen)
        assert stats.b_max_instantiations == 1

    def test_h2d_accounts_blocks_and_chunks(self):
        a, b = operands(seed=7)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1))
        _, stats = execute_plan(plan, a, b)
        expect = sum(
            blk.b_bytes + sum(ch.a_bytes for ch in blk.chunks)
            for pp in plan.procs
            for blk in pp.blocks
        )
        assert stats.h2d_bytes == expect

    def test_d2h_equals_produced_c(self):
        a, b = operands(seed=8)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1))
        c, stats = execute_plan(plan, a, b)
        assert stats.d2h_bytes == c.nbytes

    def test_per_proc_task_balance_recorded(self):
        a, b = operands(seed=9)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=1, gpus_per_proc=3)
        _, stats = execute_plan(plan, a, b)
        assert sum(stats.per_proc_tasks.values()) == stats.ntasks
        assert len(stats.per_proc_tasks) == plan.grid.nprocs

    def test_mismatched_a_raises(self):
        a, b = operands(seed=10)
        a2, _ = operands(seed=11, m=500)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1))
        with pytest.raises(ValueError):
            execute_plan(plan, a2, b)

    def test_from_shape_values_used_for_matrix_b(self):
        # A BlockSparseMatrix is read in place through a ConcreteBSource.
        a, b = operands(seed=12)
        plan = inspect(a.sparse_shape(), b.sparse_shape(), summit(1))
        c1, _ = execute_plan(plan, a, b)
        c2, _ = execute_plan(plan, a, b.copy())
        assert c1.allclose(c2)


class TestGemmScalars:
    def test_alpha_beta_semantics(self):
        """The paper's full GEMM form: C <- alpha*A@B + beta*C."""
        a, b = operands(seed=30)
        c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=31)
        c, _ = psgemm_numeric(a, b, summit(1), c=c0, alpha=2.0, beta=0.5)
        expect = 0.5 * c0.to_dense() + 2.0 * (a.to_dense() @ b.to_dense())
        assert np.allclose(c.to_dense(), expect)

    def test_beta_zero_discards_input(self):
        a, b = operands(seed=32)
        c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=33)
        c, _ = psgemm_numeric(a, b, summit(1), c=c0, beta=0.0)
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())

    def test_defaults_unchanged(self):
        a, b = operands(seed=34)
        c1, _ = psgemm_numeric(a, b, summit(1))
        c2, _ = psgemm_numeric(a, b, summit(1), alpha=1.0, beta=1.0)
        assert c1.allclose(c2)


def fine_operands(seed=0, m=160, nk=480, lo=8, hi=40):
    """Tiles far below the k-group gate: every chunk runs stacked panels."""
    rows = random_tiling(m, lo, hi, seed=seed)
    inner = random_tiling(nk, lo, hi, seed=seed + 1)
    a = random_block_sparse(rows, inner, 0.6, seed=seed + 2)
    b = random_block_sparse(inner, inner, 0.6, seed=seed + 3)
    return a, b


def straddling_operands(seed=0):
    """B with 8-wide and 400-wide tile columns: the blocks of the narrow ones
    run k-groups, the blocks of the wide ones groups of one."""
    rows = random_tiling(200, 20, 60, seed=seed)
    inner = random_tiling(400, 20, 60, seed=seed + 1)
    cols = Tiling.from_sizes([8] * 12 + [400] * 4)
    a = random_block_sparse(rows, inner, 0.6, seed=seed + 2)
    b = random_block_sparse(inner, cols, 0.6, seed=seed + 3)
    return a, b


def same_tiles(tiles, c, keys=None):
    """``tiles`` (a dict) holds exactly ``c``'s tiles under ``keys``, bit for bit."""
    keys = sorted(tiles) if keys is None else sorted(keys)
    return sorted(tiles) == keys and all(
        np.array_equal(tiles[key], c.get_tile(*key)) for key in keys
    )


class TestKGroups:
    """The fused path (one GEMM per k-group and B tile) against groups of one.

    ``numeric.KGROUP_MAX_TASK_FLOPS`` is the only switch: 0 forces groups of
    one on any plan, infinity forces k-groups.  The two paths agree to
    roundoff; bit-parity is between executors on one path.
    """

    GATES = pytest.mark.parametrize("gate", [0.0, float("inf")], ids=["ones", "kgroups"])

    @staticmethod
    def plan_for(a, b, **kwargs):
        return inspect(a.sparse_shape(), b.sparse_shape(), summit(2), p=2, **kwargs)

    @staticmethod
    def b_pulls_per_chunk(plan):
        """One pull per B tile ``(k, j)`` of the block per chunk that has ``k``."""
        return sum(
            len(cols_of_k[k])
            for proc in plan.procs
            for blk in proc.blocks
            for cols_of_k in [numeric.block_cols_of_k(blk, plan.b_shape.csr)]
            for chunk in blk.chunks
            for k in set(chunk.a_cols.tolist())
        )

    @pytest.mark.parametrize(
        "gate,alpha,beta",
        [(gate, alpha, beta) for alpha, beta in [(1.0, 1.0), (-1.7, 0.3)]
         for gate in (0.0, float("inf"))],
        ids=["ones", "kgroups", "ones-scaled", "kgroups-scaled"],
    )
    def test_every_executor_of_a_path_has_the_same_bits(self, gate, alpha, beta, monkeypatch):
        """``execute_plan`` and a rank's ``execute_blocks`` writing into
        NaN-filled ``c_slot`` buffers: same tiles, same bits — also with ``alpha`` folded into every ``dgemm`` and a
        ``beta``-scaled C input folded in after."""
        monkeypatch.setattr(numeric, "KGROUP_MAX_TASK_FLOPS", gate)
        a, b = fine_operands(seed=1)
        c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=8) if alpha != 1.0 else None
        plan = self.plan_for(a, b, gpus_per_proc=2)
        c, _ = execute_plan(plan, a, b, c0, alpha=alpha, beta=beta)
        dense = alpha * gemm_against_dense(a, b)
        assert np.allclose(c.to_dense(), dense if c0 is None else dense + beta * c0.to_dense())
        fused = gate > 0
        pulls = 0

        def folded(tiles):
            """A rank's tiles as the oracle's result holds them: ``beta*C + P``."""
            return {key: beta * c0.get(key) + t if c0 is not None and key in c0 else t
                    for key, t in tiles.items()}

        common = dict(
            gpu_memory_bytes=plan.gpu_memory_bytes, b_csr=plan.b_shape.csr, alpha=alpha
        )
        seen = set()
        for proc in plan.procs:
            arena = np.full(sum(blk.c_bytes for blk in proc.blocks) // 8, np.nan)
            cursor = [0]

            def c_slot(key, m, n):
                cursor[0] += m * n
                return arena[cursor[0] - m * n : cursor[0]].reshape(m, n)

            triples = list(numeric.proc_blocks(proc, plan.grid.gpus_per_proc))
            source = ConcreteBSource(b)
            produced, _ = numeric.execute_blocks(
                triples, proc.rank, a.get_tile, source, c_slot=c_slot, **common
            )
            pulls += source.hits + source.generated_tiles()
            assert same_tiles(folded(produced), c, produced)
            assert not any(tile.flags.owndata for tile in produced.values())
            seen.update(produced)
        assert seen | set(c0.keys() if c0 is not None else ()) == set(c.keys())
        assert pulls == (self.b_pulls_per_chunk(plan) if fused else plan.total_tasks)
        assert fused == (pulls < plan.total_tasks)

    def test_a_slot_blas_cannot_write_in_place_is_refused(self, monkeypatch):
        """A ``c_slot`` that is not C-contiguous would get a copy written
        and the tile's product dropped: the body raises instead."""
        monkeypatch.setattr(numeric, "KGROUP_MAX_TASK_FLOPS", 0.0)
        a, b = fine_operands(seed=9)
        plan = self.plan_for(a, b)
        proc = plan.procs[0]
        with pytest.raises(ValueError, match=r"C tile \(\d+, \d+\)"):
            numeric.execute_blocks(
                numeric.proc_blocks(proc, plan.grid.gpus_per_proc), proc.rank,
                a.get_tile, ConcreteBSource(b), gpu_memory_bytes=plan.gpu_memory_bytes,
                b_csr=plan.b_shape.csr, c_slot=lambda key, m, n: np.empty((n, m)).T,
            )

    @GATES
    def test_transposed_operand_tiles_give_the_dense_product(self, gate, monkeypatch):
        """A and B tiles handed over as Fortran-ordered arrays (transposed
        views of their transposes) are read as the matrices they are."""
        monkeypatch.setattr(numeric, "KGROUP_MAX_TASK_FLOPS", gate)
        a, b = fine_operands(seed=10)
        plan = self.plan_for(a, b)
        reference = block_gemm_reference(a, b)

        class FortranB(ConcreteBSource):
            def tile(self, proc, k, j):
                return np.asfortranarray(super().tile(proc, k, j))

        def fortran_a(i, k):
            tile = np.asfortranarray(a.get_tile(i, k))
            assert not tile.flags.c_contiguous or 1 in tile.shape
            return tile

        produced = {}
        for proc in plan.procs:
            produced.update(numeric.execute_blocks(
                numeric.proc_blocks(proc, plan.grid.gpus_per_proc), proc.rank, fortran_a,
                FortranB(b), gpu_memory_bytes=plan.gpu_memory_bytes, b_csr=plan.b_shape.csr,
                alpha=0.5,
            )[0])
        assert sorted(produced) == sorted(reference.keys())
        assert all(np.allclose(t, 0.5 * reference.get_tile(*key)) for key, t in produced.items())

    def test_on_task_and_stats_count_every_task(self, monkeypatch):
        monkeypatch.setattr(numeric, "KGROUP_MAX_TASK_FLOPS", float("inf"))
        a, b = fine_operands(seed=2)
        plan = self.plan_for(a, b)
        fired, parts = [0], []

        def on_task():
            fired[0] += 1

        for proc in plan.procs:
            parts.append(numeric.execute_blocks(
                numeric.proc_blocks(proc, plan.grid.gpus_per_proc), proc.rank,
                a.get_tile, ConcreteBSource(b), gpu_memory_bytes=plan.gpu_memory_bytes,
                b_csr=plan.b_shape.csr, on_task=on_task,
            )[1])
        stats = numeric.NumericStats.merge(parts)
        assert fired[0] == stats.ntasks == plan.total_tasks
        assert stats.flops == plan.total_flops
        assert stats.per_proc_tasks == {pp.rank: pp.ntasks for pp in plan.procs}

    def test_alpha_and_c_input(self):
        a, b = fine_operands(seed=3)
        c0 = random_block_sparse(a.rows, b.cols, 0.3, seed=4)
        plan = self.plan_for(a, b)
        assert any(len(g) > 1 for g in numeric.chunk_groups(plan.procs[0].blocks[0].chunks[0]))
        c, _ = execute_plan(plan, a, b, c0, alpha=0.5, beta=2.0)
        expect = 2.0 * c0.to_dense() + 0.5 * (a.to_dense() @ b.to_dense())
        assert np.allclose(c.to_dense(), expect)

    def test_generated_b_is_pulled_once_per_tile_per_chunk(self):
        a, bmat = fine_operands(seed=5)
        plan = self.plan_for(a, bmat)
        gen = GeneratedCollection(plan.b_shape, seed=6)
        reference = block_gemm_reference(a, gen.as_matrix())
        pulls, produced = 0, {}
        for proc in plan.procs:
            service = BService(gen.empty_clone(), budget_bytes=plan.gpu_memory_bytes)
            tiles, _ = numeric.execute_blocks(
                numeric.proc_blocks(proc, plan.grid.gpus_per_proc), proc.rank,
                a.get_tile, service, gpu_memory_bytes=plan.gpu_memory_bytes,
                b_csr=plan.b_shape.csr,
            )
            produced.update(tiles)
            pulls += service.hits + service.generated_tiles()
            assert service.max_instantiations() == 1
        assert pulls == self.b_pulls_per_chunk(plan) < plan.total_tasks
        assert all(np.allclose(tile, reference.get_tile(*key)) for key, tile in produced.items())
        assert sorted(produced) == sorted(reference.keys())

    def test_gate_splits_a_plan_by_chunk(self):
        """Narrow and wide B columns in one plan: their blocks fall on either
        side of the gate and the run is still the dense product."""
        a, b = straddling_operands()
        plan = self.plan_for(a, b, gpus_per_proc=6)
        sizes = {
            max(len(g) for g in numeric.chunk_groups(ch)) > 1
            for pp in plan.procs for blk in pp.blocks for ch in blk.chunks
        }
        assert sizes == {True, False}
        c, stats = execute_plan(plan, a, b)
        assert np.allclose(c.to_dense(), gemm_against_dense(a, b))
        assert stats.ntasks == plan.total_tasks
