"""Tests for block-sparse tensors, matricization and contractions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import BlockSparseTensor, contract, matricize, plan_contraction, unmatricize
from repro.tensor.contraction import parse_spec
from repro.tiling import Tiling


def rand_tensor(modes, tilings, seed=0, sparsity=0.5):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal(tuple(t.extent for t in tilings))
    t = BlockSparseTensor(modes, tilings)
    for key in np.ndindex(*t.tile_grid):
        if rng.uniform() < sparsity:
            slices = tuple(tl.tile_slice(k) for tl, k in zip(tilings, key))
            t.set_tile(key, dense[slices])
        else:
            slices = tuple(tl.tile_slice(k) for tl, k in zip(tilings, key))
            dense[slices] = 0.0
    return t, dense


class TestBlockSparseTensor:
    def test_geometry(self):
        t = BlockSparseTensor("ijk", [Tiling.from_sizes([2, 3]), Tiling.from_sizes([4]), Tiling.uniform(6, 2)])
        assert t.order == 3
        assert t.shape == (5, 4, 6)
        assert t.tile_grid == (2, 1, 3)
        assert t.tile_shape((1, 0, 2)) == (3, 4, 2)
        assert t.mode_axis("k") == 2
        with pytest.raises(KeyError):
            t.mode_axis("z")

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError):
            BlockSparseTensor("ii", [Tiling.from_sizes([2]), Tiling.from_sizes([2])])

    def test_tile_validation(self):
        t = BlockSparseTensor("ij", [Tiling.from_sizes([2, 3]), Tiling.from_sizes([4])])
        with pytest.raises(ValueError):
            t.set_tile((0, 0), np.zeros((3, 4)))  # wrong shape
        with pytest.raises(ValueError):
            t.set_tile((2, 0), np.zeros((2, 4)))  # out of grid
        with pytest.raises(ValueError):
            t.set_tile((0,), np.zeros(2))  # wrong key length

    def test_dense_roundtrip(self):
        tilings = [Tiling.from_sizes([2, 1]), Tiling.from_sizes([3]), Tiling.from_sizes([1, 2])]
        t, dense = rand_tensor("abc", tilings, seed=1, sparsity=1.0)
        back = BlockSparseTensor.from_dense(dense, "abc", tilings)
        assert np.allclose(back.to_dense(), dense)
        assert np.allclose(t.to_dense(), dense)

    def test_from_dense_drops_zero_tiles(self):
        tilings = [Tiling.from_sizes([2, 2])]
        dense = np.array([1.0, 1.0, 0.0, 0.0])
        t = BlockSparseTensor.from_dense(dense, "i", tilings)
        assert t.nnz_tiles == 1

    def test_accumulate_and_norm(self):
        t = BlockSparseTensor("i", [Tiling.from_sizes([3])])
        t.accumulate_tile((0,), np.ones(3))
        t.accumulate_tile((0,), np.ones(3))
        assert t.norm_fro() == pytest.approx(np.sqrt(12.0))

    def test_allclose_and_copy(self):
        tilings = [Tiling.from_sizes([2, 3]), Tiling.from_sizes([2])]
        t, _ = rand_tensor("ij", tilings, seed=2)
        cp = t.copy()
        assert t.allclose(cp)
        for key, _tile in cp.items():
            cp.get_tile(key)[:] = 0.0
            break
        if cp.nnz_tiles:
            assert not t.allclose(cp) or t.norm_fro() == 0


class TestMatricize:
    def test_roundtrip_order4(self):
        tilings = [Tiling.from_sizes([2, 1]), Tiling.from_sizes([2]),
                   Tiling.from_sizes([1, 2]), Tiling.from_sizes([3])]
        t, dense = rand_tensor("ijcd", tilings, seed=3)
        m = matricize(t, "ij", "cd")
        assert m.shape == (3 * 2, 3 * 3)
        back = unmatricize(m, "ijcd", tilings, "ij", "cd")
        assert back.allclose(t)

    def test_matricize_matches_reshape_for_contiguous_modes(self):
        tilings = [Tiling.from_sizes([2]), Tiling.from_sizes([3]), Tiling.from_sizes([4]), Tiling.from_sizes([5])]
        t, dense = rand_tensor("ijcd", tilings, seed=4, sparsity=1.0)
        m = matricize(t, "ij", "cd")
        assert np.allclose(m.to_dense(), dense.reshape(6, 20))

    def test_matricize_permuted_modes(self):
        tilings = [Tiling.from_sizes([2]), Tiling.from_sizes([3]), Tiling.from_sizes([4])]
        t, dense = rand_tensor("abc", tilings, seed=5, sparsity=1.0)
        m = matricize(t, "ca", "b")
        expect = np.transpose(dense, (2, 0, 1)).reshape(8, 3)
        assert np.allclose(m.to_dense(), expect)

    def test_invalid_modes(self):
        t, _ = rand_tensor("ab", [Tiling.from_sizes([2]), Tiling.from_sizes([2])], seed=6)
        with pytest.raises(ValueError):
            matricize(t, "a", "c")


class TestParseSpec:
    def test_abcd_spec(self):
        s = parse_spec("ijcd,cdab->ijab")
        assert s.contracted == "cd"
        assert s.a_free == "ij" and s.b_free == "ab"
        assert s.einsum == "ijcd,cdab->ijab"

    def test_matrix_multiply(self):
        s = parse_spec("ik,kj->ij")
        assert s.contracted == "k"

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            parse_spec("ii,ij->j")

    def test_rejects_hadamard(self):
        with pytest.raises(ValueError):
            parse_spec("ik,kj->ikj")

    def test_rejects_interleaved_output(self):
        with pytest.raises(ValueError):
            parse_spec("ik,kj->ji")

    def test_rejects_no_contraction(self):
        with pytest.raises(ValueError):
            parse_spec("ij,kl->ijkl")

    def test_rejects_unknown_output_mode(self):
        with pytest.raises(ValueError):
            parse_spec("ik,kj->iz")


class TestContract:
    def test_abcd_matches_einsum(self):
        o = Tiling.from_sizes([2, 2])
        u = Tiling.from_sizes([3, 2])
        T, t_dense = rand_tensor("ijcd", [o, o, u, u], seed=7)
        V, v_dense = rand_tensor("cdab", [u, u, u, u], seed=8)
        R = contract("ijcd,cdab->ijab", T, V)
        ref = np.einsum("ijcd,cdab->ijab", t_dense, v_dense)
        assert np.allclose(R.to_dense(), ref)

    def test_matrix_case(self):
        m = Tiling.from_sizes([2, 3])
        k = Tiling.from_sizes([4])
        n = Tiling.from_sizes([1, 2])
        A, a_dense = rand_tensor("ik", [m, k], seed=9, sparsity=1.0)
        B, b_dense = rand_tensor("kj", [k, n], seed=10, sparsity=1.0)
        C = contract("ik,kj->ij", A, B)
        assert np.allclose(C.to_dense(), a_dense @ b_dense)

    def test_contracted_modes_in_any_position(self):
        a_t = Tiling.from_sizes([2])
        k_t = Tiling.from_sizes([3, 1])
        b_t = Tiling.from_sizes([2, 2])
        A, a_dense = rand_tensor("ka", [k_t, a_t], seed=11, sparsity=1.0)
        B, b_dense = rand_tensor("bk", [b_t, k_t], seed=12, sparsity=1.0)
        C = contract("ka,bk->ab", A, B)
        ref = np.einsum("ka,bk->ab", a_dense, b_dense)
        assert np.allclose(C.to_dense(), ref)

    def test_tiling_mismatch_on_contracted_mode(self):
        A, _ = rand_tensor("ik", [Tiling.from_sizes([2]), Tiling.from_sizes([4])], seed=13)
        B, _ = rand_tensor("kj", [Tiling.from_sizes([2, 2]), Tiling.from_sizes([3])], seed=14)
        with pytest.raises(ValueError, match="tiled differently"):
            plan_contraction("ik,kj->ij", A, B)

    def test_order_mismatch(self):
        A, _ = rand_tensor("ik", [Tiling.from_sizes([2]), Tiling.from_sizes([4])], seed=15)
        with pytest.raises(ValueError):
            plan_contraction("ikz,kj->izj", A, A)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_random_order3_contractions(self, seed):
        rng = np.random.default_rng(seed)
        sizes = lambda: Tiling.from_sizes(rng.integers(1, 4, rng.integers(1, 4)).tolist())  # noqa: E731
        i, j, k = sizes(), sizes(), sizes()
        A, a_dense = rand_tensor("ik", [i, k], seed=seed, sparsity=0.7)
        B, b_dense = rand_tensor("kj", [k, j], seed=seed + 1, sparsity=0.7)
        C = contract("ik,kj->ij", A, B)
        assert np.allclose(C.to_dense(), a_dense @ b_dense)
