"""Tests for the electronic-structure problem generator."""

import numpy as np
import pytest

from repro.chem import (
    C65H132_VARIANTS,
    ScreeningModel,
    TilingVariant,
    alkane,
    ao_centers,
    bond_orbitals,
    build_abcd_problem,
    compute_traits,
    make_tilings,
)
from repro.chem.molecule import bonds
from repro.sparse.shape_algebra import product_shape


class TestMolecule:
    def test_c65h132_counts(self):
        m = alkane(65)
        assert m.formula() == "C65H132"
        assert m.natoms == 197
        assert m.count("C") == 65 and m.count("H") == 132

    def test_small_alkanes(self):
        assert alkane(1).formula() == "CH4"
        assert alkane(2).formula() == "C2H6"
        assert alkane(4).formula() == "C4H10"

    def test_quasi_1d_geometry(self):
        m = alkane(30)
        pos = m.positions()
        spread = pos.max(axis=0) - pos.min(axis=0)
        assert spread[0] > 10 * spread[1]
        assert spread[0] > 10 * spread[2]

    def test_bond_detection(self):
        # C_n H_{2n+2}: n-1 C-C bonds + 2n+2 C-H bonds = 3n+1 bonds.
        for n in (1, 2, 5, 10):
            m = alkane(n)
            assert len(bonds(m)) == 3 * n + 1

    def test_bond_lengths_physical(self):
        m = alkane(8)
        pos = m.positions()
        syms = m.symbols()
        for i, j in bonds(m):
            d = np.linalg.norm(pos[i] - pos[j])
            if syms[i] == syms[j] == "C":
                assert d == pytest.approx(1.526, abs=0.01)
            else:
                assert d == pytest.approx(1.094, abs=0.01)


class TestBasisAndOrbitals:
    def test_paper_dimensions(self):
        m = alkane(65)
        assert len(ao_centers(m)) == 1570  # the paper's U
        assert len(bond_orbitals(m)) == 196  # the paper's O

    def test_ao_centers_shape(self):
        m = alkane(3)
        centers = ao_centers(m)
        assert centers.shape == (3 * 14 + 8 * 5, 3)  # C3H8 in def2-SVP

    def test_bond_orbitals_ordered_along_chain(self):
        m = alkane(20)
        orbs = bond_orbitals(m)
        assert orbs.shape == (len(bonds(m)), 3)
        assert np.all(np.diff(orbs[:, 0]) >= -1e-12)


class TestTilings:
    def test_v1_grid_matches_paper_fig5(self):
        t = make_tilings(alkane(65), C65H132_VARIANTS["v1"], seed=0)
        assert t.occ_pair.fused.ntiles == 64  # 8^2 rows in Fig. 5
        assert t.ao_pair.fused.ntiles == 4225  # 65^2 columns in Fig. 5
        assert t.occ_pair.fused.tiling.extent == 196**2
        assert t.ao_pair.fused.tiling.extent == 1570**2

    def test_pair_geometry_consistent(self):
        t = make_tilings(alkane(20), TilingVariant("t", 4, 10), seed=1)
        g = t.ao_pair
        assert g.centers.shape == (100, 3)
        assert g.separations.shape == (100,)
        # Diagonal pairs have zero separation.
        for c in range(10):
            assert g.separations[c * 10 + c] == pytest.approx(0.0)

    def test_variant_granularity_ordering(self):
        m = alkane(65)
        n1 = make_tilings(m, C65H132_VARIANTS["v1"], seed=0).ao_pair.fused.ntiles
        n3 = make_tilings(m, C65H132_VARIANTS["v3"], seed=0).ao_pair.fused.ntiles
        assert n1 > n3


class TestScreening:
    def test_v_shape_is_kron_of_proximity(self):
        t = make_tilings(alkane(10), TilingVariant("t", 3, 8), seed=2)
        sm = ScreeningModel()
        v = sm.v_shape(t)
        n1 = sm.proximity(t.ao, t.ao, sm.v_cutoff).toarray() > 0
        expect = np.kron(n1, n1)
        assert np.array_equal(v.pattern().toarray() > 0, expect)

    def test_v_shape_symmetric_pattern(self):
        t = make_tilings(alkane(12), TilingVariant("t", 3, 8), seed=3)
        v = sm = ScreeningModel().v_shape(t)
        pat = v.pattern()
        assert (pat != pat.T).nnz == 0

    def test_t_shape_rows_restricted_to_kept_pairs(self):
        t = make_tilings(alkane(30), TilingVariant("t", 6, 15), seed=4)
        sm = ScreeningModel(occ_pair_cutoff=10.0)
        ts = sm.t_shape(t)
        kept = sm.kept_pair_values(t) > 0
        row_has = np.asarray(ts.pattern().sum(axis=1)).ravel() > 0
        assert not np.any(row_has & ~kept)

    def test_cutoffs_monotone(self):
        t = make_tilings(alkane(30), TilingVariant("t", 6, 15), seed=5)
        loose = ScreeningModel(v_cutoff=10.0).v_shape(t).nnz_tiles
        tight = ScreeningModel(v_cutoff=4.0).v_shape(t).nnz_tiles
        assert loose > tight

    def test_norms_decay_with_distance(self):
        t = make_tilings(alkane(40), TilingVariant("t", 6, 20), seed=6)
        sm = ScreeningModel()
        n1 = sm.proximity(t.ao, t.ao, sm.v_cutoff)
        dense = n1.toarray()
        # Self-pairs have the largest norms.
        offdiag = dense.copy()
        np.fill_diagonal(offdiag, 0)
        assert dense.diagonal().min() >= offdiag.max() - 1e-12

    def test_kept_pair_elements_bounded(self):
        t = make_tilings(alkane(65), C65H132_VARIANTS["v1"], seed=0)
        sm = ScreeningModel()
        kept = sm.kept_pair_elements(t)
        assert 0 < kept <= 196**2


class TestAbcdProblem:
    def test_shapes_conform(self):
        prob = build_abcd_problem(alkane(15), TilingVariant("t", 4, 10), seed=7)
        assert prob.t_shape.cols == prob.v_shape.rows
        assert prob.r_shape == product_shape(prob.t_shape, prob.v_shape)
        assert prob.M == prob.O**2
        assert prob.N == prob.K == prob.U**2

    def test_named_variant_lookup(self):
        prob = build_abcd_problem(variant="v3", seed=0)
        assert prob.variant.name == "v3"

    def test_describe(self):
        prob = build_abcd_problem(alkane(10), TilingVariant("t", 3, 6), seed=8)
        d = prob.describe()
        assert "density" in d and "C10H22" in d

    def test_deterministic_given_seed(self):
        p1 = build_abcd_problem(alkane(12), TilingVariant("t", 3, 8), seed=9)
        p2 = build_abcd_problem(alkane(12), TilingVariant("t", 3, 8), seed=9)
        assert p1.t_shape == p2.t_shape
        assert p1.v_shape == p2.v_shape


class TestTraits:
    def test_traits_sanity_small_molecule(self):
        prob = build_abcd_problem(alkane(20), TilingVariant("t", 5, 12), seed=10)
        tr = compute_traits(prob)
        assert tr.tasks >= tr.tasks_opt > 0
        assert tr.flops >= tr.flops_opt > 0
        assert 0 < tr.density_v <= 1
        assert 0 < tr.density_t <= 1
        assert tr.density_r >= tr.density_r_opt

    def test_rows_formatting(self):
        prob = build_abcd_problem(alkane(10), TilingVariant("t", 3, 6), seed=11)
        rows = compute_traits(prob).rows()
        labels = [r[0] for r in rows]
        assert "#GEMM tasks" in labels and "Density of V" in labels
