"""Electronic-structure problem generator (the paper's Section 5.2 data).

The paper's application benchmark is the ABCD term of CCSD for the alkane
C65H132 in the def2-SVP basis, in the AO-based formalism: block-sparse
tensors whose sparsity comes from the quasi-1D molecular geometry, with
tilings from k-means clustering of localized-orbital / AO centers.

This package rebuilds that pipeline from scratch:

* :mod:`~repro.chem.molecule` — alkane geometry (C65H132 = 65-carbon
  zigzag chain);
* :mod:`~repro.chem.basis` — def2-SVP AO counts (H: 5, C: 14 — giving the
  paper's U = 1570 AOs for C65H132);
* :mod:`~repro.chem.orbitals` — localized occupied orbitals as bond
  centers (64 C-C + 132 C-H = the paper's O = 196);
* :mod:`~repro.chem.clustering` — k-means tilings v1/v2/v3;
* :mod:`~repro.chem.screening` — distance-decay sparsity of T and V;
* :mod:`~repro.chem.abcd` — assembles the matricized contraction;
* :mod:`~repro.chem.traits` — the Table 1 quantities.

The paper itself used *random data* in V's tiles (no GPU integrals code
existed), with "the actual sparsity pattern determined by the CPU-only
code"; we regenerate an equivalent sparsity pattern from the same physics
(geometric decay + clustering), which preserves everything the benchmark
measures: tile-size distributions, densities, task counts, flop counts and
communication structure.
"""

from repro.chem.molecule import Atom, Molecule, alkane
from repro.chem.basis import DEF2_SVP_AO_COUNTS, ao_centers
from repro.chem.orbitals import bond_orbitals
from repro.chem.clustering import TilingVariant, make_tilings
from repro.chem.screening import ScreeningModel
from repro.chem.abcd import AbcdProblem, build_abcd_problem, C65H132_VARIANTS
from repro.chem.traits import ProblemTraits, compute_traits
from repro.chem.ccsd import CcsdTrace, scale_coupling, solve_amplitudes

__all__ = [
    "Atom",
    "Molecule",
    "alkane",
    "DEF2_SVP_AO_COUNTS",
    "ao_centers",
    "bond_orbitals",
    "TilingVariant",
    "make_tilings",
    "ScreeningModel",
    "AbcdProblem",
    "build_abcd_problem",
    "C65H132_VARIANTS",
    "ProblemTraits",
    "compute_traits",
    "CcsdTrace",
    "scale_coupling",
    "solve_amplitudes",
]
