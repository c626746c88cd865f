"""Localized occupied orbitals.

The paper's T tensor is expressed "with the occupied orbitals localized"
and clustered spatially [Lewis et al. 2016].  For a saturated hydrocarbon,
the localized valence occupied orbitals are, to an excellent
approximation, the two-center bond orbitals: one per sigma bond, centered
at the bond midpoint.  C65H132 has 64 C-C + 132 C-H = 196 bonds — exactly
the paper's O = 196 (core 1s orbitals are excluded, as is standard in
correlated calculations with frozen cores).
"""

from __future__ import annotations

import numpy as np

from repro.chem.molecule import Molecule, bonds


def bond_orbitals(molecule: Molecule) -> np.ndarray:
    """``(O, 3)`` centers of the localized valence occupied orbitals.

    One orbital per detected covalent bond, at the bond midpoint, ordered
    along the molecule for locality (sorted by dominant-axis coordinate).
    """
    pos = molecule.positions()
    centers = []
    for i, j in bonds(molecule):
        centers.append(0.5 * (pos[i] + pos[j]))
    out = np.array(centers)
    if out.size == 0:
        raise ValueError("molecule has no bonds — no localized orbitals")
    spread = pos.max(axis=0) - pos.min(axis=0)
    axis = int(np.argmax(spread))
    return out[np.argsort(out[:, axis], kind="stable")]
