"""AO basis bookkeeping (def2-SVP).

def2-SVP contracted functions per element: H is ``2s 1p`` (2 + 3 = 5 AOs),
first-row atoms C/N/O/F are ``3s 2p 1d`` (3 + 6 + 5 = 14 AOs).  For the
paper's C65H132 this gives ``65 * 14 + 132 * 5 = 1570`` AOs — exactly the
U = 1570 unoccupied-range rank quoted in Section 5.2 (the AO formalism
uses the full AO range in place of the virtual space).
"""

from __future__ import annotations

import numpy as np

from repro.chem.molecule import Molecule

#: Contracted AO counts per element in def2-SVP.
DEF2_SVP_AO_COUNTS: dict[str, int] = {
    "H": 5,   # 2s 1p
    "He": 5,
    "B": 14,
    "C": 14,  # 3s 2p 1d
    "N": 14,
    "O": 14,
    "F": 14,
}


def ao_centers(molecule: Molecule, basis: dict[str, int] | None = None) -> np.ndarray:
    """``(nAO, 3)`` center of every AO (its parent atom's position).

    These are the points the AO-range clustering tiles; an atom carrying 14
    AOs contributes 14 coincident rows, so clusters naturally respect atom
    boundaries.
    """
    table = basis or DEF2_SVP_AO_COUNTS
    rows = []
    for atom in molecule.atoms:
        rows.extend([atom.position] * table[atom.symbol])
    return np.array(rows)
