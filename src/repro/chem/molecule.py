"""Molecular geometry: atoms and alkane chains.

The paper's test molecule is C65H132 — "representative of applications to
1-d polymers and quasi-linear molecules".  :func:`alkane` builds the
all-anti (zigzag) chain with standard bond geometry: C-C 1.526 A, C-H
1.094 A, tetrahedral angles.  Nothing here is specific to alkanes longer
than n = 1 (methane), so tests can use small chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require

# Standard single-bond geometry (Angstrom / degrees).
CC_BOND = 1.526
CH_BOND = 1.094
TETRAHEDRAL = 109.471


@dataclass(frozen=True)
class Atom:
    """One atom: element symbol and Cartesian position (Angstrom)."""

    symbol: str
    position: tuple[float, float, float]


@dataclass(frozen=True)
class Molecule:
    """An immutable collection of atoms."""

    atoms: tuple[Atom, ...]

    @property
    def natoms(self) -> int:
        return len(self.atoms)

    def positions(self) -> np.ndarray:
        """``(natoms, 3)`` coordinates."""
        return np.array([a.position for a in self.atoms])

    def symbols(self) -> list[str]:
        return [a.symbol for a in self.atoms]

    def count(self, symbol: str) -> int:
        return sum(1 for a in self.atoms if a.symbol == symbol)

    def extent(self) -> float:
        """Largest coordinate spread — the "length" of the molecule."""
        pos = self.positions()
        return float((pos.max(axis=0) - pos.min(axis=0)).max())


def alkane(n_carbons: int) -> Molecule:
    """The linear alkane C_n H_{2n+2} in the all-anti conformation.

    The carbon backbone zigzags in the xz-plane; each carbon carries two
    hydrogens out of plane (plus the terminal CH3 caps).  ``alkane(65)``
    is the paper's C65H132.
    """
    require(n_carbons >= 1, "need at least one carbon")
    theta = np.deg2rad(TETRAHEDRAL / 2.0)
    dx = CC_BOND * np.sin(theta)  # backbone advance per C-C bond
    dz = CC_BOND * np.cos(theta)  # zigzag amplitude

    atoms: list[Atom] = []
    carbons = np.zeros((n_carbons, 3))
    for i in range(n_carbons):
        carbons[i] = (i * dx, 0.0, (i % 2) * dz)
        atoms.append(Atom("C", tuple(carbons[i])))

    # Hydrogens: two per backbone carbon, symmetric about the xz-plane,
    # along the local tetrahedral directions; terminal carbons get an
    # extra in-plane hydrogen to complete CH3 (or CH4 for methane).
    hy = CH_BOND * np.sin(theta)
    hv = CH_BOND * np.cos(theta)
    for i in range(n_carbons):
        c = carbons[i]
        up = 1.0 if i % 2 == 0 else -1.0  # zigzag-dependent tilt
        atoms.append(Atom("H", (c[0], c[1] + hy, c[2] - up * hv)))
        atoms.append(Atom("H", (c[0], c[1] - hy, c[2] - up * hv)))
    # Terminal caps along the chain axis.
    atoms.append(Atom("H", (carbons[0][0] - CH_BOND * np.sin(theta),
                            0.0, carbons[0][2] + CH_BOND * np.cos(theta) * (1 if n_carbons > 1 else -1))))
    if n_carbons == 1:
        atoms.append(Atom("H", (CH_BOND, 0.0, carbons[0][2])))
    else:
        last = carbons[-1]
        atoms.append(Atom("H", (last[0] + CH_BOND * np.sin(theta),
                                0.0, last[2] + CH_BOND * np.cos(theta) * (1 if n_carbons % 2 == 0 else -1))))
    return Molecule(tuple(atoms))


def bonds(molecule: Molecule, scale: float = 1.25) -> list[tuple[int, int]]:
    """Detect covalent bonds by interatomic distance.

    Two atoms are bonded when their distance is below ``scale`` times the
    sum of their covalent radii.  Returns index pairs ``i < j``.
    """
    radii = {"H": 0.31, "C": 0.76, "N": 0.71, "O": 0.66}
    pos = molecule.positions()
    syms = molecule.symbols()
    r = np.array([radii[s] for s in syms])
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    cut = scale * (r[:, None] + r[None, :])
    out = []
    n = molecule.natoms
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] <= cut[i, j]:
                out.append((i, j))
    return out
