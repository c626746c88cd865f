"""Assembly of the ABCD contraction for a molecule.

``R[ij, ab] <- sum_cd T[ij, cd] V[cd, ab]`` with T matricized as the
short-and-wide ``A`` (M x K, M = O^2 << K = U^2), V as the square
stationary ``B`` (K x N, N = K), and R as ``C`` — the exact mapping of
Section 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chem.clustering import ChemTilings, TilingVariant, make_tilings
from repro.chem.molecule import Molecule, alkane
from repro.chem.screening import ScreeningModel
from repro.sparse.shape import SparseShape
from repro.sparse.shape_algebra import product_shape

#: The paper's three granularities for C65H132 (Table 1): v1 is the most
#: fine-grained (65 AO clusters -> 4225 fused tile columns, as in Fig. 5),
#: v3 the coarsest.  Cluster targets are chosen so the fused tile-size
#: ranges match Table 1's "average #rows/block" rows.
C65H132_VARIANTS: dict[str, TilingVariant] = {
    "v1": TilingVariant("v1", occ_clusters=8, ao_clusters=65),
    "v2": TilingVariant("v2", occ_clusters=7, ao_clusters=48),
    "v3": TilingVariant("v3", occ_clusters=6, ao_clusters=32),
}


@dataclass(frozen=True)
class AbcdProblem:
    """One fully assembled ABCD instance.

    Attributes
    ----------
    molecule, variant, tilings, screening:
        The generating pipeline.
    t_shape:
        Matricized T — the ``A`` operand (``O^2 x U^2``), with decay norms.
    v_shape:
        Matricized V — the ``B`` operand (``U^2 x U^2``), with decay norms.
    r_shape:
        Inferred shape of R ("determined from the sparse shapes of T and V
        as described previously", Section 5.2).
    """

    molecule: Molecule
    variant: TilingVariant
    tilings: ChemTilings
    screening: ScreeningModel
    t_shape: SparseShape = field(repr=False)
    v_shape: SparseShape = field(repr=False)
    r_shape: SparseShape = field(repr=False)

    @property
    def O(self) -> int:  # noqa: E743 - paper notation
        return self.tilings.O

    @property
    def U(self) -> int:
        return self.tilings.U

    @property
    def M(self) -> int:
        """Row extent of A (O^2; see also :meth:`kept_pairs`)."""
        return self.O**2

    @property
    def N(self) -> int:
        return self.U**2

    @property
    def K(self) -> int:
        return self.U**2

    def kept_pairs(self) -> int:
        """Retained occupied-pair elements (the paper's reported M)."""
        return self.screening.kept_pair_elements(self.tilings)


def build_abcd_problem(
    molecule: Molecule | None = None,
    variant: TilingVariant | str = "v1",
    screening: ScreeningModel | None = None,
    seed=0,
) -> AbcdProblem:
    """Build the ABCD instance for ``molecule`` (default: C65H132).

    Parameters
    ----------
    molecule:
        Any :class:`~repro.chem.molecule.Molecule`; defaults to
        ``alkane(65)``.
    variant:
        A :class:`TilingVariant` or one of the named C65H132 variants
        (``"v1"``, ``"v2"``, ``"v3"``).
    screening:
        Sparsity model; the default is calibrated to Table 1.
    seed:
        Clustering seed (the paper calls the clustering "quasirandom").
    """
    molecule = molecule or alkane(65)
    if isinstance(variant, str):
        variant = C65H132_VARIANTS[variant]
    screening = screening or ScreeningModel()
    tilings = make_tilings(molecule, variant, seed=seed)
    t_shape = screening.t_shape(tilings)
    v_shape = screening.v_shape(tilings)
    r_shape = product_shape(t_shape, v_shape)
    return AbcdProblem(
        molecule=molecule,
        variant=variant,
        tilings=tilings,
        screening=screening,
        t_shape=t_shape,
        v_shape=v_shape,
        r_shape=r_shape,
    )
