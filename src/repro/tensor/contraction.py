"""Binary tensor contractions via matricized GEMM.

:func:`plan_contraction` parses an einsum-like spec (``"ijcd,cdab->ijab"``)
and determines the matricization of each operand; :func:`contract` executes
it numerically with the reference block GEMM.  The distributed planners in
:mod:`repro.core` consume the same :class:`ContractionSpec`, so the numeric
and simulated paths agree on the GEMM they run.

Supported contractions are the GEMM-shaped ones: every contracted mode
appears in both inputs and not in the output, every output mode comes from
exactly one input, and the output lists all A-side free modes before all
B-side free modes (in any internal order) — the form the ABCD term and all
CCSD terms reduce to after transposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sparse.gemm_ref import block_gemm_reference
from repro.sparse.matrix import BlockSparseMatrix
from repro.tensor.matricize import matricize, unmatricize
from repro.tensor.tensor import BlockSparseTensor
from repro.util.validation import require


@dataclass(frozen=True)
class ContractionSpec:
    """A parsed binary contraction.

    Attributes
    ----------
    a_modes, b_modes, out_modes:
        Mode strings of the operands and result.
    a_free, b_free:
        Free (uncontracted) modes of each operand, in output order.
    contracted:
        Contracted modes, in the order they appear in ``a_modes``.
    """

    a_modes: str
    b_modes: str
    out_modes: str
    a_free: str
    b_free: str
    contracted: str

    @property
    def einsum(self) -> str:
        """The spec back in einsum syntax."""
        return f"{self.a_modes},{self.b_modes}->{self.out_modes}"


def parse_spec(spec: str) -> ContractionSpec:
    """Parse ``"ijcd,cdab->ijab"`` into a :class:`ContractionSpec`.

    Raises :class:`ValueError` for specs that are not GEMM-shaped (traces,
    Hadamard/batched modes, or interleaved output orders).
    """
    require("->" in spec and "," in spec, f"malformed contraction spec {spec!r}")
    inputs, out = spec.split("->")
    a_modes, b_modes = inputs.split(",")
    for name, modes in (("A", a_modes), ("B", b_modes), ("output", out)):
        require(len(set(modes)) == len(modes), f"repeated mode within {name}: {modes!r}")

    a_set, b_set, o_set = set(a_modes), set(b_modes), set(out)
    contracted = [m for m in a_modes if m in b_set]
    require(len(contracted) > 0, f"no contracted modes in {spec!r}")
    require(
        not (a_set & b_set & o_set),
        f"batched (Hadamard) modes not supported: {sorted(a_set & b_set & o_set)}",
    )
    require(o_set <= (a_set | b_set), f"output modes {o_set - a_set - b_set} come from nowhere")
    a_free = [m for m in out if m in a_set]
    b_free = [m for m in out if m in b_set]
    require(
        set(a_free) == a_set - b_set and set(b_free) == b_set - a_set,
        f"every free mode must appear in the output of {spec!r}",
    )
    require(
        out == "".join(a_free) + "".join(b_free),
        f"output must list all A-side free modes before B-side ones, got {out!r}",
    )
    return ContractionSpec(
        a_modes=a_modes,
        b_modes=b_modes,
        out_modes=out,
        a_free="".join(a_free),
        b_free="".join(b_free),
        contracted="".join(contracted),
    )


@dataclass(frozen=True)
class ContractionPlan:
    """Matricization recipe for a contraction over concrete tensors."""

    spec: ContractionSpec
    a: BlockSparseTensor
    b: BlockSparseTensor

    def matricized_a(self) -> BlockSparseMatrix:
        """A as (fused free) x (fused contracted)."""
        return matricize(self.a, self.spec.a_free, self.spec.contracted)

    def matricized_b(self) -> BlockSparseMatrix:
        """B as (fused contracted) x (fused free)."""
        return matricize(self.b, self.spec.contracted, self.spec.b_free)

    def result_from_matrix(self, c: BlockSparseMatrix) -> BlockSparseTensor:
        """Un-matricize the GEMM result back into the output tensor."""
        out_tilings = []
        for m in self.spec.out_modes:
            src = self.a if m in self.spec.a_modes else self.b
            out_tilings.append(src.tilings[src.mode_axis(m)])
        return unmatricize(
            c, self.spec.out_modes, out_tilings, self.spec.a_free, self.spec.b_free
        )


def plan_contraction(
    spec: str, a: BlockSparseTensor, b: BlockSparseTensor
) -> ContractionPlan:
    """Parse ``spec`` and validate it against the operand tensors."""
    parsed = parse_spec(spec)
    require(
        len(parsed.a_modes) == a.order, f"A order {a.order} != spec {parsed.a_modes!r}"
    )
    require(
        len(parsed.b_modes) == b.order, f"B order {b.order} != spec {parsed.b_modes!r}"
    )
    # Contracted tilings must agree between the two operands.
    for m in parsed.contracted:
        ta = a.tilings[parsed.a_modes.index(m)]
        tb = b.tilings[parsed.b_modes.index(m)]
        require(ta == tb, f"contracted mode {m!r} tiled differently in A and B")
    return ContractionPlan(spec=parsed, a=a, b=b)


def contract(
    spec: str, a: BlockSparseTensor, b: BlockSparseTensor
) -> BlockSparseTensor:
    """Numerically evaluate a binary contraction via matricized block GEMM."""
    plan = plan_contraction(spec, a, b)
    am = plan.matricized_a()
    bm = plan.matricized_b()
    cm = block_gemm_reference(am, bm)
    return plan.result_from_matrix(cm)
